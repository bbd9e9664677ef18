(** Futures over a small pool of loader domains — the serving
    pipeline's async load seam.

    The catalog's staged batch path ({!Xpest_catalog.Catalog.estimate_batch_r})
    wants to start summary loads {e before} their acquire turn comes up,
    while the acquire state machine (clock, health, eviction) stays
    single-owner and strictly ordered.  A [Loader_pool.t] is that seam:
    {!submit} registers a load thunk and returns a future; {!await}
    produces its outcome at the in-order commit point.

    Two shapes behind one API:

    - {!blocking} (and a pool of one domain): the thunk is merely
      stored and runs at the {e first await}, on the awaiting domain.
      Since the pipeline awaits in acquire order, loads execute exactly
      where the sequential loop would have run them — bit-identical for
      {e any} loader, including loaders drawing from a shared
      order-sensitive fault-injection PRNG stream.

    - a pool of [n > 1] domains ({!with_pool}): [n - 1] spawned
      domains share one job queue with the awaiting domain.  A thunk is
      enqueued at submission, so distinct loads overlap each other and
      the submitter's own work.  This requires the thunk to be
      thread-safe and {e per-key deterministic} (its outcome must not
      depend on cross-key execution order); the catalog documents which
      loaders qualify.  Awaiting a still-pending future work-steals
      other queued jobs before parking, so the caller never idles while
      the queue is non-empty.

    Exception transparency: a thunk that raises has the exception
    captured in the future and re-raised by {!await} on the awaiting
    domain — loader domains never see it, and the awaiting caller
    observes exactly what a direct call would have raised. *)

type t
(** A load-execution policy: {!blocking}, or a pool made by
    {!with_pool}. *)

type 'a future
(** The pending/complete outcome of one submitted thunk. *)

val blocking : t
(** Loads run lazily at first {!await}, on the awaiting domain, in
    await order — the sequential serving path, packaged as a policy. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** Run the function with a pool of [domains] loader workers, the
    awaiting domain included: [domains - 1] domains are spawned before
    the call and joined after it (also on exceptions).  A pool of one
    domain is {!blocking} and spawns nothing.  Jobs still queued when
    the function returns are not abandoned: the workers drain the
    queue before they are joined, so a future submitted inside still
    awaits normally afterwards.
    @raise Invalid_argument unless [1 <= domains <= 64], a guard well
    under the runtime's hard domain limit (128). *)

val domains : t -> int
(** 1 for {!blocking}; the pool size otherwise. *)

val concurrent : t -> bool
(** [domains t > 1] — whether {!submit} actually starts work early.
    The pipeline uses this to decide whether planning a prefetch is
    worth anything (and whether per-group metric attribution is still
    meaningful). *)

val pending : t -> int
(** Queued jobs submitted but not yet completed — the pool's live
    queue depth as seen from the submitting domain; always 0 for
    {!blocking}.  Observability only: the value depends on worker
    scheduling, so determinism-bound callers (admission control) must
    keep their own ledger rather than branch on it. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Register a thunk.  Under {!concurrent} policies it is enqueued
    immediately and must be thread-safe; otherwise nothing runs until
    {!await}.  Submitting to a pool whose {!with_pool} has returned
    does not raise: it returns a {e poisoned} future whose {!await}
    raises [Xpest_error.Error (Overloaded _)] — the caller sees a
    typed refusal at the commit point instead of an [Invalid_argument]
    escaping from inside the pool. *)

val await : 'a future -> 'a
(** The thunk's result: runs it now (blocking futures), or steals
    queued work then parks until done (queued futures).  Re-raises the
    thunk's exception if it raised.

    {b Single-shot:} a future is consumed by its first [await]; a
    second [await] of the same future raises
    [Xpest_error.Error (Internal _)].  The pipeline awaits each
    prefetched load exactly once at its commit point, so a double
    await is a caller bug (two owners for one load) — replaying a
    memoized outcome would mask it, and a replayed result would not
    re-draw from a keyed fault injector, so it could diverge from what
    a real second load would have seen.  Poisoned futures (submitted
    after shutdown) are the exception: their typed [Overloaded] error
    is a property of the future, not a stale outcome, and raises on
    {e every} await.

    Shutdown safety: futures pending when the pool shuts down still
    complete (workers drain the queue before exiting) and await
    normally afterwards.  A future that provably can never complete —
    the workers are joined, the queue is dry, and the outcome is still
    pending — raises [Xpest_error.Error (Overloaded _)] rather than
    parking forever. *)
