(** Control flow of the staged serving pipeline.

    {!Xpest_catalog.Catalog.estimate_batch_r} is four stages:

    {v
      route ──▶ acquire ──▶ execute
                  ▲
                  │ await (in route order)
                load  (the only I/O stage; fans out on a Loader_pool)
    v}

    - {b route}: group queries by key, keeping the keys'
      first-appearance order (pure, {!route}).
    - {b acquire}: the serving state machine — clock ticks, residency
      probes and evictions, retry/quarantine bookkeeping.  Always
      single-owner: commits run on the calling domain, one key at a
      time, strictly in route order, so every stateful decision happens
      in exactly the order the sequential loop made it.
    - {b load}: the only stage that touches I/O.  Under a concurrent
      {!Xpest_util.Loader_pool} policy, loads whose necessity the
      planner can prove in advance ([ops.prefetchable]) are submitted
      before their acquire turn and awaited at the in-order commit
      point; all other loads run inline at commit, exactly like the
      blocking path.
    - {b execute}: per-key query groups, on the calling domain right
      after each commit (overlapping the loads still in flight).

    Why acquire stays single-owner: eviction, quarantine and clock
    decisions are each a function of all prior decisions, so any second
    owner would need a total order anyway — and the bit-identity
    contract (results, errors, stats equal to the sequential path at
    every loader-pool size) falls out of keeping the one order we
    already have.  The pipeline gains its overlap purely from the one
    stage that is {e not} stateful: loads (pure per-key I/O).  Every
    other stage, and every cache it touches, stays on the calling
    domain.

    This module owns only control flow; {!Xpest_catalog.Catalog}
    supplies the stage bodies and the planning predicate. *)

type ('k, 'q) routed = {
  pairs : ('k * 'q) array;
  order : 'k array;  (** distinct keys, first-appearance order *)
  groups : ('k, int array) Hashtbl.t;
      (** key -> indices into [pairs], ascending *)
}

val route : ('k * 'q) array -> ('k, 'q) routed
(** Group a batch by key.  Deterministic: depends only on the array
    (structural key equality), never on scheduling. *)

val group_count : ('k, 'q) routed -> int
val group_indices : ('k, 'q) routed -> 'k -> int array

(** Stage bodies, supplied by the catalog. *)
type ('k, 'load, 'est, 'err) ops = {
  prefetchable : 'k -> bool;
      (** Called once per routed key, in route order, only under a
          concurrent loader policy.  Must not mutate serving state.
          [true] promises the key's acquire will call the loader with
          an outcome independent of the commits before it — the planner
          may under-approximate (a missed prefetch just loads inline)
          but must never over-approximate. *)
  load : 'k -> 'load;
      (** The I/O body.  Under a concurrent policy it may run on a
          loader domain: it must be thread-safe and must not touch
          acquire state (bookkeeping belongs to [commit]). *)
  commit : 'k -> prefetched:'load Xpest_util.Loader_pool.future option -> ('est, 'err) result;
      (** One acquire step: tick, probe, await-or-load, book.  Runs on
          the calling domain, in route order, never concurrently. *)
  group_begin : 'k -> unit;
  group_end : 'k -> unit;
      (** Bracket one group's commit+execute for per-group metric
          attribution; meaningful only when loads run inline too
          (a blocking loader policy) — pass no-ops otherwise. *)
}

val run :
  loads:Xpest_util.Loader_pool.t ->
  ops:('k, 'load, 'est, 'err) ops ->
  fail:('err -> int array -> unit) ->
  execute:('est -> int array -> unit) ->
  ('k, 'q) routed ->
  unit
(** Drive the stages over one routed batch.  [fail] marks a group's
    output slots with its acquire error; [execute] runs one group's
    queries.  With a blocking loader policy this is observationally
    the sequential serving loop. *)
