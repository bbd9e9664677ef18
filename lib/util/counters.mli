(** Process-wide named counters and wall-clock timers for estimator
    observability.

    Instrumentation sites (cache lookups in the path join, equation
    dispatch in the estimator, synopsis build/load) create their
    counters once at module initialization and bump them on every
    event.  Counting is gated on a global flag that defaults to off:
    a disabled bump is one branch, so the hot path pays nothing
    measurable when observability is not requested.

    Counters are process-global and domain-safe: counts are atomics
    and timers accumulate under a per-timer mutex, so increments
    racing in from the catalog's loader domains are never lost or
    torn.  What is {e not} per-domain is attribution — see the caveat
    on {!delta_between}.  Intended use stays the harness/CLI pattern:
    enable, run, snapshot, report. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_enabled : (unit -> 'a) -> 'a
(** Reset all counters, run the thunk with counting enabled, restore
    the previous enablement (counter values survive for reading). *)

val reset : unit -> unit
(** Zero every registered counter and timer. *)

(** {1 Counters} *)

type t

val create : string -> t
(** Register a counter under a dotted name, e.g.
    ["path_join.run_cache.hit"].  Call once per site, at module
    initialization. *)

val incr : t -> unit
(** Add 1 when enabled; no-op when disabled.  Atomic: concurrent
    increments from several domains all land. *)

val add : t -> int -> unit

val name : t -> string
val value : t -> int

(** {1 Timers} *)

type timer

val create_timer : string -> timer
val record : timer -> float -> unit
(** Accumulate an externally measured duration (seconds) and one call. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its wall-clock duration when enabled
    (exceptions still record).  When disabled, just runs the thunk —
    the clock is never read. *)

val timer_name : timer -> string
val timer_calls : timer -> int
val timer_seconds : timer -> float

(** {1 Snapshots} *)

val counters : unit -> (string * int) list
(** Non-zero counters as [(name, count)], sorted by name. *)

type snapshot = private (string * int) list
(** Values of {e every} registered counter (zeroes included) at one
    point in time, in registry order: newest first, so a later
    snapshot lists the counters created in between ahead of an earlier
    one's. *)

val snapshot : unit -> snapshot

val delta_between : snapshot -> snapshot -> (string * int) list
(** [delta_between before after]: per-counter increments between the
    two snapshots, non-zero entries only, sorted by name.  Linear in
    the registry: the two snapshots are walked in lockstep (counters
    created in between head [after] and count from 0), not looked up
    by name — a per-name lookup over the ~50 registered counters cost
    ~2.7k string comparisons a diff.

    {b Cost of attribution.}  A snapshot allocates one pair per
    registered counter, so bracketing work costs two snapshots and a
    diff (tens of µs per bracket on the serving path); the catalog
    brackets batch groups only while counting is on, when a bracket
    can see anything move.

    {b Caveat — counters are process-global.}  Two live estimators
    bump the same counters, so a raw {!counters} snapshot conflates
    their metrics.  A delta is attributable to one component only when
    that component's work ran {e sequentially} between [before] and
    [after] — which is how the catalog's estimator pool uses it: it
    snapshots around each per-summary batch group, so the per-summary
    rows in its reports are exact even though the underlying counters
    are shared.

    What is counted here is library-wide instrumentation (estimator,
    path join, summary decode, loader pool, fault injection).  A
    component that keeps its own stats record — a catalog, its
    admission controller, a {!Bounded_cache}'s totals — counts its
    events there, per instance and whether or not counting is on, and
    does not mirror them into a counter. *)

val timers : unit -> (string * int * float) list
(** Non-zero timers as [(name, calls, seconds)], sorted by name. *)
