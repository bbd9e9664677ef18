(** Admission control, deadline budgets, and load shedding for the
    serving catalog.

    An [Admission.t] sits on the catalog's single-owner commit path
    and answers one question per query group: given the logical clock
    and whether serving this key needs a cold load, may it run now?
    Refusals come back as typed errors
    ({!Xpest_util.Xpest_error.Deadline_exceeded} /
    {!Xpest_util.Xpest_error.Overloaded}) before any I/O happens, so
    an overloaded catalog fails fast instead of queueing itself to
    death.  The controller only decides; what a refused group gets is
    the catalog's business, and it treats a shed exactly like a failed
    acquire: down the degradation ladder when the catalog holds a
    sketch, the typed error otherwise (see {!Xpest_catalog.Catalog}).

    {2 Cost model}

    Costs are modeled on the catalog's logical clock: a resident hit
    costs 1 tick, a cold load costs {!load_cost} ticks
    (8 — a load verifies, decodes, and possibly evicts; it is
    roughly an order of magnitude heavier than a cache probe).  Each
    batch gets {!config.deadline} ticks of budget; a query whose
    modeled cost exceeds the remaining budget is shed with
    [Deadline_exceeded] carrying exactly how short the budget fell.
    {!config.max_queued_loads} bounds the cold loads one batch may
    admit — the load-queue pressure valve.

    {2 Circuit breaker}

    {!config.breaker_threshold} consecutive loader failures — or
    {!breaker_saturation} consecutive batches that hit the
    queue bound — open a circuit breaker over the loader seam.  While
    open, cold loads are shed ([Overloaded]) but resident keys keep
    serving.  After a cooldown measured on the logical clock (base 16
    ticks, doubling per reopen, capped at 256 — deliberately the same
    constants as per-key quarantine), one half-open probe load is
    admitted: success closes the breaker, failure reopens it with a
    doubled cooldown.  Because shed groups never advance the catalog's
    logical clock, the cooldown also elapses on the breaker's own
    refusals — otherwise a workload the open breaker sheds entirely
    would freeze the clock and livelock the breaker open.

    {2 Determinism}

    Decisions are a pure function of (configuration, logical clock,
    decision order).  The commit path consults the controller in
    routed order on one domain; nothing here reads wall time, live
    queue depths, or scheduler state.  Hence the contract the
    differential twins enforce: a shed schedule is bit-identical
    across load-domain counts, and an inactive (or infinite-budget)
    controller leaves the catalog's behavior byte-identical to having
    no controller at all. *)

type config = {
  deadline : int option;
      (** per-batch tick budget; [None] = unbounded *)
  max_queued_loads : int option;
      (** cold loads admitted per batch; [None] = unbounded *)
  breaker_threshold : int option;
      (** consecutive loader failures that open the breaker; [None]
          disables the breaker entirely *)
}

val unlimited : config
(** No deadline, no queue bound, breaker disabled.  An {!active}-false
    controller is a guaranteed no-op. *)

val load_cost : int
(** 8 modeled ticks per cold load. *)

val breaker_saturation : int
(** 4 consecutive queue-saturated batches open the breaker (only when
    the breaker is enabled). *)

val breaker_cooldown_base : int
val breaker_cooldown_max : int
(** 16 and 256 logical ticks — the quarantine backoff constants. *)

type t

val create : config -> t
(** @raise Invalid_argument on malformed bounds (negative budgets,
    [breaker_threshold < 1]). *)

val active : t -> bool
(** Any limit set (deadline, queue bound, or breaker).  When [false],
    {!decide} admits everything without touching any state — the
    bit-identity fast path. *)

(** {2 The decision path} *)

val batch_begin : t -> unit
(** Reset the per-batch ledger (deadline budget, admitted-load count,
    saturation flag).  Call once at the top of every batch. *)

type decision =
  | Admit of { probe : bool }
      (** serve it; [probe] marks the breaker's half-open probe load
          (its outcome decides whether the breaker closes) *)
  | Shed of Xpest_util.Xpest_error.t
      (** refuse it, with the typed reason ([Deadline_exceeded] or
          [Overloaded]); no I/O was attempted and no per-key health
          was touched *)

val decide : t -> clock:int -> key:string -> would_load:bool -> decision
(** The stage-boundary check.  [would_load] is the caller's exact
    prediction of whether serving [key] requires a cold load (the
    catalog computes it from residency, quarantine, and prefetch
    state).  Checks run in order: deadline budget, queue bound,
    breaker.  Admission spends the modeled cost from the batch
    budget; shedding spends nothing. *)

val charge_sketch_answer : t -> unit
(** Spend one budget tick for a query answered from the catalog's
    sketch tier — the same cost as a resident hit.  Sketch answers
    never occupy the load queue and never consult the breaker, so the
    degradation ladder's last rung can never itself be shed; the
    budget may go (deterministically) negative, which only makes later
    {!decide}s refuse sooner.  No-op when admission is inactive. *)

val note_load_result : t -> clock:int -> ok:bool -> unit
(** Feed every admitted cold load's outcome (after retries) to the
    breaker: failures count toward {!config.breaker_threshold},
    success resets the streak, and a probe's outcome closes or
    reopens the breaker. *)

val batch_end : t -> clock:int -> unit
(** Close the batch: update the consecutive-saturated-batch streak
    and open the breaker if it reached {!breaker_saturation}. *)

val provable : t -> groups_before:int -> bool
(** Would a cold load for a group with [groups_before] uncommitted
    groups ordered ahead of it be admitted {e even in the worst
    case} — every earlier group spending a full load, occupying a
    queue slot, and failing?  The prefetch planner only prefetches
    provable groups: a prefetched-then-shed load would consume keyed
    fault-injector attempts for a discarded result and break
    bit-identity across load-domain counts.  Conservative:
    non-provable groups simply load inline at commit. *)

(** {2 Observability and persistence} *)

type breaker_view = {
  state : [ `Closed | `Open | `Half_open ];
  remaining_ticks : int;
      (** ticks until a half-open probe is allowed (0 unless [`Open]) *)
  consecutive_failures : int;
  cooldown : int;  (** the next open's cooldown length *)
}

val breaker : t -> clock:int -> breaker_view
(** Snapshot for stats, [catalog info --health], and the health
    file.  [remaining_ticks] is relative to [clock], matching how
    quarantine deadlines persist. *)

val restore_breaker : t -> clock:int -> breaker_view -> unit
(** Re-anchor a persisted breaker snapshot on this catalog's clock
    (the health-file load path).  Out-of-range fields are clamped. *)

type stats = {
  s_deadline_sheds : int;
  s_overload_sheds : int;  (** queue-bound sheds *)
  s_breaker_sheds : int;
  s_breaker_opens : int;
  s_probes : int;
}

val stats : t -> stats
(** Lifetime counts of this controller, kept unconditionally (no
    counter enablement needed).  They are the only record of sheds,
    breaker opens and probes: admission bumps no process-global
    counter. *)

val total_sheds : stats -> int
