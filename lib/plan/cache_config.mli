(** Capacity and policy knobs for the estimation engine's bounded
    caches.

    The engine keeps two caches per estimator: the compiled-plan cache
    and the path join's join-result (run) cache.  Both are keyed on
    queries or query shapes and grow with the workload, but they are
    sized separately: the plan cache can be shared across a catalog's
    estimators, the run cache never is.  {!default} preserves the
    historical shared default ({!Plan_cache.default_capacity} for
    both).

    Two policy knobs ride along for the {!Xpest_util.Bounded_cache}
    core: [segmented] switches the engine caches from plain LRU to the
    scan-resistant segmented policy (estimates are bit-identical
    either way — the policy only changes which entries stay resident),
    and [resident_bytes] gives the catalog's resident summary set a
    byte budget (costed by [Summary.size_bytes]) instead of the
    count-based bound. *)

type t = {
  plan : int;  (** compiled-plan cache ([Estimator]) *)
  run : int;  (** join-result cache ([Path_join]) *)
  segmented : bool;
      (** segmented-LRU policy for the two engine caches (default
          [false]: historical plain LRU) *)
  resident_bytes : int option;
      (** catalog resident-set byte budget; [None] (default) keeps the
          count-based [resident_capacity] bound *)
}

val default : t
(** Every capacity = {!Plan_cache.default_capacity} (4096), plain LRU,
    no byte budget. *)

val uniform : int -> t
(** One capacity for both caches — the old [?cache_capacity]
    behavior.  @raise Invalid_argument if [capacity < 1]. *)

val for_dataset : ?bench_json:string -> string -> t
(** Tuned capacities for the benchmark datasets ([ssplays], [dblp],
    [xmark]; case-insensitive), sized from the cache working-set peaks
    recorded in [BENCH_engine.json] — each capacity is the next power
    of two above twice the observed peak (floored at 512).

    With [?bench_json] the [plan] and [run] peaks are read from that
    live bench file and the capacities derived from them; any other
    cache the file lists (older files also carry [rel] and [chain]) is
    ignored.  When the file is missing, malformed, or lacks either
    peak for the dataset, the built-in table
    (frozen from the scale-0.1 run) is the fallback — a half-parsed
    file never produces half-tuned capacities.  Unknown names get
    {!default}. *)
