(** Capacity knobs for the estimation engine's bounded caches.

    The engine keeps two caches per estimator: the compiled-plan cache
    and the path join's join-result (run) cache.  Both are keyed on
    queries or query shapes and grow with the workload, but they are
    sized separately: the plan cache can be shared across a catalog's
    estimators, the run cache never is.  {!default} preserves the
    historical shared default ({!Xpest_util.Bounded_cache.default_capacity} for
    both).  Both engine caches are plain LRU.

    [resident_bytes] gives the catalog's resident summary set a byte
    budget (costed by [Summary.size_bytes]) instead of the count-based
    bound. *)

type t = {
  plan : int;  (** compiled-plan cache ([Estimator]) *)
  run : int;  (** join-result cache ([Path_join]) *)
  resident_bytes : int option;
      (** catalog resident-set byte budget; [None] (default) keeps the
          count-based [resident_capacity] bound *)
}

val default : t
(** Every capacity = {!Xpest_util.Bounded_cache.default_capacity} (4096), no byte
    budget. *)

val for_dataset : string -> t
(** Tuned capacities for the benchmark datasets ([ssplays], [dblp],
    [xmark]; case-insensitive): each capacity is a power of two above
    the cache's working-set peak observed on the dataset's generated
    workload at scale 0.1 (the table, with its peaks, is in
    [cache_config.ml]).  Unknown names get {!default}. *)
