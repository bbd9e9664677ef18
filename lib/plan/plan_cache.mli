(** Bounded cache for the estimation engine — a thin instantiation of
    {!Xpest_util.Bounded_cache} with unit cost (capacity in entries)
    and plain-LRU replacement.

    Backs the estimator's compiled-plan cache; the path join's run
    cache instantiates [Bounded_cache] directly.  Lookups
    promote an entry to most-recently-used and inserting past capacity
    evicts the least-recently-used entry — bit-identical to the
    standalone LRU this module used to carry.  All operations are
    O(1).

    [t] and [stats] are transparently [Bounded_cache]'s, so call sites
    can mix the two modules freely (e.g. the catalog's byte-budgeted
    resident set reports through the same stats record).

    Hit/miss/evict observability counters are supplied by the caller
    (created once at its module initialization, see
    {!Xpest_util.Counters}); caches themselves are per-estimator
    instances, so creating counters here would duplicate registry
    entries.

    A cache is not synchronized: use it from one domain at a time. *)

type ('k, 'v) t = ('k, 'v) Xpest_util.Bounded_cache.t

val default_capacity : int
(** 4096 entries — documented in DESIGN.md ("Estimation engine"). *)

val create :
  ?capacity:int ->
  ?hit:Xpest_util.Counters.t ->
  ?miss:Xpest_util.Counters.t ->
  ?evict:Xpest_util.Counters.t ->
  unit ->
  ('k, 'v) t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Total evictions over the cache's lifetime (counted even when the
    global counter switch is off). *)

val peak : ('k, 'v) t -> int
(** Largest occupancy the cache ever reached — the working-set size a
    capacity must cover to avoid evictions (the catalog reports its
    shared plan cache's in [Catalog.stats]). *)

type stats = Xpest_util.Bounded_cache.stats = {
  s_capacity : int;
  s_length : int;
  s_peak : int;
  s_evictions : int;
  s_cost : int;
  s_peak_cost : int;
  s_hits : int;
  s_misses : int;
  s_probationary : int;
  s_protected : int;
  s_pinned : int;
}
(** One cache's working-set report, re-exported from
    {!Xpest_util.Bounded_cache.stats}; all fields are tracked
    unconditionally (no counter enablement needed).  Under the default
    unit cost [s_cost] equals [s_length]. *)

val stats : ('k, 'v) t -> stats

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Bumps the hit/miss counter and promotes on hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or replaces) as most-recently-used, evicting the LRU
    entry when at capacity. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** The cached value, or the computed one inserted as
    most-recently-used. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop one entry (no-op if absent).  Deliberate invalidation — the
    catalog dropping a resident summary it no longer trusts — so it
    does not count as an eviction. *)

val clear : ('k, 'v) t -> unit

val keys_by_recency : ('k, 'v) t -> 'k list
(** Keys from most- to least-recently used (test/debug aid). *)
