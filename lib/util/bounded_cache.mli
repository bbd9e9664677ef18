(** Generic bounded cache — the single eviction core behind the
    engine's caches.

    One hash table over intrusive doubly-linked recency lists, a
    pluggable per-entry cost function, and a capacity expressed in
    cost units (entries with the default unit cost, bytes with e.g.
    [Summary.size_bytes]).  All operations are O(1) amortized.

    Two replacement policies:

    - {!Lru}: single recency list; lookups promote to most-recent,
      inserting past capacity evicts the least-recent.
    - {!Segmented}: scan-resistant segmented LRU (2Q/SLRU family).
      New entries are probationary; a hit promotes to the protected
      list (2Q-style promotion on the second touch).  Eviction
      pressure hits the probationary tail first, so a one-pass scan
      over cold keys cannot displace the protected working set.  The
      protected list is bounded to [protected_ratio] of capacity;
      overflow demotes its tail back to probationary (not an
      eviction — the entry stays resident).

    Pinning: {!pin} marks a key never-evictable.  Pins are sticky on
    the key — pinning an absent key takes effect on its next insert
    and survives {!remove}/{!clear}.  Pinned entries still count
    toward the budget.  If an insert finds nothing evictable
    (everything pinned, or a single entry exceeding the budget) it is
    admitted over budget rather than rejected; {!stats} exposes the
    overshoot via [s_cost].

    Hit/miss/evict observability counters are supplied by the caller
    (created once at its module initialization, see
    {!Xpest_util.Counters}); caches themselves are per-estimator
    instances, so creating counters here would duplicate registry
    entries.  Lifetime hit/miss/eviction totals are additionally
    tracked unconditionally in {!stats}.

    A cache is not synchronized: use it from one domain at a time. *)

type policy =
  | Lru
  | Segmented of { protected_ratio : float }
      (** [protected_ratio] is the fraction of the capacity the
          protected segment may hold, in (0, 1). *)

val default_protected_ratio : float
(** 0.8 — documented in DESIGN.md ("Memory model & eviction"). *)

val segmented : policy
(** [Segmented { protected_ratio = default_protected_ratio }]. *)

type ('k, 'v) t

val default_capacity : int
(** 4096 cost units — documented in DESIGN.md ("Estimation engine"). *)

val create :
  ?capacity:int ->
  ?policy:policy ->
  ?cost:('k -> 'v -> int) ->
  ?hit:Counters.t ->
  ?miss:Counters.t ->
  ?evict:Counters.t ->
  unit ->
  ('k, 'v) t
(** [policy] defaults to {!Lru}, [cost] to [fun _ _ -> 1] (capacity in
    entries).  Cost results are clamped to
    a minimum of 1 so a byte-costed cache still bounds its entry
    count.
    @raise Invalid_argument if [capacity < 1] or [protected_ratio] is
    outside (0, 1). *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val cost : ('k, 'v) t -> int
(** Sum of resident entry costs; at most [capacity] unless pins or a
    single over-budget entry forced an overshoot. *)

val evictions : ('k, 'v) t -> int
(** Total evictions over the cache's lifetime (counted even when the
    global counter switch is off).  Demotions from protected to
    probationary are not evictions. *)

val peak : ('k, 'v) t -> int
(** Largest entry count the cache ever reached — the working-set size
    a capacity must cover to avoid evictions. *)

type stats = {
  s_capacity : int;  (** capacity in cost units *)
  s_length : int;  (** resident entries *)
  s_peak : int;  (** largest entry count ever *)
  s_evictions : int;  (** lifetime evictions *)
  s_cost : int;  (** resident cost (= entries under unit cost) *)
  s_peak_cost : int;  (** largest resident cost ever *)
  s_hits : int;  (** lifetime lookup hits *)
  s_misses : int;  (** lifetime lookup misses *)
  s_probationary : int;  (** entries in the probationary segment *)
  s_protected : int;  (** entries in the protected segment (0 under Lru) *)
  s_pinned : int;  (** resident entries currently pinned *)
}
(** One cache's working-set report; all fields are tracked
    unconditionally (no counter enablement needed). *)

val stats : ('k, 'v) t -> stats

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Bumps the hit/miss counter and promotes on hit (to most-recent
    under {!Lru}; probationary entries to protected under
    {!Segmented}). *)

val find : ('k, 'v) t -> 'k -> 'v
(** {!find_opt} without the option: a hit allocates nothing.
    @raise Not_found on a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Residency probe; no promotion, no counters. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts as probationary most-recently-used (replacing an existing
    entry keeps its segment), evicting unpinned entries — probationary
    tail first — until the newcomer fits the budget. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** {!find}, or on a miss [compute key] inserted by {!add}. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop one entry (no-op if absent).  Deliberate invalidation — the
    catalog dropping a resident summary it no longer trusts — so it
    does not count as an eviction.  Does not forget a pin. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry; pins survive (a pin is policy, not content). *)

val pin : ('k, 'v) t -> 'k -> unit
(** Mark [key] never-evictable (sticky; applies to the current and any
    future entry under the key). *)

val unpin : ('k, 'v) t -> 'k -> unit

val pinned : ('k, 'v) t -> 'k -> bool

val keys_by_recency : ('k, 'v) t -> 'k list
(** Keys from most- to least-recently used; under {!Segmented} the
    protected segment first (MRU to LRU), then probationary
    (test/debug aid — the reverse of eviction order). *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Fold over resident entries in unspecified order. *)
