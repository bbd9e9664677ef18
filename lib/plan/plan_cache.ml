module Bounded_cache = Xpest_util.Bounded_cache

(* Thin instantiation of the generic cost-aware cache core: unit cost
   (capacity in entries) and plain-LRU replacement by default, which
   is bit-identical to the historical standalone implementation this
   module used to carry — same eviction order, same counters, same
   find_or_add contract.  The whole API is a
   re-export; [t] and [stats] are transparently [Bounded_cache]'s, so
   call sites can mix the two modules freely. *)

type ('k, 'v) t = ('k, 'v) Bounded_cache.t

type stats = Bounded_cache.stats = {
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

let default_capacity = Bounded_cache.default_capacity

let create ?(capacity = default_capacity) ?hit ?miss ?evict () =
  (* validated here too so callers keep seeing this module's name in
     the historical error message *)
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  Bounded_cache.create ~capacity ?hit ?miss ?evict ()

let capacity = Bounded_cache.capacity
let length = Bounded_cache.length
let evictions = Bounded_cache.evictions
let peak = Bounded_cache.peak
let stats = Bounded_cache.stats
let find_opt = Bounded_cache.find_opt
let add = Bounded_cache.add
let find_or_add = Bounded_cache.find_or_add
let remove = Bounded_cache.remove
let clear = Bounded_cache.clear
let keys_by_recency = Bounded_cache.keys_by_recency
