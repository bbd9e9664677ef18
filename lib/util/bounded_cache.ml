(* Generic bounded cache: one hash table over intrusive doubly-linked
   recency lists, with a pluggable per-entry cost function and a
   capacity expressed in cost units.  This is the single eviction core
   behind the engine's caches — the compiled-plan cache, the path
   join's run cache and the catalog's resident summary set
   are all thin instantiations of it.

   Two replacement policies:

   - [Lru]: the classic single recency list.  Lookups promote to
     most-recent; inserting past capacity evicts from the tail.

   - [Segmented _]: a scan-resistant segmented LRU (2Q/SLRU family).
     New entries land in a probationary list; a hit on a probationary
     entry promotes it to the protected list (the "second touch" —
     first touch inserted it).  Eviction pressure lands on the
     probationary tail first, so a one-pass scan over many cold keys
     churns probation and never displaces the protected set.  The
     protected list is bounded to [protected_ratio] of the capacity;
     overflow demotes protected-tail entries back to probationary
     most-recent (demotion is not an eviction — the entry stays
     resident, it just becomes evictable again).

   Costs: [cost] maps an entry to a non-negative weight (clamped to a
   minimum of 1 so a byte-costed cache still bounds its entry count);
   the capacity bounds the sum of resident costs.  Inserting evicts
   unpinned entries until the newcomer fits; if nothing evictable
   remains (everything pinned, or the single newcomer exceeds the
   whole budget) the insert is admitted over budget rather than
   rejected — callers prefer an over-budget cache to a lost entry, and
   [stats] makes the overshoot visible.

   Pinning: [pin] marks a key as never-evictable.  Pins are sticky on
   the key, not the entry — pinning an absent key takes effect when it
   is next inserted, and survives [remove]/[clear] (a pin is policy,
   not content).  Pinned entries still count toward the budget and
   still move through the recency lists (a pinned protected entry can
   be demoted; it just cannot be evicted).

   Counters are passed in by the instrumentation site (created once at
   its module initialization) rather than created here: caches are
   instantiated per estimator, and registering fresh counters per
   instance would grow the global registry and duplicate report rows.

   A cache is not synchronized: every instance is owned by one domain
   at a time. *)

type policy = Lru | Segmented of { protected_ratio : float }

let default_protected_ratio = 0.8
let segmented = Segmented { protected_ratio = default_protected_ratio }

type segment = Probationary | Protected

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  cost : int;
  mutable seg : segment;  (* which recency list the node is on *)
  mutable prev : ('k, 'v) node option;  (* towards most-recent *)
  mutable next : ('k, 'v) node option;  (* towards least-recent *)
}

(* One intrusive recency list; [Lru] caches use only [prob]. *)
type ('k, 'v) seglist = {
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable lcost : int;  (* sum of resident node costs *)
  mutable lcount : int;  (* resident node count *)
}

type ('k, 'v) t = {
  capacity : int;  (* in cost units *)
  policy : policy;
  protected_capacity : int;  (* cost budget of the protected list; 0 under Lru *)
  cost_fn : 'k -> 'v -> int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  prob : ('k, 'v) seglist;
  prot : ('k, 'v) seglist;
  pins : ('k, unit) Hashtbl.t;
  hit : Counters.t option;
  miss : Counters.t option;
  evict : Counters.t option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable peak : int;  (* largest entry count ever reached *)
  mutable peak_cost : int;  (* largest resident cost ever reached *)
}

let default_capacity = 4096
let unit_cost _ _ = 1

let fresh_list () = { head = None; tail = None; lcost = 0; lcount = 0 }

let create ?(capacity = default_capacity) ?(policy = Lru) ?(cost = unit_cost)
    ?hit ?miss ?evict () =
  if capacity < 1 then invalid_arg "Bounded_cache.create: capacity must be >= 1";
  let protected_capacity =
    match policy with
    | Lru -> 0
    | Segmented { protected_ratio } ->
        if not (protected_ratio > 0.0 && protected_ratio < 1.0) then
          invalid_arg
            "Bounded_cache.create: protected_ratio must be in (0, 1)";
        max 1 (int_of_float (protected_ratio *. float_of_int capacity))
  in
  {
    capacity;
    policy;
    protected_capacity;
    cost_fn = cost;
    table = Hashtbl.create (min capacity 1024);
    prob = fresh_list ();
    prot = fresh_list ();
    pins = Hashtbl.create 8;
    hit;
    miss;
    evict;
    hits = 0;
    misses = 0;
    evictions = 0;
    peak = 0;
    peak_cost = 0;
  }

let list_of t node =
  match node.seg with Probationary -> t.prob | Protected -> t.prot

let total_cost t = t.prob.lcost + t.prot.lcost

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let cost t = total_cost t
let evictions t = t.evictions
let peak t = t.peak

let bump = function Some c -> Counters.incr c | None -> ()

(* Unlink a node from its recency list (it stays in the table). *)
let unlink t node =
  let l = list_of t node in
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> l.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> l.tail <- node.prev);
  node.prev <- None;
  node.next <- None;
  l.lcost <- l.lcost - node.cost;
  l.lcount <- l.lcount - 1

(* The [Some node] cell its list links [node] through (the head's, or
   its predecessor's [next]); a linked node only.  A move reuses it,
   so that a hit allocates nothing. *)
let cell_of t node =
  match node.prev with Some p -> p.next | None -> (list_of t node).head

(* Push a node onto the front of [seg]'s list through [cell], its
   [Some node]; the node must be detached.  Sets [node.seg]. *)
let push_front_cell t seg node cell =
  node.seg <- seg;
  let l = list_of t node in
  node.next <- l.head;
  node.prev <- None;
  (match l.head with Some h -> h.prev <- cell | None -> ());
  l.head <- cell;
  if l.tail = None then l.tail <- cell;
  l.lcost <- l.lcost + node.cost;
  l.lcount <- l.lcount + 1

let push_front t seg node = push_front_cell t seg node (Some node)

(* Move a linked node to the front of [seg]'s list. *)
let move_front t seg node =
  let cell = cell_of t node in
  unlink t node;
  push_front_cell t seg node cell

(* Rebalance after a promotion: the protected list sheds its tail back
   to probationary most-recent until it fits its budget.  The [> 1]
   guard keeps a single entry costlier than the whole protected budget
   resident in protected rather than looping. *)
let shed_protected t =
  while t.prot.lcost > t.protected_capacity && t.prot.lcount > 1 do
    match t.prot.tail with
    | None -> assert false
    | Some victim -> move_front t Probationary victim
  done

(* A hit: Lru promotes within the single list; Segmented promotes a
   probationary entry to protected (its second touch) and refreshes a
   protected entry in place. *)
let touch t node =
  match t.policy with
  | Lru -> (
      match t.prob.head with
      | Some h when h == node -> ()
      | _ -> move_front t Probationary node)
  | Segmented _ -> (
      match node.seg with
      | Probationary ->
          move_front t Protected node;
          shed_protected t
      | Protected -> (
          match t.prot.head with
          | Some h when h == node -> ()
          | _ -> move_front t Protected node))

(* Oldest unpinned node of one list, or None. *)
let victim_of t l =
  let rec walk = function
    | None -> None
    | Some node ->
        if Hashtbl.mem t.pins node.key then walk node.prev else Some node
  in
  walk l.tail

(* Evict one entry under insertion pressure: probationary tail first
   (under Lru that is the only list), protected tail as a last resort.
   Returns false when nothing is evictable. *)
let evict_one t =
  let victim =
    match victim_of t t.prob with
    | Some _ as v -> v
    | None -> victim_of t t.prot
  in
  match victim with
  | None -> false
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.evictions <- t.evictions + 1;
      bump t.evict;
      true

(* A hit allocates nothing. *)
let find t key =
  match Hashtbl.find t.table key with
  | node ->
      t.hits <- t.hits + 1;
      bump t.hit;
      touch t node;
      node.value
  | exception Not_found ->
      t.misses <- t.misses + 1;
      bump t.miss;
      raise Not_found

let find_opt t key =
  match find t key with v -> Some v | exception Not_found -> None

let mem t key = Hashtbl.mem t.table key

let add t key value =
  (* Replacement keeps the entry's segment: a protected entry whose
     value is refreshed stays protected. *)
  let seg =
    match Hashtbl.find_opt t.table key with
    | Some old ->
        let seg = old.seg in
        unlink t old;
        Hashtbl.remove t.table key;
        seg
    | None -> Probationary
  in
  let cost = max 1 (t.cost_fn key value) in
  while total_cost t + cost > t.capacity && evict_one t do () done;
  let node = { key; value; cost; seg = Probationary; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t seg node;
  if node.seg = Protected then shed_protected t;
  if Hashtbl.length t.table > t.peak then t.peak <- Hashtbl.length t.table;
  if total_cost t > t.peak_cost then t.peak_cost <- total_cost t

let find_or_add t key compute =
  match find t key with
  | v -> v
  | exception Not_found ->
      let v = compute key in
      add t key v;
      v

(* Explicit removal (catalog resident-set invalidation); not an
   eviction, so the eviction counters stay untouched. *)
let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key

let clear t =
  Hashtbl.reset t.table;
  t.prob.head <- None;
  t.prob.tail <- None;
  t.prob.lcost <- 0;
  t.prob.lcount <- 0;
  t.prot.head <- None;
  t.prot.tail <- None;
  t.prot.lcost <- 0;
  t.prot.lcount <- 0

let pin t key = Hashtbl.replace t.pins key ()
let unpin t key = Hashtbl.remove t.pins key
let pinned t key = Hashtbl.mem t.pins key

(* Keys from most- to least-recently used; under Segmented the
   protected (hot) list comes first, then probationary — the order an
   eviction walk would spare them, longest-lived first. *)
let keys_by_recency t =
  let rec walk acc = function
    | None -> acc
    | Some node -> walk (node.key :: acc) node.next
  in
  List.rev (walk (walk [] t.prot.head) t.prob.head)

let fold f t init =
  Hashtbl.fold (fun key node acc -> f key node.value acc) t.table init

type stats = {
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

let stats t =
  let pinned_resident =
    Hashtbl.fold
      (fun key () acc -> if Hashtbl.mem t.table key then acc + 1 else acc)
      t.pins 0
  in
  {
    s_capacity = t.capacity;
    s_length = Hashtbl.length t.table;
    s_peak = t.peak;
    s_evictions = t.evictions;
    s_cost = total_cost t;
    s_peak_cost = t.peak_cost;
    s_hits = t.hits;
    s_misses = t.misses;
    s_probationary = t.prob.lcount;
    s_protected = t.prot.lcount;
    s_pinned = pinned_resident;
  }
