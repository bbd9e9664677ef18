module Bitvec = Xpest_util.Bitvec
module Counters = Xpest_util.Counters
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Encoding_table = Xpest_encoding.Encoding_table
module Plan = Xpest_plan.Plan
module Bounded_cache = Xpest_util.Bounded_cache
module Cache_config = Xpest_plan.Cache_config

(* Observability: run-cache effectiveness and pruning volume of the
   join.  All no-ops unless [Counters.set_enabled true].  Created once
   here and handed to the per-estimator run cache (see
   Xpest_util.Bounded_cache). *)
let c_run_hit = Counters.create "path_join.run_cache.hit"
let c_run_miss = Counters.create "path_join.run_cache.miss"
let c_run_evict = Counters.create "path_join.run_cache.evict"
let c_chain_pruned = Counters.create "path_join.pruned.chain_rows"
let c_anchor_pruned = Counters.create "path_join.pruned.anchor_rows"
let c_fixpoint_pruned = Counters.create "path_join.pruned.fixpoint_rows"
let t_run = Counters.create_timer "path_join.run_uncached"
let t_masks = Counters.create_timer "path_join.masks"
let t_fixpoint = Counters.create_timer "path_join.fixpoint"

(* A row entry: a pid, its frequency estimate, and its set bits (the
   paths it holds), listed once when the tag's row is built.  The bits
   are held as floats, exact far beyond any path count, because the GC
   does not scan a float array.  Held as an int array instead, they
   cost the all-cached serve-hot workload ~3% of its qps and p99, and
   xmark-cold ~8% of its qps. *)
type entry = { pid : Bitvec.t; freq : float; bits : float array }

let nth_bit bits b = int_of_float bits.(b)

type jnode = {
  tag : string;
  position : Pattern.position;
  mutable row : entry array;
}

type result = { nodes : jnode array }

(* A pid is a bitvector over root-to-leaf paths (bit b = the path with
   encoding b + 1), so "a per-path property holds on some path of this
   pid" is one [Bitvec.intersects pid mask] against the mask of paths
   where it holds.  Masks are computed bit-parallel over all paths at
   once from the depth index below, which is built once per summary
   and only read afterwards. *)
type t = {
  summary : Summary.t;
  chain_pruning : bool;
  tag_id : (string, int) Hashtbl.t;  (* interned tags *)
  depths : int;  (* the longest path's length *)
  at_depth : Bitvec.t array array;
      (* tag id -> depth -> the paths carrying the tag at that depth
         (the root at depth 0); [none] where no path does *)
  none : Bitvec.t;  (* the empty path set *)
  rows : entry array Lazy.t array;
      (* tag id -> its p-histogram row, never mutated (pruning copies).
         Built on first use: every catalog load creates a join, and a
         query touches few tags. *)
  mutable scratch : int array;
      (* the fixpoint's path slices and row sets, reused by every edge
         visit so that a visit allocates nothing in proportion to the
         path count.  Forcing [rows] and writing [scratch] are safe
         because a join serves one domain at a time, like its run
         cache (parallel batches give each worker its own
         [Estimator.sibling]). *)
  (* one estimate joins the same shape repeatedly (counterpart,
     simplified counterpart, Q'), and join output only depends on the
     shape given a fixed summary *)
  run_cache : (Pattern.shape, result) Bounded_cache.t;
}

let create ?(chain_pruning = true) ?(config = Cache_config.default) summary =
  (* Cached values are pure functions of (summary, key), so the
     replacement policy only decides which entries stay resident —
     estimates are bit-identical under either policy. *)
  let policy =
    if config.Cache_config.segmented then Bounded_cache.segmented
    else Bounded_cache.Lru
  in
  let tag_id = Hashtbl.create 64 in
  let intern tag =
    match Hashtbl.find_opt tag_id tag with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tag_id in
        Hashtbl.add tag_id tag id;
        id
  in
  Array.iter (fun tag -> ignore (intern tag)) (Summary.tags summary);
  let paths =
    List.map (List.map intern) (Encoding_table.paths (Summary.encoding_table summary))
  in
  let npaths = List.length paths in
  let depths = List.fold_left (fun m path -> max m (List.length path)) 0 paths in
  let tags = Array.make (Hashtbl.length tag_id) "" in
  Hashtbl.iter (fun tag id -> tags.(id) <- tag) tag_id;
  (* tag id -> depth -> per-path flags, allocated at the first path
     carrying the tag at that depth *)
  let on = Array.map (fun _ -> Array.make depths [||]) tags in
  List.iteri
    (fun bit path ->
      List.iteri
        (fun d id ->
          if Array.length on.(id).(d) = 0 then on.(id).(d) <- Array.make npaths false;
          on.(id).(d).(bit) <- true)
        path)
    paths;
  let none = Bitvec.zero npaths in
  let entry (pid, freq) =
    { pid; freq; bits = Array.of_list (List.map float_of_int (Bitvec.set_bits pid)) }
  in
  {
    summary;
    chain_pruning;
    tag_id;
    depths;
    at_depth =
      Array.map
        (Array.map (fun flags -> if Array.length flags = 0 then none else Bitvec.of_bits flags))
        on;
    none;
    rows =
      Array.map
        (fun tag -> lazy (Array.of_list (List.map entry (Summary.tag_pids summary tag))))
        tags;
    scratch = [||];
    run_cache =
      Bounded_cache.create ~capacity:config.Cache_config.run ~policy
        ~hit:c_run_hit ~miss:c_run_miss ~evict:c_run_evict ();
  }

let cache_stats t = [ ("run", Bounded_cache.stats t.run_cache) ]

(* A tag outside the summary gets id -1: it is on no path and has no
   pids. *)
let id_of t tag = Option.value ~default:(-1) (Hashtbl.find_opt t.tag_id tag)

(* The paths carrying tag [id] at depth [d]; empty out of range. *)
let at t id d = if id < 0 || d < 0 || d >= t.depths then t.none else t.at_depth.(id).(d)

(* Path-set intersection and union.  Every empty set in the mask
   computations is [t.none] itself, so most (tag, depth) pairs, which
   no path carries, cost one physical comparison. *)
let inter t a b =
  if a == t.none || b == t.none then t.none
  else
    let c = Bitvec.logand a b in
    if Bitvec.is_zero c then t.none else c

let union t a b = if a == t.none then b else if b == t.none then a else Bitvec.logor a b

(* Per chain node i, the paths into which the whole chain embeds with
   node i somewhere on them.  Child steps demand adjacent depths,
   descendant steps any deeper one; an anchored head must sit at depth
   0.  The forward/backward embedding recurrence runs over depths, one
   path set per (node, depth), so every path is decided at once. *)
let chain_masks t (c : Plan.chain) =
  let steps = Array.of_list c.Plan.steps in
  let k = Array.length steps and depths = t.depths in
  let ids = Array.map (fun (_, tag) -> id_of t tag) steps in
  (* forward.(i).(d): prefix s_0..s_i embeds with s_i at depth d *)
  let forward = Array.make_matrix k depths t.none in
  for i = 0 to k - 1 do
    let above = ref t.none (* forward.(i - 1) at some depth < d *) in
    for d = 0 to depths - 1 do
      forward.(i).(d) <-
        (if i = 0 then if (not c.Plan.anchored) || d = 0 then at t ids.(0) d else t.none
         else
           match fst steps.(i) with
           | Pattern.Child ->
               if d = 0 then t.none else inter t (at t ids.(i) d) forward.(i - 1).(d - 1)
           | Pattern.Descendant -> inter t (at t ids.(i) d) !above);
      if i > 0 then above := union t !above forward.(i - 1).(d)
    done
  done;
  (* backward.(i).(d): suffix s_i..s_{k-1} embeds with s_i at depth d *)
  let backward = Array.make_matrix k depths t.none in
  for i = k - 1 downto 0 do
    let below = ref t.none (* backward.(i + 1) at some depth > d *) in
    for d = depths - 1 downto 0 do
      backward.(i).(d) <-
        (if i = k - 1 then at t ids.(i) d
         else
           match fst steps.(i + 1) with
           | Pattern.Child ->
               if d + 1 = depths then t.none
               else inter t (at t ids.(i) d) backward.(i + 1).(d + 1)
           | Pattern.Descendant -> inter t (at t ids.(i) d) !below);
      if i < k - 1 then below := union t !below backward.(i + 1).(d)
    done
  done;
  Array.init k (fun i ->
      let mask = ref t.none in
      for d = 0 to depths - 1 do
        mask := union t !mask (inter t forward.(i).(d) backward.(i).(d))
      done;
      !mask)

(* The paths on which [anc] stands in [axis]'s relation to [desc]:
   immediately above it for a child step (∨_d at(anc, d-1) ∧
   at(desc, d)), anywhere above it for a descendant step
   (∨_d (∨_{p<d} at(anc, p)) ∧ at(desc, d)). *)
let edge_mask t ~axis ~anc ~desc =
  let a = id_of t anc and b = id_of t desc in
  let mask = ref t.none and above = ref t.none in
  for d = 0 to t.depths - 1 do
    let over =
      match (axis : Pattern.axis) with Child -> at t a (d - 1) | Descendant -> !above
    in
    mask := union t !mask (inter t over (at t b d));
    above := union t !above (at t a d)
  done;
  !mask

(* Row sets: bit j of a set stands for row entry j, [slice_bits]
   entries per word.  They live in [t.scratch]. *)
let slice_bits = 62
let slice_words n = (n + slice_bits - 1) / slice_bits
let mem s at j = s.(at + (j / slice_bits)) land (1 lsl (j mod slice_bits)) <> 0
let add s at j =
  s.(at + (j / slice_bits)) <- s.(at + (j / slice_bits)) lor (1 lsl (j mod slice_bits))

(* [t.scratch], at least [size] words long, its first [size] zeroed. *)
let scratch t size =
  if Array.length t.scratch < size then t.scratch <- Array.make size 0
  else Array.fill t.scratch 0 size 0;
  t.scratch

(* Keep the row entries in the row set at [s.(at ..)], in order, and
   count the dropped ones; true iff any was dropped.  A row that loses
   nothing is not copied. *)
let prune counter node s at =
  let row = node.row in
  let kept = ref 0 in
  for j = 0 to Array.length row - 1 do
    if mem s at j then incr kept
  done;
  let dropped = Array.length row - !kept in
  Counters.add counter dropped;
  if dropped > 0 then begin
    let next = ref 0 in
    node.row <-
      Array.init !kept (fun _ ->
          while not (mem s at !next) do incr next done;
          incr next;
          row.(!next - 1))
  end;
  dropped > 0

(* Prune [node] to the entries whose pid satisfies [keep]. *)
let filter t counter node keep =
  let row = node.row in
  let s = scratch t (slice_words (Array.length row)) in
  Array.iteri (fun j e -> if keep e.pid then add s 0 j) row;
  ignore (prune counter node s 0)

(* Write into [s.(at ..)] the x entries whose pid holds every path in
   [bits], the AND of those paths' slices (slice p at [p * w]); true
   iff there is one. *)
let partners s ~w ~nx ~at bits =
  for i = 0 to w - 1 do
    s.(at + i) <- (1 lsl min slice_bits (nx - (i * slice_bits))) - 1
  done;
  let any = ref (w > 0) and b = ref 0 in
  while !any && !b < Array.length bits do
    let slice = nth_bit bits !b * w and acc = ref 0 in
    for i = 0 to w - 1 do
      let v = s.(at + i) land s.(slice + i) in
      s.(at + i) <- v;
      acc := !acc lor v
    done;
    any := !acc <> 0;
    incr b
  done;
  !any

(* One fixpoint visit of the edge (x, y) with relation mask [rel]: a y
   pid survives iff it intersects [rel] and some x pid contains it, an
   x pid iff it contains a surviving y pid.  Instead of testing pairs,
   [x.row] is transposed into one slice per path (bit j set iff entry
   j's pid holds the path), so a y pid's partners are the AND of its
   paths' slices, and x's survivors the OR of the partner sets of the
   surviving y pids.  True iff anything was pruned. *)
let visit t x y rel =
  let nx = Array.length x.row and ny = Array.length y.row in
  let w = slice_words nx in
  (* scratch: the slices, then a partner set, x's survivors, y's *)
  let partner = Bitvec.width t.none * w in
  let keep_x = partner + w in
  let keep_y = keep_x + w in
  let size = keep_y + slice_words ny in
  let s = scratch t size in
  for j = 0 to nx - 1 do
    let word = j / slice_bits and bit = 1 lsl (j mod slice_bits) in
    let bits = x.row.(j).bits in
    for b = 0 to Array.length bits - 1 do
      let o = (nth_bit bits b * w) + word in
      s.(o) <- s.(o) lor bit
    done
  done;
  for j = 0 to ny - 1 do
    let e = y.row.(j) in
    if Bitvec.intersects e.pid rel && partners s ~w ~nx ~at:partner e.bits then begin
      add s keep_y j;
      for i = 0 to w - 1 do
        s.(keep_x + i) <- s.(keep_x + i) lor s.(partner + i)
      done
    end
  done;
  let pruned_y = prune c_fixpoint_pruned y s keep_y in
  let pruned_x = prune c_fixpoint_pruned x s keep_x in
  pruned_y || pruned_x

(* Execute a compiled join spec (the chain/edge extraction happened at
   Plan compile time). *)
let run_uncached t (spec : Plan.join_spec) =
  let nodes =
    Array.map
      (fun (n : Plan.jnode) ->
        let id = id_of t n.Plan.tag in
        let row = if id < 0 then [||] else Lazy.force t.rows.(id) in
        { tag = n.Plan.tag; position = n.Plan.position; row })
      spec.Plan.nodes
  in
  (* Since [Pid_Y ⊆ Pid_X], the paths an edge's two pids share are
     [Pid_Y]'s, so the tag relation of an edge only depends on the
     descendant-side pid. *)
  let chains, edges =
    Counters.time t_masks (fun () ->
        ( (if t.chain_pruning then
             List.map
               (fun (c : Plan.chain) -> (c.Plan.node_ids, chain_masks t c))
               spec.Plan.chains
           else []),
          List.map
            (fun (e : Plan.jedge) ->
              let x = nodes.(e.Plan.parent) and y = nodes.(e.Plan.child) in
              (x, y, edge_mask t ~axis:e.Plan.axis ~anc:x.tag ~desc:y.tag))
            spec.Plan.edges ))
  in
  (* Chain pruning: a pid can label a witness of chain node i only if
     the entire chain embeds into one of the pid's path types with
     node i somewhere on it. *)
  List.iter
    (fun (node_ids, masks) ->
      List.iteri
        (fun i id ->
          filter t c_chain_pruned nodes.(id) (fun pid -> Bitvec.intersects pid masks.(i)))
        node_ids)
    chains;
  (* Anchor: a Child first step means "child of the virtual document
     node", i.e. the document root itself: only the root's pid (the
     all-paths vector) on a matching tag can survive. *)
  (match spec.Plan.first_axis with
  | Pattern.Descendant -> ()
  | Pattern.Child ->
      filter t c_anchor_pruned nodes.(0) (Bitvec.equal (Summary.root_pid t.summary)));
  Counters.time t_fixpoint (fun () ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter (fun (x, y, rel) -> if visit t x y rel then changed := true) edges
      done);
  { nodes }

(* Memoized on the shape; [spec] compiles the shape on a miss. *)
let cached t shape spec =
  match Bounded_cache.find_opt t.run_cache shape with
  | Some r -> r
  | None ->
      let r = Counters.time t_run (fun () -> run_uncached t (spec ())) in
      Bounded_cache.add t.run_cache shape r;
      r

let exec t (spec : Plan.join_spec) = cached t spec.Plan.shape (fun () -> spec)
let run t shape = cached t shape (fun () -> Plan.join_of_shape shape)

let find result position =
  let found = ref None in
  Array.iter
    (fun n -> if n.position = position then found := Some n)
    result.nodes;
  match !found with
  | Some n -> n
  | None -> invalid_arg "Path_join: position not in the joined shape"

let pids result position =
  Array.fold_right (fun e acc -> (e.pid, e.freq) :: acc) (find result position).row []

let frequency result position =
  Array.fold_left (fun acc e -> acc +. e.freq) 0.0 (find result position).row
