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

(* A row entry: a pid, its index in the summary (the o-histograms'
   column key), its frequency estimate, and its set bits (the paths it
   holds), listed once when the tag's row is built.  The bits
   are held as floats, exact far beyond any path count, because the GC
   does not scan a float array.  Held as an int array instead, they
   cost the all-cached serve-hot workload ~3% of its qps and p99, and
   xmark-cold ~8% of its qps. *)
type entry = { pid : Bitvec.t; pidx : int; freq : float; bits : float array }

let nth_bit bits b = int_of_float bits.(b)

(* A tag's p-histogram row, built once per summary and shared, never
   copied, by every join over the tag.  Sets of its entries are
   [words]-word bitsets, bit j standing for [entries.(j)].  Only the
   paths the tag holds get a slice: the set of entries whose pid holds
   the path.  [index] maps a path to 1 + its slice's number (0 where
   the tag does not hold the path), [wide] bytes per path; slice k is
   at [slices.(k * words ..)]. *)
type row = {
  entries : entry array;
  words : int;
  wide : int;
  index : Bytes.t;
  slices : int array;
}

(* A query node's survivors: a row set over its tag's row. *)
type jnode = { position : Pattern.position; row : row; set : int array }

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
  occurs : int array array;
      (* tag id -> the depths where [at_depth] is not [none], ascending *)
  none : Bitvec.t;  (* the empty path set *)
  rows : row Lazy.t array;
      (* tag id -> its row.  Built on first use: every catalog load
         creates a join, and a query touches few tags.  The rows share
         one path-numbering buffer while they are built. *)
  mutable scratch : int array;
      (* the row sets a pruning step builds, reused by every step so
         that a fixpoint visit allocates nothing.  Forcing [rows] and
         writing [scratch] are safe because a join serves one domain
         at a time, like its run cache (parallel batches give each
         worker its own [Estimator.sibling]). *)
  (* one estimate joins the same shape repeatedly (counterpart,
     simplified counterpart, Q'), and join output only depends on the
     shape given a fixed summary *)
  run_cache : (Pattern.shape, result) Bounded_cache.t;
}

(* Row sets: bit j of a set stands for row entry j, [slice_bits]
   entries per word. *)
let slice_bits = 62
let slice_words n = (n + slice_bits - 1) / slice_bits

(* The set of all [n] entries. *)
let full n =
  Array.init (slice_words n) (fun i -> (1 lsl min slice_bits (n - (i * slice_bits))) - 1)

(* The slice number of path [p] in [row], -1 if the tag does not
   hold it. *)
let slice_of row p =
  (match row.wide with
  | 1 -> Bytes.get_uint8 row.index p
  | 2 -> Bytes.get_uint16_le row.index (2 * p)
  | _ -> Int32.to_int (Bytes.get_int32_le row.index (4 * p)))
  - 1

let set_slice_of row p k =
  match row.wide with
  | 1 -> Bytes.set_uint8 row.index p (k + 1)
  | 2 -> Bytes.set_uint16_le row.index (2 * p) (k + 1)
  | _ -> Bytes.set_int32_le row.index (4 * p) (Int32.of_int (k + 1))

(* The row of [entries]: number the paths the entries hold as they
   are first met, fill their slices, then write the index, which is as
   wide as the number of held paths needs: a byte per path for all but
   the tags near the root of a document with many paths.  [slot], one
   cell per path, maps a held path to its number while the row is
   built and is -1 everywhere before and after. *)
let build_row slot entries =
  let n = Array.length entries and count = ref 0 in
  (* loops, not [Array.iter]: a closure would box each float *)
  for j = 0 to n - 1 do
    let bits = entries.(j).bits in
    for b = 0 to Array.length bits - 1 do
      let p = nth_bit bits b in
      if slot.(p) < 0 then begin
        slot.(p) <- !count;
        incr count
      end
    done
  done;
  let words = slice_words n in
  let wide = if !count < 0xFF then 1 else if !count < 0xFFFF then 2 else 4 in
  let slices = Array.make (!count * words) 0 in
  let row =
    { entries; words; wide; index = Bytes.make (Array.length slot * wide) '\000'; slices }
  in
  for j = 0 to n - 1 do
    let bits = entries.(j).bits in
    let word = j / slice_bits and bit = 1 lsl (j mod slice_bits) in
    for b = 0 to Array.length bits - 1 do
      let o = (slot.(nth_bit bits b) * words) + word in
      slices.(o) <- slices.(o) lor bit
    done
  done;
  for j = 0 to n - 1 do
    let bits = entries.(j).bits in
    for b = 0 to Array.length bits - 1 do
      let p = nth_bit bits b in
      if slot.(p) >= 0 then begin
        set_slice_of row p slot.(p);
        slot.(p) <- -1
      end
    done
  done;
  row

let empty_row = { entries = [||]; words = 0; wide = 1; index = Bytes.empty; slices = [||] }

let create ?(chain_pruning = true) ?(config = Cache_config.default) summary =
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
  let slot = Array.make npaths (-1) in
  let entry (pidx, pid, freq) =
    let bits = Array.make (Bitvec.popcount pid) 0.0 and n = ref 0 in
    Bitvec.iter_set_bits pid (fun b ->
        bits.(!n) <- float_of_int b;
        incr n);
    { pid; pidx; freq; bits }
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
    occurs =
      Array.map
        (fun by_depth ->
          Array.of_list
            (List.filter (fun d -> Array.length by_depth.(d) > 0) (List.init depths Fun.id)))
        on;
    none;
    rows =
      Array.map
        (fun tag ->
          lazy
            (build_row slot
               (Array.of_list (List.map entry (Summary.tag_entries summary tag)))))
        tags;
    scratch = [||];
    run_cache =
      Bounded_cache.create ~capacity:config.Cache_config.run ~hit:c_run_hit
        ~miss:c_run_miss ~evict:c_run_evict ();
  }

(* A tag outside the summary gets id -1: it is on no path and has no
   pids. *)
let id_of t tag = Option.value ~default:(-1) (Hashtbl.find_opt t.tag_id tag)

(* The paths carrying tag [id] at depth [d]; empty out of range. *)
let at t id d = if id < 0 || d < 0 || d >= t.depths then t.none else t.at_depth.(id).(d)

(* The depths where tag [id] occurs, ascending. *)
let occurs t id = if id < 0 then [||] else t.occurs.(id)

(* Path-set intersection and union.  Every empty set in the mask
   computations is [t.none] itself, so an operand that no path
   carries costs one physical comparison. *)
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
   path set per (node, depth), so every path is decided at once.  A
   node's sets are [none] wherever its tag does not occur, so each
   loop walks only the occurrence depths of the tags it reads. *)
let chain_masks t (spec : Plan.join_spec) (c : Plan.chain) =
  let k = Array.length c.Plan.node_ids and depths = t.depths in
  (* each chain node's incoming axis and interned tag *)
  let axes = Array.map (fun id -> spec.Plan.node_axes.(id)) c.Plan.node_ids in
  let ids = Array.map (fun id -> id_of t spec.Plan.nodes.(id).Plan.tag) c.Plan.node_ids in
  (* forward.(i).(d): prefix s_0..s_i embeds with s_i at depth d *)
  let forward = Array.make_matrix k depths t.none in
  for i = 0 to k - 1 do
    let prev = if i = 0 then [||] else occurs t ids.(i - 1) in
    let above = ref t.none (* forward.(i - 1) at some depth < d *) and p = ref 0 in
    Array.iter
      (fun d ->
        forward.(i).(d) <-
          (if i = 0 then if (not c.Plan.anchored) || d = 0 then at t ids.(0) d else t.none
           else
             match axes.(i) with
             | Pattern.Child ->
                 if d = 0 then t.none else inter t (at t ids.(i) d) forward.(i - 1).(d - 1)
             | Pattern.Descendant ->
                 while !p < Array.length prev && prev.(!p) < d do
                   above := union t !above forward.(i - 1).(prev.(!p));
                   incr p
                 done;
                 inter t (at t ids.(i) d) !above))
      (occurs t ids.(i))
  done;
  (* backward.(i).(d): suffix s_i..s_{k-1} embeds with s_i at depth d *)
  let backward = Array.make_matrix k depths t.none in
  for i = k - 1 downto 0 do
    let next = if i = k - 1 then [||] else occurs t ids.(i + 1) in
    let below = ref t.none (* backward.(i + 1) at some depth > d *) in
    let p = ref (Array.length next - 1) in
    let ds = occurs t ids.(i) in
    for n = Array.length ds - 1 downto 0 do
      let d = ds.(n) in
      backward.(i).(d) <-
        (if i = k - 1 then at t ids.(i) d
         else
           match axes.(i + 1) with
           | Pattern.Child ->
               if d + 1 = depths then t.none
               else inter t (at t ids.(i) d) backward.(i + 1).(d + 1)
           | Pattern.Descendant ->
               while !p >= 0 && next.(!p) > d do
                 below := union t !below backward.(i + 1).(next.(!p));
                 decr p
               done;
               inter t (at t ids.(i) d) !below)
    done
  done;
  Array.init k (fun i ->
      Array.fold_left
        (fun mask d -> union t mask (inter t forward.(i).(d) backward.(i).(d)))
        t.none
        (occurs t ids.(i)))

(* The paths on which [anc] stands in [axis]'s relation to [desc]:
   immediately above it for a child step (∨_d at(anc, d-1) ∧
   at(desc, d)), anywhere above it for a descendant step
   (∨_d (∨_{p<d} at(anc, p)) ∧ at(desc, d)), d ranging over [desc]'s
   depths. *)
let edge_mask t ~axis ~anc ~desc =
  let a = id_of t anc and b = id_of t desc in
  let above_at = occurs t a in
  let mask = ref t.none and above = ref t.none and p = ref 0 in
  Array.iter
    (fun d ->
      let over =
        match (axis : Pattern.axis) with
        | Child -> at t a (d - 1)
        | Descendant ->
            while !p < Array.length above_at && above_at.(!p) < d do
              above := union t !above (at t a above_at.(!p));
              incr p
            done;
            !above
      in
      mask := union t !mask (inter t over (at t b d)))
    (occurs t b);
  !mask

(* [t.scratch], at least [size] words long, its first [size] zeroed. *)
let scratch t size =
  if Array.length t.scratch < size then t.scratch <- Array.make size 0
  else Array.fill t.scratch 0 size 0;
  t.scratch

(* Keep the entries of [node.set] that are also in [s.(at ..)], and
   count the dropped ones. *)
let restrict counter node s at =
  let set = node.set and dropped = ref 0 in
  for i = 0 to Array.length set - 1 do
    dropped := !dropped + Bitvec.popcount_word (set.(i) land lnot s.(at + i));
    set.(i) <- set.(i) land s.(at + i)
  done;
  Counters.add counter !dropped;
  !dropped

(* Chain pruning: keep the entries whose pid holds a path of [mask],
   the OR of those paths' slices. *)
let chain_prune t node mask =
  let row = node.row in
  let w = row.words in
  let s = scratch t w in
  if w > 0 then
    Bitvec.iter_set_bits mask (fun p ->
        let k = slice_of row p in
        if k >= 0 then
          for i = 0 to w - 1 do
            s.(i) <- s.(i) lor row.slices.((k * w) + i)
          done);
  ignore (restrict c_chain_pruned node s 0)

(* Anchor: keep only the entry (if any) whose pid is [root]. *)
let anchor t node root =
  let s = scratch t node.row.words in
  Array.iteri
    (fun j e -> if Bitvec.equal e.pid root then s.(j / slice_bits) <- 1 lsl (j mod slice_bits))
    node.row.entries;
  ignore (restrict c_anchor_pruned node s 0)

(* Write into [s.(lo .. hi)] the entries of [xs] whose pid holds every
   path in [bits], the AND of [xs] and those paths' slices in [x];
   true iff there is one. *)
let partners s x xs ~lo ~hi bits =
  for i = lo to hi do
    s.(i) <- xs.(i)
  done;
  let any = ref (lo <= hi) and b = ref 0 in
  while !any && !b < Array.length bits do
    let k = slice_of x (nth_bit bits !b) in
    if k < 0 then any := false
    else begin
      let o = k * x.words and acc = ref 0 in
      for i = lo to hi do
        let v = s.(i) land x.slices.(o + i) in
        s.(i) <- v;
        acc := !acc lor v
      done;
      any := !acc <> 0
    end;
    incr b
  done;
  !any

(* One fixpoint visit of the edge (x, y): a y pid survives iff some x
   pid contains it (and, without chain pruning, it meets the edge's
   relation mask [rel]), an x pid iff it contains a surviving y pid.
   A y pid's partners are the AND of x's set and the slices of the
   y pid's paths, and x's survivors the OR of the surviving y pids'
   partners.  The word loops run over the non-zero words of x's set
   only: a large row's survivors usually fit in one word.  True iff
   anything was pruned. *)
let visit t x y rel =
  let xs = x.set and ys = y.set and w = x.row.words in
  let lo = ref 0 and hi = ref (w - 1) in
  while !lo < w && xs.(!lo) = 0 do incr lo done;
  while !hi >= !lo && xs.(!hi) = 0 do decr hi done;
  let lo = !lo and hi = !hi in
  (* scratch: a partner set, then x's survivors *)
  let s = scratch t (2 * w) in
  let dropped = ref 0 in
  for wi = 0 to Array.length ys - 1 do
    let word = ref ys.(wi) and b = ref 0 in
    while !word <> 0 do
      if !word land 1 <> 0 then begin
        let e = y.row.entries.((wi * slice_bits) + !b) in
        if
          (match rel with None -> true | Some mask -> Bitvec.intersects e.pid mask)
          && partners s x.row xs ~lo ~hi e.bits
        then
          for i = lo to hi do
            s.(w + i) <- s.(w + i) lor s.(i)
          done
        else begin
          ys.(wi) <- ys.(wi) land lnot (1 lsl !b);
          incr dropped
        end
      end;
      word := !word lsr 1;
      incr b
    done
  done;
  Counters.add c_fixpoint_pruned !dropped;
  restrict c_fixpoint_pruned x s w > 0 || !dropped > 0

(* Execute a compiled join spec (the chain/edge extraction happened at
   Plan compile time). *)
let run_uncached t (spec : Plan.join_spec) =
  let nodes =
    Array.map
      (fun (n : Plan.jnode) ->
        let id = id_of t n.Plan.tag in
        let row = if id < 0 then empty_row else Lazy.force t.rows.(id) in
        { position = n.Plan.position; row; set = full (Array.length row.entries) })
      spec.Plan.nodes
  in
  (* Chain pruning: a pid can label a witness of chain node i only if
     the entire chain embeds into one of the pid's path types with
     node i somewhere on it.  Every edge (x, y) lies on a chain in
     which x immediately precedes y, so y's chain mask lies inside the
     edge's relation mask and the pids chain pruning keeps all meet
     it: the edge masks are needed only without chain pruning.  Since
     [Pid_Y ⊆ Pid_X], the paths an edge's two pids share are
     [Pid_Y]'s, so the tag relation of an edge only depends on the
     descendant-side pid. *)
  let chains, edges =
    Counters.time t_masks (fun () ->
        ( (if t.chain_pruning then
             List.map
               (fun (c : Plan.chain) -> (c.Plan.node_ids, chain_masks t spec c))
               spec.Plan.chains
           else []),
          List.map
            (fun (e : Plan.jedge) ->
              let x = nodes.(e.Plan.parent) and y = nodes.(e.Plan.child) in
              ( x,
                y,
                if t.chain_pruning then None
                else
                  Some
                    (edge_mask t ~axis:e.Plan.axis
                       ~anc:spec.Plan.nodes.(e.Plan.parent).Plan.tag
                       ~desc:spec.Plan.nodes.(e.Plan.child).Plan.tag) ))
            spec.Plan.edges ))
  in
  List.iter
    (fun (node_ids, masks) ->
      Array.iteri (fun i id -> chain_prune t nodes.(id) masks.(i)) node_ids)
    chains;
  (* Anchor: a Child first step means "child of the virtual document
     node", i.e. the document root itself: only the root's pid (the
     all-paths vector) on a matching tag can survive. *)
  (match spec.Plan.first_axis with
  | Pattern.Descendant -> ()
  | Pattern.Child -> anchor t nodes.(0) (Summary.root_pid t.summary));
  Counters.time t_fixpoint (fun () ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter (fun (x, y, rel) -> if visit t x y rel then changed := true) edges
      done);
  { nodes }

(* Memoized on the spec's shape. *)
let exec t (spec : Plan.join_spec) =
  match Bounded_cache.find_opt t.run_cache spec.Plan.shape with
  | Some r -> r
  | None ->
      let r = Counters.time t_run (fun () -> run_uncached t spec) in
      Bounded_cache.add t.run_cache spec.Plan.shape r;
      r

let same_position (a : Pattern.position) (b : Pattern.position) =
  match (a, b) with
  | In_trunk i, In_trunk j | In_branch i, In_branch j | In_tail i, In_tail j -> i = j
  | In_first i, In_first j | In_second i, In_second j -> i = j
  | (In_trunk _ | In_branch _ | In_tail _ | In_first _ | In_second _), _ -> false

let find result position =
  let nodes = result.nodes in
  let rec go i =
    if i = Array.length nodes then
      invalid_arg "Path_join: position not in the joined shape"
    else if same_position nodes.(i).position position then nodes.(i)
    else go (i + 1)
  in
  go 0

(* [f acc e] over the node's surviving entries, in row order. *)
let fold_survivors f acc node =
  let acc = ref acc in
  Array.iteri
    (fun wi word ->
      let word = ref word and j = ref (wi * slice_bits) in
      while !word <> 0 do
        if !word land 1 <> 0 then acc := f !acc node.row.entries.(!j);
        word := !word lsr 1;
        incr j
      done)
    node.set;
  !acc

let pids result position =
  List.rev (fold_survivors (fun acc e -> (e.pid, e.freq) :: acc) [] (find result position))

(* [f_Q(n)]: a float loop over the survivors, in row order from 0, so
   no partial sum is boxed. *)
let frequency result position =
  let node = find result position in
  let set = node.set and entries = node.row.entries in
  let acc = ref 0.0 in
  for wi = 0 to Array.length set - 1 do
    let word = ref set.(wi) and j = ref (wi * slice_bits) in
    while !word <> 0 do
      if !word land 1 <> 0 then acc := !acc +. entries.(!j).freq;
      word := !word lsr 1;
      incr j
    done
  done;
  !acc

let order_sum result position cell =
  fold_survivors (fun acc e -> acc +. cell e.pidx) 0.0 (find result position)
