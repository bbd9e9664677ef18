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

type jnode = {
  tag : string;
  position : Pattern.position;
  mutable row : (Bitvec.t * float) array;
}

type result = { nodes : jnode array }

(* A pid is a bitvector over root-to-leaf paths (bit b = the path with
   encoding b + 1), so "a per-path property holds on some path of this
   pid" is one [Bitvec.intersects pid mask] against the mask of paths
   where it holds.  The index below is built once per summary and only
   read afterwards. *)
type t = {
  summary : Summary.t;
  chain_pruning : bool;
  tag_id : (string, int) Hashtbl.t;  (* interned tags *)
  paths : int array array;  (* bit -> the path's tag ids, root first *)
  tag_paths : Bitvec.t array;  (* tag id -> paths containing the tag *)
  rows : (Bitvec.t * float) array Lazy.t array;
      (* tag id -> its p-histogram row, never mutated (pruning copies).
         Built on first use: every catalog load creates a join, and a
         query touches few tags.  Forcing is safe because a join
         serves one domain at a time, like its run cache (parallel
         batches give each worker its own [Estimator.sibling]). *)
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
    Array.of_list
      (List.map
         (fun path -> Array.of_list (List.map intern path))
         (Encoding_table.paths (Summary.encoding_table summary)))
  in
  let tags = Array.make (Hashtbl.length tag_id) "" in
  Hashtbl.iter (fun tag id -> tags.(id) <- tag) tag_id;
  let on_path = Array.map (fun _ -> Array.make (Array.length paths) false) tags in
  Array.iteri (fun bit path -> Array.iter (fun id -> on_path.(id).(bit) <- true) path) paths;
  {
    summary;
    chain_pruning;
    tag_id;
    paths;
    tag_paths = Array.map Bitvec.of_bits on_path;
    rows =
      Array.map (fun tag -> lazy (Array.of_list (Summary.tag_pids summary tag))) tags;
    run_cache =
      Bounded_cache.create ~capacity:config.Cache_config.run ~policy
        ~hit:c_run_hit ~miss:c_run_miss ~evict:c_run_evict ();
  }

let cache_stats t = [ ("run", Bounded_cache.stats t.run_cache) ]

(* A tag outside the summary gets id -1: it is on no path and has no
   pids. *)
let id_of t tag = Option.value ~default:(-1) (Hashtbl.find_opt t.tag_id tag)

(* Paths holding every given tag. *)
let paths_with t ids =
  List.fold_left
    (fun acc id ->
      if id < 0 then Bitvec.zero (Array.length t.paths)
      else Bitvec.logand acc t.tag_paths.(id))
    (Summary.root_pid t.summary) ids

(* Per chain node i, the paths into which the whole chain embeds with
   node i somewhere on them.  Child steps demand adjacent positions,
   descendant steps any later position; an anchored head must sit at
   position 0.  Only paths holding every chain tag can embed, so the
   forward/backward DP runs on those alone. *)
let chain_masks t (c : Plan.chain) =
  let steps = Array.of_list c.Plan.steps in
  let k = Array.length steps in
  let ids = Array.map (fun (_, tag) -> id_of t tag) steps in
  let candidates = paths_with t (Array.to_list ids) in
  let feasible = Array.init k (fun _ -> Array.make (Array.length t.paths) false) in
  Bitvec.iter_set_bits candidates (fun bit ->
      let path = t.paths.(bit) in
      let m = Array.length path in
      let at i q = path.(q) = ids.(i) in
      (* forward.(i).(q): prefix s_0..s_i embeds with s_i at q *)
      let forward = Array.make_matrix k m false in
      for i = 0 to k - 1 do
        let seen = ref false (* forward.(i - 1).(p) for some p < q *) in
        for q = 0 to m - 1 do
          if at i q then
            forward.(i).(q) <-
              (if i = 0 then (not c.Plan.anchored) || q = 0
               else
                 match fst steps.(i) with
                 | Pattern.Child -> q > 0 && forward.(i - 1).(q - 1)
                 | Pattern.Descendant -> !seen);
          if i > 0 && forward.(i - 1).(q) then seen := true
        done
      done;
      (* backward.(i).(q): suffix s_i..s_{k-1} embeds with s_i at q *)
      let backward = Array.make_matrix k m false in
      for i = k - 1 downto 0 do
        let seen = ref false (* backward.(i + 1).(p) for some p > q *) in
        for q = m - 1 downto 0 do
          if at i q then
            backward.(i).(q) <-
              (i = k - 1
              ||
              match fst steps.(i + 1) with
              | Pattern.Child -> q + 1 < m && backward.(i + 1).(q + 1)
              | Pattern.Descendant -> !seen);
          if i < k - 1 && backward.(i + 1).(q) then seen := true
        done
      done;
      for i = 0 to k - 1 do
        for q = 0 to m - 1 do
          if forward.(i).(q) && backward.(i).(q) then feasible.(i).(bit) <- true
        done
      done);
  Array.map Bitvec.of_bits feasible

(* The paths on which [anc] stands in [axis]'s relation to [desc]:
   immediately above it for a child step, anywhere above it for a
   descendant step. *)
let edge_mask t ~axis ~anc ~desc =
  let a = id_of t anc and d = id_of t desc in
  let holds = Array.make (Array.length t.paths) false in
  Bitvec.iter_set_bits (paths_with t [ a; d ]) (fun bit ->
      let path = t.paths.(bit) in
      let rec scan q seen =
        q < Array.length path
        && (path.(q) = d
            && (match (axis : Pattern.axis) with
               | Child -> q > 0 && path.(q - 1) = a
               | Descendant -> seen)
           || scan (q + 1) (seen || path.(q) = a))
      in
      holds.(bit) <- scan 0 false);
  Bitvec.of_bits holds

(* Keep the row entries flagged in [keep], in order, and count the
   dropped ones; true iff any was dropped.  A row that loses nothing is
   not copied. *)
let prune counter node keep =
  let row = node.row in
  let kept = Array.fold_left (fun n k -> if k then n + 1 else n) 0 keep in
  let dropped = Array.length row - kept in
  Counters.add counter dropped;
  if dropped > 0 then begin
    let next = ref 0 in
    node.row <-
      Array.init kept (fun _ ->
          while not keep.(!next) do incr next done;
          incr next;
          row.(!next - 1))
  end;
  dropped > 0

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
  (* Chain pruning: a pid can label a witness of chain node i only if
     the entire chain embeds into one of the pid's path types with
     node i somewhere on it. *)
  if t.chain_pruning then
    List.iter
      (fun (chain : Plan.chain) ->
        let masks = chain_masks t chain in
        List.iteri
          (fun i id ->
            let node = nodes.(id) in
            ignore
              (prune c_chain_pruned node
                 (Array.map (fun (pid, _) -> Bitvec.intersects pid masks.(i)) node.row)))
          chain.Plan.node_ids)
      spec.Plan.chains;
  (* Anchor: a Child first step means "child of the virtual document
     node", i.e. the document root itself: only the root's pid (the
     all-paths vector) on a matching tag can survive. *)
  (match spec.Plan.first_axis with
  | Pattern.Descendant -> ()
  | Pattern.Child ->
      let root_pid = Summary.root_pid t.summary in
      let head = nodes.(0) in
      ignore
        (prune c_anchor_pruned head
           (Array.map (fun (pid, _) -> Bitvec.equal pid root_pid) head.row)));
  (* Fixpoint pruning over edges.  Since [Pid_Y ⊆ Pid_X], the paths
     the two pids share are [Pid_Y]'s, so the tag relation of an edge
     only depends on the descendant-side pid. *)
  let edges =
    List.map
      (fun (e : Plan.jedge) ->
        let x = nodes.(e.Plan.parent) and y = nodes.(e.Plan.child) in
        (x, y, edge_mask t ~axis:e.Plan.axis ~anc:x.tag ~desc:y.tag))
      spec.Plan.edges
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, y, rel) ->
        let keep_y =
          Array.map
            (fun (py, _) ->
              Bitvec.intersects py rel
              && Array.exists (fun (px, _) -> Bitvec.contains_or_equal px py) x.row)
            y.row
        in
        let keep_x =
          Array.map
            (fun (px, _) ->
              let rec partner j =
                j < Array.length keep_y
                && ((keep_y.(j) && Bitvec.contains_or_equal px (fst y.row.(j)))
                   || partner (j + 1))
              in
              partner 0)
            x.row
        in
        let pruned_y = prune c_fixpoint_pruned y keep_y in
        let pruned_x = prune c_fixpoint_pruned x keep_x in
        if pruned_y || pruned_x then changed := true)
      edges
  done;
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

let pids result position = Array.to_list (find result position).row

let frequency result position =
  Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 (find result position).row
