module Tree = Xpest_xml.Tree
module Doc = Xpest_xml.Doc
module Bitvec = Xpest_util.Bitvec
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Summary = Xpest_synopsis.Summary
module Labeler = Xpest_encoding.Labeler
module Path_join = Xpest_estimator.Path_join
module Plan = Xpest_plan.Plan
module Encoding_table = Xpest_encoding.Encoding_table
module Registry = Xpest_datasets.Registry
module Workload = Xpest_workload.Workload
module Counters = Xpest_util.Counters

let doc = Paper_fixture.doc
let summary = Summary.build doc
let join = Path_join.create summary

let shape_of s = Pattern.shape (Pattern.of_string s)
let run join shape = Path_join.exec join (Plan.join_of_shape shape)

let pids result position =
  Path_join.pids result position
  |> List.map (fun (pid, _) -> Bitvec.to_string pid)
  |> List.sort compare

let test_simple_join_keeps_matching_pids () =
  (* //A//C: A keeps {p6,p7}, C keeps {p2,p3} (paper Example 4.2) *)
  let r = run join (shape_of "//A//C") in
  Alcotest.(check (list string)) "A pids"
    (List.sort compare [ Paper_fixture.p6; Paper_fixture.p7 ])
    (pids r (Pattern.In_trunk 0));
  Alcotest.(check (list string)) "C pids"
    (List.sort compare [ Paper_fixture.p2; Paper_fixture.p3 ])
    (pids r (Pattern.In_trunk 1))

let test_child_vs_descendant () =
  (* Root/A is a parent-child edge; //Root//D descendant *)
  let r = run join (shape_of "/Root/A") in
  Alcotest.(check (list string)) "Root" [ Paper_fixture.p9 ]
    (pids r (Pattern.In_trunk 0));
  Alcotest.(check int) "A keeps all 3" 3
    (List.length (pids r (Pattern.In_trunk 1)));
  (* B/C are never in a parent-child relation *)
  let r = run join (shape_of "//B/C") in
  Alcotest.(check (list string)) "no B pids" [] (pids r (Pattern.In_trunk 0));
  Alcotest.(check (list string)) "no C pids" [] (pids r (Pattern.In_trunk 1))

let test_anchor_constraint () =
  (* /A must be the document root, whose tag is Root: empty *)
  let r = run join (shape_of "/A") in
  Alcotest.(check (list string)) "empty" [] (pids r (Pattern.In_trunk 0));
  let r = run join (shape_of "/Root") in
  Alcotest.(check (list string)) "root pid" [ Paper_fixture.p9 ]
    (pids r (Pattern.In_trunk 0))

let test_frequency_sums () =
  let r = run join (shape_of "//B/D") in
  Alcotest.(check (float 1e-9)) "f(B) = 4" 4.0
    (Path_join.frequency r (Pattern.In_trunk 0));
  Alcotest.(check (float 1e-9)) "f(D) = 4" 4.0
    (Path_join.frequency r (Pattern.In_trunk 1))

let test_ordered_positions () =
  let r =
    run join (shape_of "//A[/C/folls::B/D]")
  in
  Alcotest.(check (list string)) "second-head B pids" [ Paper_fixture.p5 ]
    (pids r (Pattern.In_second 0))

let test_position_not_in_shape () =
  let r = run join (shape_of "//A//C") in
  Alcotest.(check bool) "raises" true
    (match Path_join.pids r (Pattern.In_branch 0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- soundness property: the join never prunes a pid that labels an
   actual witness of the query node. *)

let tree_gen =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  sized_size (int_range 1 30) @@ fix (fun self n ->
      if n <= 1 then tag >|= Tree.leaf
      else
        tag >>= fun t ->
        list_size (int_range 0 3) (self (n / 3)) >|= fun cs -> Tree.elem t cs)

let spine_gen len =
  let open QCheck.Gen in
  list_size (return len)
    (pair (oneofl [ Pattern.Child; Pattern.Descendant ]) (oneofl [ "a"; "b"; "c" ]))
  >|= List.map (fun (axis, tag) -> Pattern.{ axis; tag })

let shape_gen =
  let open QCheck.Gen in
  oneof
    [
      (int_range 1 3 >>= spine_gen >|= fun s -> Pattern.Simple s);
      ( triple (spine_gen 1) (spine_gen 1) (spine_gen 1)
      >|= fun (trunk, branch, tail) -> Pattern.Branch { trunk; branch; tail } );
    ]

let arb =
  QCheck.make
    QCheck.Gen.(pair tree_gen shape_gen)
    ~print:(fun (t, s) ->
      Format.asprintf "%a |- %s" Tree.pp t
        (Pattern.to_string (Pattern.v s (Pattern.In_trunk 0))))

let positions_of shape =
  match (shape : Pattern.shape) with
  | Simple q -> List.init (List.length q) (fun i -> Pattern.In_trunk i)
  | Branch { trunk; branch; tail } ->
      List.init (List.length trunk) (fun i -> Pattern.In_trunk i)
      @ List.init (List.length branch) (fun i -> Pattern.In_branch i)
      @ List.init (List.length tail) (fun i -> Pattern.In_tail i)
  | Ordered _ -> []

let prop_join_sound =
  QCheck.Test.make ~name:"join keeps the pid of every true witness"
    ~count:400 arb (fun (tree, shape) ->
      let doc = Doc.of_tree tree in
      let summary = Summary.build doc in
      let labeler = Summary.labeler summary in
      let join = Path_join.create summary in
      let result = run join shape in
      List.for_all
        (fun pos ->
          let witnesses = Truth.matches doc (Pattern.v shape pos) in
          let kept = List.map fst (Path_join.pids result pos) in
          List.for_all
            (fun w ->
              List.exists (Bitvec.equal (Labeler.pid labeler w)) kept)
            witnesses)
        (positions_of shape))

let prop_simple_frequency_upper_bound =
  (* Theorem 4.1 gives equality on documents whose paths do not repeat
     tags; on arbitrary (possibly recursive) documents the joined
     frequency is still a sound upper bound of the exact selectivity,
     because the join never prunes a witness pid. *)
  QCheck.Test.make ~name:"joined frequency >= exact selectivity" ~count:400
    (QCheck.make
       QCheck.Gen.(pair tree_gen (int_range 1 3 >>= spine_gen))
       ~print:(fun (t, s) ->
         Format.asprintf "%a |- %s" Tree.pp t
           (Pattern.to_string (Pattern.simple s))))
    (fun (tree, spine) ->
      let doc = Doc.of_tree tree in
      let summary = Summary.build doc in
      let join = Path_join.create summary in
      let result = run join (Pattern.Simple spine) in
      List.for_all
        (fun i ->
          let pos = Pattern.In_trunk i in
          let actual =
            Truth.selectivity doc (Pattern.v (Pattern.Simple spine) pos)
          in
          Path_join.frequency result pos >= Float.of_int actual -. 1e-9)
        (List.init (List.length spine) Fun.id))

let test_theorem_4_1_exact_on_regular_data () =
  (* DBLP-like data has strictly layered tags (no tag repeats on any
     root-to-leaf path), where Theorem 4.1 equality holds. *)
  let doc =
    Doc.of_tree (Xpest_datasets.Dblp.generate ~records:120 ~seed:42 ())
  in
  let summary = Summary.build doc in
  let join = Path_join.create summary in
  List.iter
    (fun qs ->
      let q = Pattern.of_string qs in
      match Pattern.shape q with
      | Pattern.Simple spine ->
          let result = run join (Pattern.Simple spine) in
          List.iteri
            (fun i _ ->
              let pos = Pattern.In_trunk i in
              let actual =
                Truth.selectivity doc (Pattern.v (Pattern.Simple spine) pos)
              in
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s @%d" qs i)
                (Float.of_int actual)
                (Path_join.frequency result pos))
            spine
      | Pattern.Branch _ | Pattern.Ordered _ -> Alcotest.fail "expected simple")
    [
      "/dblp/article/author";
      "//inproceedings/booktitle";
      "//dblp//cite";
      "/dblp/phdthesis/school";
      "//article/month";
    ]

(* ---- mask oracle: the path masks must prune exactly what the
   per-bit rules they replace prune.  The reference below is the
   per-path-type definition, evaluated bit by bit on each pid:
   chain feasibility by the forward/backward embedding DP over the
   path's tag strings, the edge relation by
   [Encoding_table.axis_holds]. *)

module Reference = struct
  (* Per chain node: does a full ordered embedding of the chain into
     the path [encoding] place that node somewhere on it? *)
  let chain_feasibility table ~anchored ~steps encoding =
    let path = Array.of_list (Encoding_table.path_of_encoding table encoding) in
    let m = Array.length path in
    let steps = Array.of_list steps in
    let k = Array.length steps in
    let forward = Array.make_matrix k m false in
    for q = 0 to m - 1 do
      let _, tag = steps.(0) in
      if String.equal path.(q) tag && ((not anchored) || q = 0) then
        forward.(0).(q) <- true
    done;
    for i = 1 to k - 1 do
      let axis, tag = steps.(i) in
      for q = 0 to m - 1 do
        if String.equal path.(q) tag then
          forward.(i).(q) <-
            (match axis with
            | Pattern.Child -> q > 0 && forward.(i - 1).(q - 1)
            | Pattern.Descendant ->
                List.exists (fun p -> forward.(i - 1).(p)) (List.init q Fun.id))
      done
    done;
    let backward = Array.make_matrix k m false in
    for q = 0 to m - 1 do
      let _, tag = steps.(k - 1) in
      if String.equal path.(q) tag then backward.(k - 1).(q) <- true
    done;
    for i = k - 2 downto 0 do
      let _, tag = steps.(i) in
      let next_axis, _ = steps.(i + 1) in
      for q = 0 to m - 1 do
        if String.equal path.(q) tag then
          backward.(i).(q) <-
            (match next_axis with
            | Pattern.Child -> q + 1 < m && backward.(i + 1).(q + 1)
            | Pattern.Descendant ->
                List.exists
                  (fun p -> backward.(i + 1).(p))
                  (List.init (m - q - 1) (fun d -> q + 1 + d)))
      done
    done;
    Array.init k (fun i ->
        List.exists
          (fun q -> forward.(i).(q) && backward.(i).(q))
          (List.init m Fun.id))

  let some_bit pid f = List.exists (fun bit -> f (bit + 1)) (Bitvec.set_bits pid)

  let chain_keeps table spec (c : Plan.chain) i pid =
    some_bit pid (fun encoding ->
        (chain_feasibility table ~anchored:c.Plan.anchored ~steps:(Plan.chain_steps spec c)
           encoding).(i))

  let edge_keeps table ~axis ~anc ~desc pid =
    let axis = match (axis : Pattern.axis) with Child -> `Child | Descendant -> `Descendant in
    some_bit pid (fun encoding ->
        Encoding_table.axis_holds table ~encoding ~axis ~anc ~desc)

  (* The rows the fixpoint starts from: chain pruning (if on), then
     the anchor. *)
  let seed ~chain_pruning summary (spec : Plan.join_spec) =
    let table = Encoding_table.of_paths (Summary.paths summary) in
    let rows =
      Array.map (fun (n : Plan.jnode) -> Summary.tag_pids summary n.Plan.tag) spec.Plan.nodes
    in
    if chain_pruning then
      List.iter
        (fun (c : Plan.chain) ->
          Array.iteri
            (fun i id ->
              rows.(id) <- List.filter (fun (pid, _) -> chain_keeps table spec c i pid) rows.(id))
            c.Plan.node_ids)
        spec.Plan.chains;
    (match spec.Plan.first_axis with
    | Pattern.Descendant -> ()
    | Pattern.Child ->
        let root = Summary.root_pid summary in
        rows.(0) <- List.filter (fun (pid, _) -> Bitvec.equal pid root) rows.(0));
    rows

  (* The whole join with per-bit pruning and pairwise containment:
     chains, anchor, fixpoint. *)
  let run ~chain_pruning summary (spec : Plan.join_spec) =
    let table = Encoding_table.of_paths (Summary.paths summary) in
    let rows = seed ~chain_pruning summary spec in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (e : Plan.jedge) ->
          let xs = rows.(e.Plan.parent) and ys = rows.(e.Plan.child) in
          let keep_y (py, _) =
            edge_keeps table ~axis:e.Plan.axis
              ~anc:spec.Plan.nodes.(e.Plan.parent).Plan.tag
              ~desc:spec.Plan.nodes.(e.Plan.child).Plan.tag py
            && List.exists (fun (px, _) -> Bitvec.contains_or_equal px py) xs
          in
          let ys' = List.filter keep_y ys in
          let xs' =
            List.filter
              (fun (px, _) ->
                List.exists (fun (py, _) -> Bitvec.contains_or_equal px py) ys')
              xs
          in
          if List.length ys' <> List.length ys || List.length xs' <> List.length xs
          then changed := true;
          rows.(e.Plan.child) <- ys';
          rows.(e.Plan.parent) <- xs')
        spec.Plan.edges
    done;
    rows
end

(* Every distinct join spec a workload's plans execute. *)
let workload_specs doc =
  let config =
    { Workload.default_config with num_simple = 400; num_branch = 400 }
  in
  let specs = Hashtbl.create 256 in
  List.iter
    (fun (it : Workload.item) ->
      let plan = Plan.compile it.Workload.pattern in
      List.iter
        (fun (spec : Plan.join_spec) -> Hashtbl.replace specs spec.Plan.shape spec)
        (plan.Plan.join
        :: (match plan.Plan.eq2 with Some e -> [ e.Plan.q_prime ] | None -> [])))
    (Workload.all_items (Workload.generate ~config doc));
  Hashtbl.fold (fun _ spec acc -> spec :: acc) specs []

let bits_of_row row =
  List.map (fun (pid, f) -> (Bitvec.to_string pid, Int64.bits_of_float f)) row

let test_masks_match_per_bit_rules name () =
  let summary = Summary.build (Registry.generate ~scale:0.05 name) in
  let table = Encoding_table.of_paths (Summary.paths summary) in
  let join = Path_join.create summary in
  let ablated = Path_join.create ~chain_pruning:false summary in
  let specs = workload_specs (Summary.doc summary) in
  Alcotest.(check bool) "workload has join specs" true (List.length specs > 50);
  (* The fixpoint holds the ancestor-side row of an edge as row sets of
     62 entries a word; XMark must reach a third word, so that the
     multi-word path stays under test. *)
  if name = Registry.Xmark then begin
    let widest =
      List.fold_left
        (fun acc (spec : Plan.join_spec) ->
          let rows = Reference.seed ~chain_pruning:true summary spec in
          List.fold_left
            (fun acc (e : Plan.jedge) -> max acc (List.length rows.(e.Plan.parent)))
            acc spec.Plan.edges)
        0 specs
    in
    if widest <= 124 then Alcotest.failf "widest ancestor-side row has %d entries" widest
  end;
  List.iter
    (fun (spec : Plan.join_spec) ->
      let label = Pattern.to_string (Pattern.v spec.Plan.shape (Pattern.In_trunk 0)) in
      let row id = Summary.tag_pids summary spec.Plan.nodes.(id).Plan.tag in
      List.iter
        (fun (c : Plan.chain) ->
          let masks = Path_join.chain_masks join spec c in
          Array.iteri
            (fun i id ->
              List.iter
                (fun (pid, _) ->
                  if Bitvec.intersects pid masks.(i) <> Reference.chain_keeps table spec c i pid
                  then
                    Alcotest.failf "%s: chain node %d, pid %s" label i
                      (Bitvec.to_string pid))
                (row id))
            c.Plan.node_ids)
        spec.Plan.chains;
      (* Every edge (x, y) lies on a chain in which x immediately
         precedes y, and there y's chain mask lies inside the edge
         mask: the pids chain pruning keeps all pass the edge test,
         which the join therefore skips under chain pruning. *)
      List.iter
        (fun (e : Plan.jedge) ->
          let on_chain (c : Plan.chain) =
            let rec adjacent = function
              | x :: (y :: _ as rest) -> (x = e.Plan.parent && y = e.Plan.child) || adjacent rest
              | _ -> false
            in
            adjacent (Array.to_list c.Plan.node_ids)
          in
          if not (List.exists on_chain spec.Plan.chains) then
            Alcotest.failf "%s: edge n%d-n%d lies on no chain" label e.Plan.parent
              e.Plan.child)
        spec.Plan.edges;
      List.iter
        (fun (c : Plan.chain) ->
          let masks = Path_join.chain_masks join spec c in
          let steps = Array.of_list (Plan.chain_steps spec c) in
          Array.iteri
            (fun i mask ->
              if i > 0 then begin
                let axis, desc = steps.(i) and _, anc = steps.(i - 1) in
                if
                  not
                    (Bitvec.contains_or_equal (Path_join.edge_mask join ~axis ~anc ~desc) mask)
                then Alcotest.failf "%s: chain node %d's mask leaves edge %s-%s" label i anc desc
              end)
            masks)
        spec.Plan.chains;
      List.iter
        (fun (e : Plan.jedge) ->
          let anc = spec.Plan.nodes.(e.Plan.parent).Plan.tag
          and desc = spec.Plan.nodes.(e.Plan.child).Plan.tag in
          let mask = Path_join.edge_mask join ~axis:e.Plan.axis ~anc ~desc in
          List.iter
            (fun (pid, _) ->
              if
                Bitvec.intersects pid mask
                <> Reference.edge_keeps table ~axis:e.Plan.axis ~anc ~desc pid
              then Alcotest.failf "%s: edge %s-%s, pid %s" label anc desc
                  (Bitvec.to_string pid))
            (row e.Plan.child))
        spec.Plan.edges;
      (* the whole join, with chain pruning on and off (the A2
         ablation, where the edge masks are the only per-path test):
         same survivors, same order, bit-equal frequencies *)
      List.iter
        (fun (chain_pruning, join) ->
          let result = Path_join.exec join spec in
          Array.iteri
            (fun id expected ->
              let pos = spec.Plan.nodes.(id).Plan.position in
              if bits_of_row (Path_join.pids result pos) <> bits_of_row expected then
                Alcotest.failf "%s (chain pruning %b): node %d rows differ" label
                  chain_pruning id;
              let sum = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 expected in
              if
                Int64.bits_of_float (Path_join.frequency result pos)
                <> Int64.bits_of_float sum
              then
                Alcotest.failf "%s (chain pruning %b): node %d frequency differs" label
                  chain_pruning id)
            (Reference.run ~chain_pruning summary spec))
        [ (true, join); (false, ablated) ])
    specs

(* The rows pruned at one stage since the counters were last reset. *)
let pruned stage =
  Option.value ~default:0
    (List.assoc_opt ("path_join.pruned." ^ stage ^ "_rows") (Counters.counters ()))

let xmark = lazy (Summary.build (Registry.generate ~scale:0.05 Registry.Xmark))

(* The rows pruned per stage over every XMark join spec of the
   workload.  The ledger's [join.rows_pruned] is their sum, so a
   rewrite of the join must leave each of them as it is. *)
let test_pruning_counts () =
  let summary = Lazy.force xmark in
  let join = Path_join.create summary in
  let specs = workload_specs (Summary.doc summary) in
  Counters.with_enabled (fun () ->
      List.iter (fun spec -> ignore (Path_join.exec join spec)) specs);
  Alcotest.(check (list int))
    "anchor, chain, fixpoint"
    [ 0; 350707; 3270 ]
    (List.map pruned [ "anchor"; "chain"; "fixpoint" ])

(* An uncached join allocates its result and a few words more: the
   masks and the pruning steps work in the join's scratch buffers, so
   no path set is allocated; a cached one allocates nothing.  A run cache of one entry makes every
   join of the second sweep a miss (the specs' shapes are distinct);
   the first sweep builds the rows and grows the scratch. *)
let test_uncached_join_allocation () =
  let summary = Lazy.force xmark in
  let join =
    Path_join.create ~config:{ Xpest_plan.Cache_config.default with run = 1 } summary
  in
  let specs = workload_specs (Summary.doc summary) in
  List.iter (fun spec -> ignore (Path_join.exec join spec)) specs;
  let worst = ref 0 in
  List.iter
    (fun (spec : Plan.join_spec) ->
      (* the result: its record of two fields, its node array, and per
         node a record and a row set of one word per 62 row entries *)
      let result_words =
        Array.fold_left
          (fun acc (n : Plan.jnode) ->
            let w = (List.length (Summary.tag_pids summary n.Plan.tag) + 61) / 62 in
            acc + 4 + if w > 0 then w + 1 else 0)
          (4 + Array.length spec.Plan.nodes)
          spec.Plan.nodes
      in
      let before = Gc.minor_words () in
      ignore (Path_join.exec join spec);
      let words = int_of_float (Gc.minor_words () -. before) in
      worst := max !worst (words - result_words))
    specs;
  (* 54 words at most today (the run-cache entry, a few closures);
     when every AND/OR built a bitvector, up to 2910 *)
  if !worst > 96 then Alcotest.failf "a join allocated %d words beyond its result" !worst;
  (* a run-cache hit is one int lookup and allocates nothing: the
     first reading is calibrated by a second with nothing between *)
  let join = Path_join.create summary in
  List.iter
    (fun spec ->
      ignore (Path_join.exec join spec);
      let a = Gc.minor_words () in
      let b = Gc.minor_words () in
      ignore (Path_join.exec join spec);
      let c = Gc.minor_words () in
      let words = int_of_float (c -. b -. (b -. a)) in
      if words <> 0 then Alcotest.failf "a run-cache hit allocated %d words" words)
    specs

(* A tag outside the summary joins as an empty set, and empties the
   nodes it is joined to. *)
let test_unknown_tag () =
  List.iter
    (fun chain_pruning ->
      let join = Path_join.create ~chain_pruning summary in
      let r = run join (shape_of "//Zebra") in
      Alcotest.(check (list string)) "no pids" [] (pids r (Pattern.In_trunk 0));
      Alcotest.(check (float 0.0)) "f = 0" 0.0 (Path_join.frequency r (Pattern.In_trunk 0));
      let r = run join (shape_of "//A/Zebra") in
      Alcotest.(check (list string)) "A emptied" [] (pids r (Pattern.In_trunk 0));
      let r = run join (shape_of "//Zebra//D") in
      Alcotest.(check (list string)) "D emptied" [] (pids r (Pattern.In_trunk 1)))
    [ true; false ]

(* An anchored chain: its masks only place the head at the root, and
   the anchor keeps only the root's pid. *)
let test_anchored_chain () =
  let spec = Plan.join_of_shape (shape_of "/Root/A/C") in
  let chain = List.hd spec.Plan.chains in
  Alcotest.(check bool) "anchored" true chain.Plan.anchored;
  Alcotest.(check (list string)) "masks"
    [ "0011"; "0011"; "0011" ]
    (Array.to_list (Array.map Bitvec.to_string (Path_join.chain_masks join spec chain)));
  let unanchored =
    let a = Plan.join_of_shape (shape_of "/A") in
    Path_join.chain_masks join a (List.hd a.Plan.chains)
  in
  Alcotest.(check string) "A is not the root" "0000" (Bitvec.to_string unanchored.(0));
  let r = Path_join.exec join spec in
  Alcotest.(check (list string)) "Root" [ Paper_fixture.p9 ] (pids r (Pattern.In_trunk 0));
  Alcotest.(check (list string)) "A"
    (List.sort compare [ Paper_fixture.p6; Paper_fixture.p7 ])
    (pids r (Pattern.In_trunk 1));
  Alcotest.(check (list string)) "C"
    (List.sort compare [ Paper_fixture.p2; Paper_fixture.p3 ])
    (pids r (Pattern.In_trunk 2));
  (* /A without chain pruning, which would empty A first: the anchor
     drops all three A pids, none of which is the root's *)
  Counters.with_enabled (fun () ->
      ignore (run (Path_join.create ~chain_pruning:false summary) (shape_of "/A")));
  Alcotest.(check int) "anchor pruned" 3 (pruned "anchor")

(* Row sets of more than two words: XMark's parlist row spans four,
   listitem's three.  A lone node keeps its whole row in order, and
   joins over the wide rows match the per-bit reference with chain
   pruning on and off. *)
let test_wide_row_sets () =
  let summary = Lazy.force xmark in
  let row tag = Summary.tag_pids summary tag in
  List.iter
    (fun tag ->
      if List.length (row tag) <= 124 then
        Alcotest.failf "%s has %d pids, want > 124" tag (List.length (row tag)))
    [ "parlist"; "listitem" ];
  List.iter
    (fun chain_pruning ->
      let join = Path_join.create ~chain_pruning summary in
      let r = run join (shape_of "//parlist") in
      if bits_of_row (Path_join.pids r (Pattern.In_trunk 0)) <> bits_of_row (row "parlist")
      then Alcotest.fail "//parlist keeps its row";
      List.iter
        (fun q ->
          let spec = Plan.join_of_shape (shape_of q) in
          let result = Path_join.exec join spec in
          Array.iteri
            (fun id expected ->
              let pos = spec.Plan.nodes.(id).Plan.position in
              if bits_of_row (Path_join.pids result pos) <> bits_of_row expected then
                Alcotest.failf "%s (chain pruning %b): node %d rows differ" q chain_pruning id)
            (Reference.run ~chain_pruning summary spec))
        [ "//parlist/listitem"; "//listitem//parlist"; "//listitem/parlist/listitem/text" ])
    [ true; false ]

(* A document with 300 paths: the root's row holds them all, so its
   path -> slice index takes two bytes a path, the leaves' one. *)
let test_wide_slice_index () =
  let tags = List.init 300 (Printf.sprintf "c%d") in
  let leaf tag = Tree.elem tag [ Tree.leaf "x" ] in
  let summary = Summary.build (Doc.of_tree (Tree.elem "r" (List.map leaf tags))) in
  List.iter
    (fun chain_pruning ->
      let join = Path_join.create ~chain_pruning summary in
      List.iter
        (fun q ->
          let spec = Plan.join_of_shape (shape_of q) in
          let result = Path_join.exec join spec in
          Array.iteri
            (fun id expected ->
              let pos = spec.Plan.nodes.(id).Plan.position in
              if bits_of_row (Path_join.pids result pos) <> bits_of_row expected then
                Alcotest.failf "%s (chain pruning %b): node %d rows differ" q chain_pruning id)
            (Reference.run ~chain_pruning summary spec))
        [ "/r/c7"; "//r//c299/x"; "//r/x"; "//c0/x" ];
      let r = run join (shape_of "/r/c299/x") in
      Alcotest.(check (float 0.0)) "f(r)" 1.0 (Path_join.frequency r (Pattern.In_trunk 0));
      Alcotest.(check (float 0.0)) "f(x)" 1.0 (Path_join.frequency r (Pattern.In_trunk 2)))
    [ true; false ]

let () =
  Alcotest.run "path_join"
    [
      ( "unit",
        [
          Alcotest.test_case "simple join" `Quick test_simple_join_keeps_matching_pids;
          Alcotest.test_case "child vs descendant" `Quick test_child_vs_descendant;
          Alcotest.test_case "anchor" `Quick test_anchor_constraint;
          Alcotest.test_case "frequencies" `Quick test_frequency_sums;
          Alcotest.test_case "ordered positions" `Quick test_ordered_positions;
          Alcotest.test_case "bad position" `Quick test_position_not_in_shape;
          Alcotest.test_case "theorem 4.1 exact on layered data" `Quick
            test_theorem_4_1_exact_on_regular_data;
          Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
          Alcotest.test_case "anchored chain" `Quick test_anchored_chain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_join_sound; prop_simple_frequency_upper_bound ] );
      ( "mask oracle",
        List.map
          (fun name ->
            Alcotest.test_case (Registry.to_string name) `Slow
              (test_masks_match_per_bit_rules name))
          [ Registry.Ssplays; Registry.Dblp; Registry.Xmark ] );
      ( "row sets",
        [
          Alcotest.test_case "pruning counts (XMark)" `Slow test_pruning_counts;
          Alcotest.test_case "uncached join allocation (XMark)" `Slow
            test_uncached_join_allocation;
          Alcotest.test_case "wide row sets (XMark)" `Slow test_wide_row_sets;
          Alcotest.test_case "wide slice index" `Quick test_wide_slice_index;
        ] );
    ]
