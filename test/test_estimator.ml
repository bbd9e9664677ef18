module Tree = Xpest_xml.Tree
module Doc = Xpest_xml.Doc
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Summary = Xpest_synopsis.Summary
module Estimator = Xpest_estimator.Estimator
module Stats = Xpest_util.Stats
module Workload = Xpest_workload.Workload
module Registry = Xpest_datasets.Registry
module Counters = Xpest_util.Counters
module Plan = Xpest_plan.Plan

let estimator_for doc = Estimator.create (Summary.build doc)

(* ------------------------------------------------------------------ *)
(* Unit behaviour beyond the paper's worked examples (covered in
   test_paper_examples). *)

let doc = Paper_fixture.doc
let est = estimator_for doc

let check_est name expected q =
  Alcotest.(check (float 1e-6))
    name expected
    (Estimator.estimate est (Pattern.of_string q))

let test_simple_queries_exact () =
  check_est "//D" 4.0 "//{D}";
  check_est "//B/D" 4.0 "//B/{D}";
  check_est "/Root/A" 3.0 "/Root/{A}";
  check_est "//A/C/E" 2.0 "//A/C/{E}"

let test_negative_queries () =
  check_est "//F/D impossible" 0.0 "//F/{D}";
  check_est "unknown tag" 0.0 "//Zebra/{D}";
  check_est "impossible branch" 0.0 "//D[/E]/{F}"

let test_trunk_upper_bound () =
  (* Equation 5 never exceeds the order-free estimate *)
  let ordered = Pattern.of_string "//{A}[/C/folls::B/D]" in
  let plain = Pattern.of_string "//{A}[/C]/B/D" in
  Alcotest.(check bool) "min-capped" true
    (Estimator.estimate est ordered <= Estimator.estimate est plain +. 1e-9)

let test_estimate_position_matches_target_variants () =
  let q = Pattern.of_string "//A[/C/F]/B/{D}" in
  List.iter
    (fun pos ->
      let retargeted = Pattern.v (Pattern.shape q) pos in
      Alcotest.(check (float 1e-9))
        "estimate_position = estimate of retargeted pattern"
        (Estimator.estimate est retargeted)
        (Estimator.estimate_position est q pos))
    [ Pattern.In_trunk 0; Pattern.In_branch 0; Pattern.In_branch 1;
      Pattern.In_tail 0; Pattern.In_tail 1 ]

let test_histogram_degrades_gracefully () =
  (* higher variance: different numbers, but still finite and
     non-negative *)
  let summary = Summary.build ~p_variance:10.0 ~o_variance:10.0 doc in
  let est = Estimator.create summary in
  List.iter
    (fun q ->
      let v = Estimator.estimate est (Pattern.of_string q) in
      Alcotest.(check bool) (q ^ " finite & >= 0") true
        (Float.is_finite v && v >= 0.0))
    [ "//{D}"; "//A[/C/F]/B/{D}"; "//A[/C/folls::{B}/D]"; "//A[/C/foll::{D}]" ]

let test_explain () =
  let q = Pattern.of_string "//A[/C/F/folls::{B}/D]" in
  let e = Estimator.explain est q in
  Alcotest.(check (float 1e-9)) "same value as estimate"
    (Estimator.estimate est q) e.Estimator.value;
  Alcotest.(check bool) "non-empty derivation" true (e.Estimator.derivation <> []);
  let mentions needle =
    List.exists
      (fun line ->
        let n = String.length needle in
        let rec go i =
          i + n <= String.length line
          && (String.sub line i n = needle || go (i + 1))
        in
        go 0)
      e.Estimator.derivation
  in
  Alcotest.(check bool) "mentions equation 2" true (mentions "equation 2");
  Alcotest.(check bool) "mentions the o-histogram" true (mentions "o-histogram");
  (* estimator still works after tracing *)
  Alcotest.(check (float 1e-9)) "post-explain estimate intact"
    e.Estimator.value (Estimator.estimate est q);
  (* trunk-target explanation goes through equation 5 *)
  let e5 =
    Estimator.explain est (Pattern.v (Pattern.shape q) (Pattern.In_trunk 0))
  in
  Alcotest.(check bool) "mentions equation 5" true
    (List.exists
       (fun line -> String.length line >= 10 && String.sub line 0 10 = "equation 5")
       e5.Estimator.derivation)

(* The full derivation of one query per equation, pinned: notes are
   formatted only under [explain], and that must not change a line. *)
let test_explain_derivations () =
  let e2 q =
    Printf.sprintf
      "equation 2: S_Q(n) ~ f_Q'(n) * f_Q(ni) / f_Q'(ni) = %s (Q' drops the other branch; ni \
       = last trunk node)"
      q
  in
  let arrow = "\xe2\x83\x97" (* U+20D7, the combining arrow of S⃗ *) in
  let survival head s' r =
    Printf.sprintf
      "order survival of the %s head: S%s_Q'(head) = 2 from the o-histogram, S_Q'(head) = %s, \
       ratio %s"
      head arrow s' r
  in
  let second = [ e2 "4 * 2 / 3"; survival "second" "2.66667" "0.75"; e2 "4 * 2 / 3" ] in
  List.iter
    (fun (q, value, derivation) ->
      let e = Estimator.explain est (Pattern.of_string q) in
      Alcotest.(check (float 0.0)) (q ^ " value") value e.Estimator.value;
      Alcotest.(check (list string)) q derivation e.Estimator.derivation)
    [
      ("//A/C/{E}", 2.0, [ "theorem 4.1: f_Q(n) = 2 after the path join" ]);
      ("//A[/C/F]/B/{D}", 4.0 /. 3.0, [ e2 "4 * 1 / 3" ]);
      ("//A[/C/folls::{B}/D]", 2.0, second);
      ("//A[/C/folls::B/{D}]", 2.0, second);
      ( "//{A}[/C/folls::B/D]",
        2.0,
        [
          "trunk target: f_Q(n) = 2 after the path join";
          e2 "2 * 2 / 2";
          survival "first" "2" "1";
          e2 "2 * 2 / 2";
        ]
        @ second
        @ [
            Printf.sprintf "equation 5: min(S_Q(n)=2, S%s_Q(first head)=2, S%s_Q(second head)=2)"
              arrow arrow;
          ] );
      ( "//A[/C/foll::{D}]",
        2.0,
        "following-axis conversion (example 5.3): 1 sibling-axis querie(s) via gaps [B]"
        :: second );
    ]

(* ------------------------------------------------------------------ *)
(* Accuracy statistics on generated datasets at tiny scale: exact
   summaries must reproduce the paper's "very low error" claims. *)

let accuracy_harness name ~simple_bound gen_doc =
  let doc = gen_doc () in
  let config =
    { Workload.default_config with num_simple = 150; num_branch = 150 }
  in
  let w = Workload.generate ~config doc in
  let est = estimator_for doc in
  let mre items =
    match items with
    | [] -> 0.0
    | _ ->
        Stats.mean
          (Array.of_list
             (List.map
                (fun (it : Workload.item) ->
                  Stats.relative_error
                    ~actual:(Float.of_int it.actual)
                    ~estimate:(Estimator.estimate est it.pattern))
                items))
  in
  (* Theorem 4.1 gives exact simple queries on non-recursive data; on
     recursive data (XMark) distinct-depth occurrences of one tag can
     share a path id, leaving a small residual. *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: simple error <= %.0f%%" name (100. *. simple_bound))
    true
    (mre w.simple <= simple_bound);
  Alcotest.(check bool) (name ^ ": branch error < 10%") true
    (mre w.branch < 0.10);
  Alcotest.(check bool) (name ^ ": order (branch target) error < 15%") true
    (mre w.order_branch_target < 0.15);
  Alcotest.(check bool) (name ^ ": order (trunk target) error < 10%") true
    (mre w.order_trunk_target < 0.10)

let test_accuracy_ssplays () =
  accuracy_harness "ssplays" ~simple_bound:0.0 (fun () ->
      Doc.of_tree (Xpest_datasets.Ssplays.generate ~plays:2 ~seed:5 ()))

let test_accuracy_dblp () =
  accuracy_harness "dblp" ~simple_bound:0.0 (fun () ->
      Doc.of_tree (Xpest_datasets.Dblp.generate ~records:600 ~seed:5 ()))

let test_accuracy_xmark () =
  accuracy_harness "xmark" ~simple_bound:0.08 (fun () ->
      Doc.of_tree (Xpest_datasets.Xmark.generate ~scale:0.01 ~seed:5 ()))

(* ------------------------------------------------------------------ *)
(* Properties. *)

let tree_gen =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d" ] in
  sized_size (int_range 1 35) @@ fix (fun self n ->
      if n <= 1 then tag >|= Tree.leaf
      else
        tag >>= fun t ->
        list_size (int_range 0 4) (self (n / 4)) >|= fun cs -> Tree.elem t cs)

let spine_gen len =
  let open QCheck.Gen in
  list_size (return len)
    (pair (oneofl [ Pattern.Child; Pattern.Descendant ]) (oneofl [ "a"; "b"; "c"; "d" ]))
  >|= List.map (fun (axis, tag) -> Pattern.{ axis; tag })

let pattern_gen =
  let open QCheck.Gen in
  let child_head spine =
    match spine with
    | (s : Pattern.step) :: rest -> { s with Pattern.axis = Pattern.Child } :: rest
    | [] -> []
  in
  oneof
    [
      ( int_range 1 3 >>= spine_gen >|= fun s ->
        Pattern.v (Pattern.Simple s) (Pattern.In_trunk (List.length s - 1)) );
      ( triple (spine_gen 1) (spine_gen 1) (spine_gen 2)
      >|= fun (trunk, branch, tail) ->
        Pattern.v (Pattern.Branch { trunk; branch; tail }) (Pattern.In_tail 1) );
      ( triple (spine_gen 1) (spine_gen 1) (spine_gen 2)
      >>= fun (trunk, first, second) ->
        oneofl [ Pattern.Following_sibling; Pattern.Preceding_sibling ]
        >>= fun axis ->
        oneofl
          [ Pattern.In_trunk 0; Pattern.In_first 0; Pattern.In_second 0;
            Pattern.In_second 1 ]
        >|= fun pos ->
        Pattern.v
          (Pattern.Ordered
             { trunk; first = child_head first; axis; second = child_head second })
          pos );
    ]

let arb =
  QCheck.make
    QCheck.Gen.(pair tree_gen pattern_gen)
    ~print:(fun (t, p) ->
      Format.asprintf "%a |- %s" Tree.pp t (Pattern.to_string p))

let prop_estimates_well_formed =
  QCheck.Test.make ~name:"estimates are finite and non-negative" ~count:500
    arb (fun (tree, pattern) ->
      let est = estimator_for (Doc.of_tree tree) in
      let v = Estimator.estimate est pattern in
      Float.is_finite v && v >= 0.0)

let prop_zero_actual_not_wildly_positive =
  (* if the pattern genuinely has no match, the path join should kill
     at least the fully impossible tag combinations; we only require
     well-formedness plus: estimate of an unsatisfiable TAG (absent
     from the doc) is 0 *)
  QCheck.Test.make ~name:"absent tag estimates to 0" ~count:200
    (QCheck.make tree_gen ~print:(Format.asprintf "%a" Tree.pp))
    (fun tree ->
      let est = estimator_for (Doc.of_tree tree) in
      Estimator.estimate est (Pattern.of_string "//zzz/{a}") = 0.0
      && Estimator.estimate est (Pattern.of_string "//a/{zzz}") = 0.0)

(* A warm pass re-joins nothing: every spec an estimate runs, the
   order equations' included, is compiled with its plan and found in
   the run cache, and the values repeat bit for bit. *)
let test_warm_pass_joins_nothing () =
  let doc = Registry.generate ~scale:0.05 Registry.Dblp in
  let config = { Workload.default_config with num_simple = 100; num_branch = 100 } in
  let qs = Workload.patterns (Workload.all_items (Workload.generate ~config doc)) in
  let order =
    Array.fold_left
      (fun n q ->
        match Plan.equation (Plan.compile q) with
        | Plan.Equation_3 | Plan.Equation_4 | Plan.Equation_5 -> n + 1
        | _ -> n)
      0 qs
  in
  if order = 0 then Alcotest.fail "no order queries in the pool";
  let est = estimator_for doc in
  let cold = Array.map (Estimator.estimate est) qs in
  let warm = Counters.with_enabled (fun () -> Array.map (Estimator.estimate est) qs) in
  let count name = Option.value ~default:0 (List.assoc_opt name (Counters.counters ())) in
  Alcotest.(check int) "run-cache misses" 0 (count "path_join.run_cache.miss");
  Alcotest.(check int) "plan-cache misses" 0 (count "estimator.plan_cache.miss");
  Alcotest.(check bool) "run-cache hits" true (count "path_join.run_cache.hit" > 0);
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float cold.(i) then
        Alcotest.failf "%s: warm %h, cold %h" (Pattern.to_string qs.(i)) v cold.(i))
    warm

let () =
  Alcotest.run "estimator"
    [
      ( "unit",
        [
          Alcotest.test_case "simple exact" `Quick test_simple_queries_exact;
          Alcotest.test_case "negative queries" `Quick test_negative_queries;
          Alcotest.test_case "equation 5 caps" `Quick test_trunk_upper_bound;
          Alcotest.test_case "estimate_position" `Quick
            test_estimate_position_matches_target_variants;
          Alcotest.test_case "histogram degradation" `Quick
            test_histogram_degrades_gracefully;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "explain derivations" `Quick test_explain_derivations;
          Alcotest.test_case "warm pass joins nothing" `Quick test_warm_pass_joins_nothing;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "ssplays" `Quick test_accuracy_ssplays;
          Alcotest.test_case "dblp" `Quick test_accuracy_dblp;
          Alcotest.test_case "xmark" `Quick test_accuracy_xmark;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_estimates_well_formed; prop_zero_actual_not_wildly_positive ] );
    ]
