(* Plan-compiler unit tests.

   The compiler's equation choice is the estimator's dispatch, so the
   tags are pinned here for the paper's example query forms: a wrong
   tag means a different estimation formula would fire. *)

module Pattern = Xpest_xpath.Pattern
module Plan = Xpest_plan.Plan

let check_eq query expected =
  let plan = Plan.compile (Pattern.of_string query) in
  Alcotest.(check string)
    query expected
    (Plan.equation_name (Plan.equation plan))

(* ------------------------------------------------------------------ *)
(* Equation tags for the paper's query forms.                          *)

let test_simple () =
  check_eq "//A//{C}" "theorem_4_1";
  check_eq "/{A}" "theorem_4_1";
  check_eq "//A/B/{D}" "theorem_4_1"

let test_branch () =
  (* tail target: Equation 2 through Q' = trunk/tail *)
  check_eq "//A[/C/F]/B/{D}" "equation_2";
  (* branch target: Equation 2 through Q' = trunk/branch *)
  check_eq "//A[/C/{F}]/B/D" "equation_2";
  (* trunk target: the joined frequency is the answer *)
  check_eq "//{A}[/C/F]/B/D" "theorem_4_1"

let test_order_sibling () =
  (* head of the second branch: Equation 3 *)
  check_eq "//A[/C/folls::{B}/D]" "equation_3";
  (* head of the first branch: Equation 3 *)
  check_eq "//A[/{C}/folls::B/D]" "equation_3";
  (* deeper in the second branch: Equation 4 *)
  check_eq "//A[/C/folls::B/{D}]" "equation_4";
  check_eq "//A[/C/F/pres::B/{D}]" "equation_4";
  (* trunk target of an order query: Equation 5 *)
  check_eq "//{A}[/C/folls::B/D]" "equation_5";
  check_eq "//{A}[/C/pres::B]" "equation_5"

let test_conversion () =
  (* [following]/[preceding] convert to sibling-axis queries at
     execution time, whatever the target position *)
  check_eq "//A[/C/foll::{B}]" "conversion_5_3";
  check_eq "//A[/C/foll::B/{D}]" "conversion_5_3";
  check_eq "//{A}[/C/prec::B]" "conversion_5_3";
  check_eq "//A[/{C}/prec::B]" "conversion_5_3"

let test_compile_position () =
  let q = Pattern.of_string "//A[/C/F]/B/{D}" in
  let retargeted = Plan.compile_position q (Pattern.In_trunk 0) in
  Alcotest.(check string)
    "retargeted to trunk" "theorem_4_1"
    (Plan.equation_name (Plan.equation retargeted));
  Alcotest.check_raises "invalid position"
    (Invalid_argument "Pattern.v: target position outside the pattern")
    (fun () -> ignore (Plan.compile_position q (Pattern.In_trunk 9)))

(* ------------------------------------------------------------------ *)
(* Join-spec structure.                                                *)

let test_join_spec () =
  let plan = Plan.compile (Pattern.of_string "//A[/C/F]/B/{D}") in
  let spec = plan.Plan.join in
  Alcotest.(check int) "nodes" 5 (Array.length spec.Plan.nodes);
  Alcotest.(check int) "edges" 4 (List.length spec.Plan.edges);
  Alcotest.(check int) "chains" 2 (List.length spec.Plan.chains);
  Alcotest.(check bool)
    "descendant head => unanchored chains" true
    (List.for_all (fun (c : Plan.chain) -> not c.Plan.anchored) spec.Plan.chains);
  (* an anchored head anchors every chain *)
  let anchored = Plan.compile (Pattern.of_string "/A[/C]/{B}") in
  Alcotest.(check bool)
    "child head => anchored chains" true
    (List.for_all
       (fun (c : Plan.chain) -> c.Plan.anchored)
       anchored.Plan.join.Plan.chains)

let test_eq2_precompiled () =
  let plan = Plan.compile (Pattern.of_string "//A[/C/F]/B/{D}") in
  match plan.Plan.eq2 with
  | None -> Alcotest.fail "equation-2 plan lacks its eq2 record"
  | Some e ->
      (* Q' drops the branch: trunk (1) + tail (2) nodes *)
      Alcotest.(check int) "q' nodes" 3 (Array.length e.Plan.q_prime.Plan.nodes);
      Alcotest.(check bool)
        "ni = last trunk node" true
        (e.Plan.ni = Pattern.In_trunk 0);
      Alcotest.(check bool)
        "target spliced after the trunk" true
        (e.Plan.pos_in_q' = Pattern.In_trunk 2)

let test_pp_smoke () =
  let dump q = Plan.to_string (Plan.compile (Pattern.of_string q)) in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let d = dump "//A[/C/F]/B/{D}" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pp mentions " ^ needle) true (contains d needle))
    [ "equation_2"; "tail[1]"; "chain 0"; "Q' = //A/B/D"; "//A[/C/F]/B/{D}" ];
  let d = dump "//A[/C/folls::{B}/D]" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pp mentions " ^ needle) true (contains d needle))
    [ "equation_3"; "second[0]" ]

(* ------------------------------------------------------------------ *)
(* Order specs: one plan per order equation, every spec it carries.    *)

let shape_of q = Pattern.shape (Pattern.of_string q)

let check_shape label q (spec : Plan.join_spec) =
  Alcotest.(check bool) (label ^ " = " ^ q) true (spec.Plan.shape = shape_of q)

let check_position label expected actual =
  Alcotest.(check string) label (Plan.position_name expected) (Plan.position_name actual)

let order_of q =
  let plan = Plan.compile (Pattern.of_string q) in
  match plan.Plan.order with
  | Some o ->
      (* the counterpart spec is the counterpart's own compiled join *)
      Alcotest.(check bool) "counterpart spec" true
        (o.Plan.counterpart = Plan.join_of_shape (Pattern.counterpart (shape_of q)));
      (plan, o)
  | None -> Alcotest.failf "%s: no order specs" q

let check_head (h : Plan.order_head) ~head ~reduced ~reduced_head ~via ~own ~other ~region =
  check_position "head" head h.Plan.head;
  check_shape "reduced" reduced h.Plan.reduced;
  check_position "head in reduced" reduced_head h.Plan.reduced_head;
  check_shape "via" via h.Plan.via.Plan.q_prime;
  Alcotest.(check (pair string string)) "tags" (own, other) (h.Plan.own_tag, h.Plan.other_tag);
  Alcotest.(check bool) "region" true (h.Plan.region = region)

let test_order_specs_eq3 () =
  let _, o = order_of "//A[/C/folls::{B}/D]" in
  check_shape "counterpart" "//A[/C]/B/D" o.Plan.counterpart;
  match o.Plan.bound with
  | Plan.Off_trunk { target; head } ->
      check_head head ~head:(Pattern.In_second 0) ~reduced:"//A[/C]/B/D"
        ~reduced_head:(Pattern.In_tail 0) ~via:"//A/B/D" ~own:"B" ~other:"C" ~region:Plan.After;
      (* the first branch is one step: cutting it changes nothing *)
      Alcotest.(check bool) "reduced is the counterpart" true (head.Plan.reduced == o.Plan.counterpart);
      Alcotest.(check bool) "the target is the head" true (target == head.Plan.via);
      check_position "n_i" (Pattern.In_trunk 0) target.Plan.ni;
      check_position "target in Q'" (Pattern.In_trunk 1) target.Plan.pos_in_q'
  | Plan.On_trunk _ -> Alcotest.fail "equation 3 with a trunk bound"

let test_order_specs_eq4 () =
  let _, o = order_of "//A[/C/E/folls::B/{D}]" in
  check_shape "counterpart" "//A[/C/E]/B/D" o.Plan.counterpart;
  match o.Plan.bound with
  | Plan.Off_trunk { target; head } ->
      check_head head ~head:(Pattern.In_second 0) ~reduced:"//A[/C]/B/D"
        ~reduced_head:(Pattern.In_tail 0) ~via:"//A/B/D" ~own:"B" ~other:"C" ~region:Plan.After;
      Alcotest.(check bool) "Q' shared with the head" true
        (target.Plan.q_prime == head.Plan.via.Plan.q_prime);
      check_position "target in Q'" (Pattern.In_trunk 2) target.Plan.pos_in_q'
  | Plan.On_trunk _ -> Alcotest.fail "equation 4 with a trunk bound"

let test_order_specs_eq5 () =
  let plan, o = order_of "//{A}[/C/E/pres::B/D]" in
  check_shape "counterpart" "//A[/C/E]/B/D" o.Plan.counterpart;
  (match o.Plan.bound with
  | Plan.On_trunk { first; second } ->
      check_head first ~head:(Pattern.In_first 0) ~reduced:"//A[/C/E]/B"
        ~reduced_head:(Pattern.In_branch 0) ~via:"//A/C/E" ~own:"C" ~other:"B" ~region:Plan.After;
      check_head second ~head:(Pattern.In_second 0) ~reduced:"//A[/C]/B/D"
        ~reduced_head:(Pattern.In_tail 0) ~via:"//A/B/D" ~own:"B" ~other:"C" ~region:Plan.Before
  | Plan.Off_trunk _ -> Alcotest.fail "equation 5 with an off-trunk bound");
  Alcotest.(check (list string)) "plan dump"
    [
      "  order     Q = //A[/C/E]/B/D (the order axis dropped)";
      "  head      first[0] = C, after B: Q' = //A[/C/E]/B at branch[0], Eq. 2 via //A/C/E";
      "  head      second[0] = B, before C: Q' = //A[/C]/B/D at tail[0], Eq. 2 via //A/B/D";
    ]
    (List.filter
       (fun line -> String.starts_with ~prefix:"  order" line || String.starts_with ~prefix:"  head" line)
       (String.split_on_char '\n' (Plan.to_string plan)))

(* Conversion 5.3 carries no order specs: its sibling-axis rewrites
   depend on the summary and compile at execution. *)
let test_order_specs_conversion () =
  let plan = Plan.compile (Pattern.of_string "//A[/C/foll::{B}]") in
  Alcotest.(check bool) "no order specs" true (plan.Plan.order = None);
  Alcotest.check_raises "not a sibling-order query"
    (Invalid_argument "Plan.compile_order: not a sibling-order query") (fun () ->
      ignore (Plan.compile_order (shape_of "//A[/C/foll::{B}]") (Pattern.In_second 0)));
  let o = Plan.compile_order (shape_of "//A[/C/folls::X/B]") (Pattern.In_second 1) in
  match o.Plan.bound with
  | Plan.Off_trunk { target; head } ->
      check_shape "via" "//A/X/B" head.Plan.via.Plan.q_prime;
      check_position "target in Q'" (Pattern.In_trunk 2) target.Plan.pos_in_q'
  | Plan.On_trunk _ -> Alcotest.fail "a gap rewrite with a trunk bound"

(* ------------------------------------------------------------------ *)
(* Run-cache keys.                                                     *)

(* Every join spec a plan carries. *)
let plan_specs (plan : Plan.t) =
  let q_prime (e : Plan.eq2) = e.Plan.q_prime in
  let head (h : Plan.order_head) = [ h.Plan.reduced; q_prime h.Plan.via ] in
  (plan.Plan.join :: Option.to_list (Option.map q_prime plan.Plan.eq2))
  @
  match plan.Plan.order with
  | None -> []
  | Some o -> (
      o.Plan.counterpart
      ::
      (match o.Plan.bound with
      | Plan.Off_trunk { target; head = h } -> q_prime target :: head h
      | Plan.On_trunk { first; second } -> head first @ head second))

(* Over every spec the workloads compile, counterparts included, all
   held live: two specs share a key iff their shapes are equal, so the
   run cache can look results up by key alone. *)
let test_run_keys () =
  let module Registry = Xpest_datasets.Registry in
  let module Workload = Xpest_workload.Workload in
  let config = { Workload.default_config with num_simple = 300; num_branch = 300 } in
  let specs =
    List.concat_map
      (fun name ->
        let doc = Registry.generate ~scale:0.05 name in
        List.concat_map
          (fun (it : Workload.item) -> plan_specs (Plan.compile it.Workload.pattern))
          (Workload.all_items (Workload.generate ~config doc)))
      [ Registry.Ssplays; Registry.Dblp; Registry.Xmark ]
  in
  let by_key = Hashtbl.create 4096 and by_shape = Hashtbl.create 4096 in
  List.iter
    (fun (spec : Plan.join_spec) ->
      let label = Pattern.to_string (Pattern.v spec.Plan.shape (Pattern.In_trunk 0)) in
      (match Hashtbl.find_opt by_key spec.Plan.key with
      | Some shape when not (Pattern.shape_equal shape spec.Plan.shape) ->
          Alcotest.failf "%s shares key %d with another shape" label spec.Plan.key
      | Some _ -> ()
      | None -> Hashtbl.add by_key spec.Plan.key spec.Plan.shape);
      match Hashtbl.find_opt by_shape spec.Plan.shape with
      | Some key when key <> spec.Plan.key ->
          Alcotest.failf "%s has keys %d and %d" label key spec.Plan.key
      | Some _ -> ()
      | None -> Hashtbl.add by_shape spec.Plan.shape spec.Plan.key)
    specs;
  let shapes = Hashtbl.length by_shape in
  if shapes < 500 || List.length specs < shapes + 500 then
    Alcotest.failf "%d specs over %d shapes: too few to test sharing" (List.length specs) shapes

let () =
  Alcotest.run "plan"
    [
      ( "equations",
        [
          Alcotest.test_case "simple" `Quick test_simple;
          Alcotest.test_case "branch" `Quick test_branch;
          Alcotest.test_case "order (sibling)" `Quick test_order_sibling;
          Alcotest.test_case "order (conversion)" `Quick test_conversion;
          Alcotest.test_case "compile_position" `Quick test_compile_position;
        ] );
      ( "ir",
        [
          Alcotest.test_case "join spec" `Quick test_join_spec;
          Alcotest.test_case "eq2 precompiled" `Quick test_eq2_precompiled;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "order specs (equation 3)" `Quick test_order_specs_eq3;
          Alcotest.test_case "order specs (equation 4)" `Quick test_order_specs_eq4;
          Alcotest.test_case "order specs (equation 5)" `Quick test_order_specs_eq5;
          Alcotest.test_case "order specs (conversion)" `Quick test_order_specs_conversion;
          Alcotest.test_case "run-cache keys" `Slow test_run_keys;
        ] );
    ]
