(* End-to-end reproduction of every worked example in the paper
   (Sections 2-5) on the Figure 1 instance. *)

module Bitvec = Xpest_util.Bitvec
module Doc = Xpest_xml.Doc
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Encoding_table = Xpest_encoding.Encoding_table
module Labeler = Xpest_encoding.Labeler
module Summary = Xpest_synopsis.Summary
module Pf_table = Xpest_synopsis.Pf_table
module Po_table = Xpest_synopsis.Po_table
module Path_join = Xpest_estimator.Path_join
module Estimator = Xpest_estimator.Estimator
module Plan = Xpest_plan.Plan

open Paper_fixture

let doc = Paper_fixture.doc
let table = Encoding_table.build doc
let labeler = Labeler.label doc table
let summary = Summary.build doc
let estimator = Estimator.create summary

let check_float = Alcotest.(check (float 1e-6))

let pid_of node = Labeler.pid labeler node

(* Find the i-th node (document order) with a tag. *)
let nth_tagged tag i = (Doc.nodes_with_tag doc tag).(i)

(* --- Section 2: the labeling scheme --- *)

let test_encoding_table () =
  Alcotest.(check int) "4 distinct paths" 4 (Encoding_table.num_paths table);
  Alcotest.(check (list (list string)))
    "paths in paper encoding order"
    [
      [ "Root"; "A"; "B"; "D" ];
      [ "Root"; "A"; "B"; "E" ];
      [ "Root"; "A"; "C"; "E" ];
      [ "Root"; "A"; "C"; "F" ];
    ]
    (Encoding_table.paths table)

let test_example_2_1 () =
  (* First leaf D has p5; first C node has p3 = or of E(p2), F(p1). *)
  let d0 = nth_tagged "D" 0 in
  Alcotest.(check string) "first D = p5" p5 (Bitvec.to_string (pid_of d0));
  (* first C in document order is the one under A(p7) with E and F *)
  let c0 = nth_tagged "C" 0 in
  Alcotest.(check string) "first C = p3" p3 (Bitvec.to_string (pid_of c0));
  Alcotest.(check string) "root = p9" p9
    (Bitvec.to_string (pid_of (Doc.root doc)))

let test_pathid_frequency_table () =
  (* Figure 2(a). *)
  let pf = Summary.pf_table (Summary.base summary) in
  let row tag =
    Array.to_list (Pf_table.entries pf tag)
    |> List.map (fun (e : Pf_table.entry) ->
           (Bitvec.to_string (Labeler.distinct_pids labeler).(e.pid_index), e.frequency))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int)))
    "A row" (List.sort compare [ (p6, 1); (p7, 1); (p8, 1) ])
    (row "A");
  Alcotest.(check (list (pair string int)))
    "B row" (List.sort compare [ (p8, 1); (p5, 3) ])
    (row "B");
  Alcotest.(check (list (pair string int)))
    "C row" (List.sort compare [ (p2, 1); (p3, 1) ])
    (row "C");
  Alcotest.(check (list (pair string int))) "D row" [ (p5, 4) ] (row "D");
  Alcotest.(check (list (pair string int)))
    "E row" (List.sort compare [ (p4, 1); (p2, 2) ])
    (row "E");
  Alcotest.(check (list (pair string int))) "F row" [ (p1, 1) ] (row "F")

let test_example_3_2 () =
  (* Figure 2(b): path-order table for B w.r.t. C: one B(p5) before C,
     two B(p5) after C. *)
  let po =
    match Summary.po_table (Summary.base summary) with
    | Some po -> po
    | None -> Alcotest.fail "order statistics missing"
  in
  let p5_index =
    match Labeler.index_of_pid labeler (bv p5) with
    | Some i -> i
    | None -> Alcotest.fail "p5 not interned"
  in
  Alcotest.(check int) "B(p5) before C" 1
    (Po_table.lookup po ~tag:"B" ~pid_index:p5_index ~other:"C" ~region:Before);
  Alcotest.(check int) "B(p5) after C" 2
    (Po_table.lookup po ~tag:"B" ~pid_index:p5_index ~other:"C" ~region:After)

(* --- Section 4: path join and order-free estimation --- *)

let join = Path_join.create summary

let pids_of result position =
  Path_join.pids result position
  |> List.map (fun (pid, f) -> (Bitvec.to_string pid, f))
  |> List.sort compare

let test_example_4_1 () =
  (* Q1 = //A[/C/F]/B/D, Figure 3(b): A {p7}, C {p3}, F {p1},
     B {p5 (freq 3)}, D {p5}. *)
  let shape =
    Pattern.Branch
      {
        trunk = [ { axis = Descendant; tag = "A" } ];
        branch = [ { axis = Child; tag = "C" }; { axis = Child; tag = "F" } ];
        tail = [ { axis = Child; tag = "B" }; { axis = Child; tag = "D" } ];
      }
  in
  let r = Path_join.exec join (Plan.join_of_shape shape) in
  Alcotest.(check (list (pair string (float 1e-6))))
    "A pids" [ (p7, 1.0) ]
    (pids_of r (Pattern.In_trunk 0));
  Alcotest.(check (list (pair string (float 1e-6))))
    "C pids" [ (p3, 1.0) ]
    (pids_of r (Pattern.In_branch 0));
  Alcotest.(check (list (pair string (float 1e-6))))
    "F pids" [ (p1, 1.0) ]
    (pids_of r (Pattern.In_branch 1));
  Alcotest.(check (list (pair string (float 1e-6))))
    "B pids" [ (p5, 3.0) ]
    (pids_of r (Pattern.In_tail 0));
  Alcotest.(check (list (pair string (float 1e-6))))
    "D pids" [ (p5, 4.0) ]
    (pids_of r (Pattern.In_tail 1))

let test_example_4_2 () =
  (* //A//C: selectivity 2 for both A and C (Theorem 4.1). *)
  let q =
    Pattern.v
      (Pattern.Simple
         [ { axis = Descendant; tag = "A" }; { axis = Descendant; tag = "C" } ])
      (Pattern.In_trunk 1)
  in
  check_float "S(C)" 2.0 (Estimator.estimate estimator q);
  check_float "S(A)" 2.0 (Estimator.estimate_position estimator q (Pattern.In_trunk 0));
  (* and the estimates agree with the ground truth *)
  Alcotest.(check int) "truth C" 2 (Truth.selectivity doc q)

let test_example_4_5 () =
  (* Q2 = //C[/E]/F with target E: estimated (and true) selectivity 1. *)
  let q =
    Pattern.v
      (Pattern.Branch
         {
           trunk = [ { axis = Descendant; tag = "C" } ];
           branch = [ { axis = Child; tag = "E" } ];
           tail = [ { axis = Child; tag = "F" } ];
         })
      (Pattern.In_branch 0)
  in
  check_float "S(E)" 1.0 (Estimator.estimate estimator q);
  Alcotest.(check int) "truth E" 1 (Truth.selectivity doc q);
  (* the estimate for C is the correct answer (Example 4.3) *)
  check_float "S(C)" 1.0 (Estimator.estimate_position estimator q (Pattern.In_trunk 0))

(* --- Section 5: order axes --- *)

let q_arrow_1 =
  (* Q⃗1 = //A[/C[/F]/folls::B/D] (paper Figure 5a). *)
  Pattern.v
    (Pattern.Ordered
       {
         trunk = [ { axis = Descendant; tag = "A" } ];
         first = [ { axis = Child; tag = "C" }; { axis = Child; tag = "F" } ];
         axis = Pattern.Following_sibling;
         second = [ { axis = Child; tag = "B" }; { axis = Child; tag = "D" } ];
       })
    (Pattern.In_second 0)

let test_example_5_1 () =
  (* Target B: S = 2 * 1.3333 / 2.6667 = 1. *)
  check_float "S(B)" 1.0 (Estimator.estimate estimator q_arrow_1);
  Alcotest.(check int) "truth B" 1 (Truth.selectivity doc q_arrow_1)

let test_example_5_2 () =
  (* Target D: S = 1.3333 * 2 / 2.6667 = 1. *)
  let q = Pattern.v (Pattern.shape q_arrow_1) (Pattern.In_second 1) in
  check_float "S(D)" 1.0 (Estimator.estimate estimator q);
  Alcotest.(check int) "truth D" 1 (Truth.selectivity doc q)

let test_example_5_3 () =
  (* //A[/C/foll::D] with target D: converted via the encoding table
     to //A[/C/folls::B/D]; true and estimated selectivity 2. *)
  let q =
    Pattern.v
      (Pattern.Ordered
         {
           trunk = [ { axis = Descendant; tag = "A" } ];
           first = [ { axis = Child; tag = "C" } ];
           axis = Pattern.Following;
           second = [ { axis = Descendant; tag = "D" } ];
         })
      (Pattern.In_second 0)
  in
  Alcotest.(check int) "truth D" 2 (Truth.selectivity doc q);
  check_float "S(D)" 2.0 (Estimator.estimate estimator q)

let test_preceding_sibling_mirror () =
  (* //A[/B/pres::C] with target C: the mirror of Equation 3 reads the
     +element region.  By hand: A(p7) and A(p6) each contribute one C
     preceding a B sibling, so the answer is 2; the o-histogram values
     g(p3, B, Before) = g(p2, B, Before) = 1 make the estimate exact. *)
  let q =
    Pattern.v
      (Pattern.Ordered
         {
           trunk = [ { axis = Descendant; tag = "A" } ];
           first = [ { axis = Child; tag = "B" } ];
           axis = Pattern.Preceding_sibling;
           second = [ { axis = Child; tag = "C" } ];
         })
      (Pattern.In_second 0)
  in
  Alcotest.(check int) "truth C" 2 (Truth.selectivity doc q);
  check_float "S(C)" 2.0 (Estimator.estimate estimator q);
  (* first-branch target: Bs with a C sibling before them — the second
     B of A(p7) and the B of A(p6) *)
  let q_first = Pattern.v (Pattern.shape q) (Pattern.In_first 0) in
  Alcotest.(check int) "truth B" 2 (Truth.selectivity doc q_first);
  check_float "S(B)" 2.0 (Estimator.estimate estimator q_first)

let test_trunk_target_eq5 () =
  (* Target A in Q⃗1: Equation (5) caps by the sibling-head estimates;
     the true value is 1. *)
  let q = Pattern.v (Pattern.shape q_arrow_1) (Pattern.In_trunk 0) in
  Alcotest.(check int) "truth A" 1 (Truth.selectivity doc q);
  check_float "S(A)" 1.0 (Estimator.estimate estimator q)

let () =
  Alcotest.run "paper_examples"
    [
      ( "section2",
        [
          Alcotest.test_case "encoding table (Fig 1b)" `Quick test_encoding_table;
          Alcotest.test_case "example 2.1" `Quick test_example_2_1;
        ] );
      ( "section3",
        [
          Alcotest.test_case "pathId-frequency (Fig 2a)" `Quick
            test_pathid_frequency_table;
          Alcotest.test_case "path-order for B (Fig 2b, Ex 3.2)" `Quick
            test_example_3_2;
        ] );
      ( "section4",
        [
          Alcotest.test_case "example 4.1 (path join, Fig 3)" `Quick
            test_example_4_1;
          Alcotest.test_case "example 4.2 (simple query)" `Quick test_example_4_2;
          Alcotest.test_case "example 4.5 (branch query)" `Quick test_example_4_5;
        ] );
      ( "section5",
        [
          Alcotest.test_case "example 5.1 (folls, target sibling)" `Quick
            test_example_5_1;
          Alcotest.test_case "example 5.2 (folls, deep target)" `Quick
            test_example_5_2;
          Alcotest.test_case "example 5.3 (following conversion)" `Quick
            test_example_5_3;
          Alcotest.test_case "preceding-sibling mirror" `Quick
            test_preceding_sibling_mirror;
          Alcotest.test_case "equation 5 (trunk target)" `Quick
            test_trunk_target_eq5;
        ] );
    ]
