(* Randomized differential testing of the estimator against the exact
   Truth oracle.

   The Workload generator (driven by the splitmix64 PRNG with fixed
   seeds) produces hundreds of patterns per synthetic dataset, each
   carrying its exact selectivity.  For every generated pattern we
   assert the estimator's global invariants — estimates are finite and
   non-negative — and for the class Theorem 4.1 covers (simple
   child/descendant-only queries over an exact synopsis, p_variance=0)
   we assert the estimate never undershoots the oracle, and equals it
   exactly on documents that satisfy the theorem's premise: no tag
   occurs twice on one root-to-leaf path.  SSPlays and DBLP are
   recursion-free; XMark's parlist/listitem recursion makes the path
   join an upper bound there (an element's path id cannot distinguish
   tags above it from the same tags below it on the same path).

   The same checks also run against a synopsis that went through a
   save/load round-trip, so the differential suite hardens the codec
   as well as the estimator. *)

module Doc = Xpest_xml.Doc
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Summary = Xpest_synopsis.Summary
module Estimator = Xpest_estimator.Estimator
module Workload = Xpest_workload.Workload
module Registry = Xpest_datasets.Registry

let min_cases = 500

(* Fixed per-dataset seeds: document generation uses the registry's
   per-dataset defaults; the workload seed is pinned here. *)
let profiles =
  [
    (Registry.Ssplays, 0.1, 7101);
    (Registry.Dblp, 0.05, 7102);
    (Registry.Xmark, 0.05, 7103);
  ]

let workload_items ~wseed doc =
  let config =
    {
      Workload.default_config with
      seed = wseed;
      num_simple = 2500;
      num_branch = 2500;
    }
  in
  let w = Workload.generate ~config doc in
  List.concat
    [
      w.Workload.simple;
      w.Workload.branch;
      w.Workload.order_branch_target;
      w.Workload.order_trunk_target;
    ]

let is_simple (q : Pattern.t) =
  match Pattern.shape q with
  | Pattern.Simple _ -> true
  | Pattern.Branch _ | Pattern.Ordered _ -> false

(* Theorem 4.1's premise: no tag occurs twice on one root-to-leaf
   path. *)
let recursion_free summary =
  List.for_all
    (fun path ->
      let sorted = List.sort String.compare path in
      let rec no_dup = function
        | a :: (b :: _ as tl) -> (not (String.equal a b)) && no_dup tl
        | [ _ ] | [] -> true
      in
      no_dup sorted)
    (Summary.paths summary)

let check_invariants ~label ~exact est items =
  let simple_checked = ref 0 in
  List.iter
    (fun (it : Workload.item) ->
      let qs = Pattern.to_string it.pattern in
      let estimate = Estimator.estimate est it.pattern in
      if not (Float.is_finite estimate) then
        Alcotest.failf "%s: %s: estimate %g is not finite" label qs estimate;
      if estimate < 0.0 then
        Alcotest.failf "%s: %s: estimate %g is negative" label qs estimate;
      if is_simple it.pattern then begin
        incr simple_checked;
        let actual = Float.of_int it.Workload.actual in
        let tolerance = 1e-6 *. Float.max 1.0 actual in
        (* The v=0 path join never loses a true match: a matching
           element's path id always survives, so simple estimates are
           lower-bounded by the oracle... *)
        if estimate < actual -. tolerance then
          Alcotest.failf "%s: %s: simple query estimate %g < oracle %d" label
            qs estimate it.Workload.actual;
        (* ...and Theorem 4.1 makes them exact on recursion-free
           documents. *)
        if exact && Float.abs (estimate -. actual) > tolerance then
          Alcotest.failf "%s: %s: simple query estimate %g <> oracle %d" label
            qs estimate it.Workload.actual
      end)
    items;
  !simple_checked

let test_dataset (name, scale, wseed) () =
  let doc = Registry.generate ~scale name in
  let items = workload_items ~wseed doc in
  let n = List.length items in
  if n < min_cases then
    Alcotest.failf "only %d generated cases for %s (need >= %d)" n
      (Registry.to_string name) min_cases;
  let summary = Summary.build ~p_variance:0.0 ~o_variance:0.0 doc in
  let exact = recursion_free summary in
  let checked =
    check_invariants ~label:"in-memory" ~exact (Estimator.create summary) items
  in
  Alcotest.(check bool) "some simple queries were checked against the oracle"
    true (checked > 0);
  (* The loaded synopsis must satisfy the same invariants, including
     Theorem 4.1 exactness. *)
  let loaded = Summary.decode (Summary.encode summary) in
  ignore
    (check_invariants ~label:"loaded" ~exact (Estimator.create loaded) items)

let test_deterministic () =
  (* Same seeds, same workload: the suite is reproducible in CI. *)
  let doc = Registry.generate ~scale:0.05 Registry.Xmark in
  let p0 =
    List.map
      (fun (it : Workload.item) -> Pattern.to_string it.pattern)
      (workload_items ~wseed:7103 doc)
  in
  let p1 =
    List.map
      (fun (it : Workload.item) -> Pattern.to_string it.pattern)
      (workload_items ~wseed:7103 doc)
  in
  Alcotest.(check (list string)) "identical workloads" p0 p1

let () =
  Alcotest.run "differential"
    [
      ( "datasets",
        List.map
          (fun ((name, _, _) as profile) ->
            Alcotest.test_case (Registry.to_string name) `Quick
              (test_dataset profile))
          profiles );
      ( "reproducibility",
        [ Alcotest.test_case "fixed seeds" `Quick test_deterministic ] );
    ]
