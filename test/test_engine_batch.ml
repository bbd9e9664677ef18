(* Differential testing of batched estimation against the scalar path.

   estimate_many's contract is bit-identity: for every query in the
   batch, the returned float must have the same bit pattern as a
   scalar Estimator.estimate call on a fresh estimator.  This is
   checked over the full generated workload (all four query classes)
   of the three synthetic datasets with fixed seeds, and again with a
   tiny cache capacity so the bounded LRU caches actually evict
   mid-batch — eviction must never change a result, only recompute
   it. *)

module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Cache_config = Xpest_plan.Cache_config
module Estimator = Xpest_estimator.Estimator
module Workload = Xpest_workload.Workload
module Registry = Xpest_datasets.Registry

let min_cases = 500

let profiles =
  [
    (Registry.Ssplays, 0.1, 8101);
    (Registry.Dblp, 0.05, 8102);
    (Registry.Xmark, 0.05, 8103);
  ]

let workload_patterns ~wseed doc =
  let config =
    {
      Workload.default_config with
      seed = wseed;
      num_simple = 1500;
      num_branch = 1500;
    }
  in
  Workload.patterns (Workload.all_items (Workload.generate ~config doc))

let check_bit_identical ~label scalar batch =
  Alcotest.(check int)
    (label ^ ": lengths") (Array.length scalar) (Array.length batch);
  Array.iteri
    (fun i s ->
      if Int64.bits_of_float s <> Int64.bits_of_float batch.(i) then
        Alcotest.failf "%s: query %d: scalar %h <> batch %h" label i s
          batch.(i))
    scalar

let test_profile (name, scale, wseed) () =
  let doc = Registry.generate ~scale name in
  let summary = Summary.build ~p_variance:0.0 ~o_variance:0.0 doc in
  let patterns = workload_patterns ~wseed doc in
  let n = Array.length patterns in
  if n < min_cases then
    Alcotest.failf "only %d workload queries (need >= %d)" n min_cases;
  (* scalar reference on a fresh estimator *)
  let scalar =
    let est = Estimator.create summary in
    Array.map (fun q -> Estimator.estimate est q) patterns
  in
  (* batch on a fresh estimator *)
  let batch = Estimator.estimate_many (Estimator.create summary) patterns in
  check_bit_identical ~label:"batch vs scalar" scalar batch;
  (* batch with duplicates: the dedupe path must fan the same float
     back out *)
  let doubled = Array.append patterns patterns in
  let batch2 = Estimator.estimate_many (Estimator.create summary) doubled in
  check_bit_identical ~label:"doubled, first half" scalar
    (Array.sub batch2 0 n);
  check_bit_identical ~label:"doubled, second half" scalar
    (Array.sub batch2 n n);
  (* a warm estimator must agree with its own cold pass *)
  let est = Estimator.create summary in
  let cold = Estimator.estimate_many est patterns in
  let warm = Estimator.estimate_many est patterns in
  check_bit_identical ~label:"warm vs cold" cold warm

(* Tiny caches force LRU evictions mid-batch; results must not move. *)
let test_tiny_capacity (name, scale, wseed) () =
  let doc = Registry.generate ~scale name in
  let summary = Summary.build ~p_variance:0.0 ~o_variance:0.0 doc in
  let patterns = workload_patterns ~wseed doc in
  let scalar =
    let est = Estimator.create summary in
    Array.map (fun q -> Estimator.estimate est q) patterns
  in
  let tiny =
    Estimator.estimate_many
      (Estimator.create
         ~config:{ Cache_config.default with plan = 8; run = 8 }
         summary)
      patterns
  in
  check_bit_identical ~label:"capacity-8 batch vs default scalar" scalar tiny;
  (* skewed per-cache capacities: starving one cache must not change
     results either, only recompute them *)
  let skewed =
    Estimator.estimate_many
      (Estimator.create
         ~config:{ Cache_config.default with plan = 4; run = 3 }
         summary)
      patterns
  in
  check_bit_identical ~label:"skewed capacities vs default scalar" scalar skewed;
  let tiny_scalar_est =
    Estimator.create
      ~config:{ Cache_config.default with plan = 2; run = 2 }
      summary
  in
  let tiny_scalar =
    Array.map (fun q -> Estimator.estimate tiny_scalar_est q) patterns
  in
  check_bit_identical ~label:"capacity-2 scalar vs default scalar" scalar
    tiny_scalar

let () =
  let case (name, scale, wseed) =
    Alcotest.test_case
      (Printf.sprintf "%s (scale %g)" (Registry.to_string name) scale)
      `Slow
      (test_profile (name, scale, wseed))
  in
  let tiny (name, scale, wseed) =
    Alcotest.test_case
      (Printf.sprintf "%s (tiny caches)" (Registry.to_string name))
      `Slow
      (test_tiny_capacity (name, scale, wseed))
  in
  Alcotest.run "engine_batch"
    [
      ("batch_vs_scalar", List.map case profiles);
      ("bounded_caches", List.map tiny profiles);
    ]
