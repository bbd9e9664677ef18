(* Randomized differential testing of the domain-parallel batch paths
   against their sequential twins.

   The contract under test is bit-identity: for any domain count, any
   workload (duplicates included), any resident capacity (eviction
   mid-batch included) and any injected-fault schedule, the parallel
   run returns byte-for-byte the same results as the sequential run —
   same floats, same typed errors, in input order — and the catalog's
   acquire-side statistics (loads, hits, evictions, retries,
   quarantines) match exactly, because acquisition stays sequential by
   construction.  Everything is driven by fixed seeds, so a violation
   reproduces. *)

module Counters = Xpest_util.Counters
module Domain_pool = Xpest_util.Domain_pool
module Loader_pool = Xpest_util.Loader_pool
module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Registry = Xpest_datasets.Registry
module Estimator = Xpest_estimator.Estimator
module Workload = Xpest_workload.Workload
module Catalog = Xpest_catalog.Catalog

let domain_counts = [ 1; 2; 4; 8 ]
let load_domain_counts = [ 1; 2; 4 ]
let fault_seeds = [ 11; 23 ]
let fault_rates = [ 0.01; 0.1 ]

let bits = Int64.bits_of_float

let check_bits label expected got =
  if not (Int64.equal (bits expected) (bits got)) then
    Alcotest.failf "%s: %h <> %h (bit drift)" label expected got

(* ------------------------------------------------------------------ *)
(* Shared fixtures.                                                    *)

let summaries : (string * float, Summary.t) Hashtbl.t = Hashtbl.create 8

let summary_for (k : Catalog.key) =
  match Hashtbl.find_opt summaries (k.Catalog.dataset, k.Catalog.variance) with
  | Some s -> s
  | None ->
      let name =
        match Registry.of_string k.Catalog.dataset with
        | Some n -> n
        | None -> Alcotest.failf "unknown dataset %s" k.Catalog.dataset
      in
      let doc = Registry.generate ~scale:0.02 name in
      let s =
        Summary.build ~p_variance:k.Catalog.variance
          ~o_variance:k.Catalog.variance doc
      in
      Hashtbl.add summaries (k.Catalog.dataset, k.Catalog.variance) s;
      s

let key d v = { Catalog.dataset = d; variance = v }

(* Workload patterns with deliberate duplicates: every pattern appears
   again later in the array, so the dedupe path is always exercised. *)
let patterns_with_duplicates ~wseed doc =
  let config =
    { Workload.default_config with seed = wseed; num_simple = 400; num_branch = 400 }
  in
  let w = Workload.generate ~config doc in
  let base =
    List.concat
      [
        w.Workload.simple;
        w.Workload.branch;
        w.Workload.order_branch_target;
        w.Workload.order_trunk_target;
      ]
    |> List.map (fun (it : Workload.item) -> it.Workload.pattern)
  in
  Array.of_list (base @ List.rev base)

(* ------------------------------------------------------------------ *)
(* Estimator.estimate_many: pool vs sequential.                        *)

let test_estimate_many_differential () =
  let doc = Registry.generate ~scale:0.05 Registry.Ssplays in
  let summary = Summary.build ~p_variance:0.0 ~o_variance:0.0 doc in
  let qs = patterns_with_duplicates ~wseed:9201 doc in
  if Array.length qs < 100 then
    Alcotest.failf "workload too small: %d patterns" (Array.length qs);
  let reference = Estimator.estimate_many (Estimator.create summary) qs in
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          let est = Estimator.create summary in
          let parallel = Estimator.estimate_many ~pool est qs in
          Alcotest.(check int)
            (Printf.sprintf "%d domains: result count" domains)
            (Array.length reference) (Array.length parallel);
          Array.iteri
            (fun i v ->
              check_bits
                (Printf.sprintf "%d domains, query %d (%s)" domains i
                   (Pattern.to_string qs.(i)))
                reference.(i) v)
            parallel;
          (* the same pool re-used for a second batch stays correct
             (workers idle between run_alls, no leftover state) *)
          let again = Estimator.estimate_many ~pool est qs in
          Array.iteri
            (fun i v ->
              check_bits
                (Printf.sprintf "%d domains, warm rerun, query %d" domains i)
                reference.(i) v)
            again))
    domain_counts

(* A pool of one stays on the sequential path: handing estimate_many a
   1-domain pool must cost nothing over no pool at all.  The warm
   second pass returns the first pass's bits, compiles nothing, joins
   nothing afresh, and never enters the pool (the parallel path would
   run its single chunk through Domain_pool.run_all). *)
let test_pool_of_one_stays_sequential () =
  let doc = Registry.generate ~scale:0.05 Registry.Dblp in
  let summary = Summary.build ~p_variance:0.0 ~o_variance:0.0 doc in
  let qs = patterns_with_duplicates ~wseed:9204 doc in
  Domain_pool.with_pool ~domains:1 (fun pool ->
      let est = Estimator.create summary in
      let cold = Estimator.estimate_many ~pool est qs in
      let warm =
        Counters.with_enabled (fun () -> Estimator.estimate_many ~pool est qs)
      in
      Array.iteri
        (fun i v ->
          check_bits (Printf.sprintf "warm pass, query %d" i) cold.(i) v)
        warm;
      let count name =
        Option.value ~default:0 (List.assoc_opt name (Counters.counters ()))
      in
      Alcotest.(check int) "no plan-cache miss" 0
        (count "estimator.plan_cache.miss");
      Alcotest.(check int) "no run-cache miss" 0
        (count "path_join.run_cache.miss");
      Alcotest.(check int) "the pool was never entered" 0
        (count "domain_pool.calls");
      Alcotest.(check bool) "the warm pass did hit the run cache" true
        (count "path_join.run_cache.hit" > 0))

(* try_estimate_many: same contract through the error-isolating
   wrapper. *)
let test_try_estimate_many_differential () =
  let doc = Registry.generate ~scale:0.05 Registry.Dblp in
  let summary = Summary.build ~p_variance:2.0 ~o_variance:2.0 doc in
  let qs = patterns_with_duplicates ~wseed:9202 doc in
  let reference = Estimator.try_estimate_many (Estimator.create summary) qs in
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          let parallel =
            Estimator.try_estimate_many ~pool (Estimator.create summary) qs
          in
          Array.iteri
            (fun i r ->
              match (reference.(i), r) with
              | Ok a, Ok b ->
                  check_bits
                    (Printf.sprintf "%d domains, query %d" domains i)
                    a b
              | Error a, Error b ->
                  Alcotest.(check string)
                    (Printf.sprintf "%d domains, query %d: same error" domains i)
                    (E.to_string a) (E.to_string b)
              | Ok _, Error e ->
                  Alcotest.failf "%d domains, query %d: Ok became %s" domains i
                    (E.to_string e)
              | Error e, Ok _ ->
                  Alcotest.failf "%d domains, query %d: %s became Ok" domains i
                    (E.to_string e))
            parallel))
    domain_counts

(* ------------------------------------------------------------------ *)
(* Catalog batches: sequential vs parallel twins over one directory.   *)

let catalog_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "xpest_parallel_diff_%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
     let m =
       List.fold_left
         (fun m k -> Catalog.save_entry ~dir m k (summary_for k))
         Manifest.empty
         [ key "ssplays" 0.0; key "ssplays" 2.0; key "dblp" 0.0 ]
     in
     Manifest.save m (Filename.concat dir Catalog.manifest_filename);
     dir)

let load_manifest dir =
  match Manifest.load_typed (Filename.concat dir Catalog.manifest_filename) with
  | Ok m -> m
  | Error e -> Alcotest.failf "manifest load failed: %s" (E.to_string e)

(* Three keys interleaved against resident capacity 2: acquires evict
   mid-batch, estimators outlive their eviction, reloads happen round
   after round. *)
let routed_pairs () =
  let k1 = key "ssplays" 0.0
  and k2 = key "ssplays" 2.0
  and k3 = key "dblp" 0.0 in
  let p = Pattern.of_string in
  [|
    (k1, p "//SPEECH/LINE");
    (k3, p "//inproceedings/title");
    (k2, p "//ACT[/{SCENE}]");
    (k1, p "//PLAY//{SPEECH}");
    (k2, p "//SPEECH/LINE");
    (k3, p "//article/{author}");
    (k1, p "//SPEECH/LINE");
    (k3, p "//inproceedings/title");
    (k2, p "//ACT[/{SCENE}]");
    (k1, p "//SPEECH//{WORD}");
  |]

let check_same_stats label (a : Catalog.stats) (b : Catalog.stats) =
  let field name v_a v_b =
    Alcotest.(check int) (Printf.sprintf "%s: %s" label name) v_a v_b
  in
  field "resident" a.Catalog.resident b.Catalog.resident;
  field "loads" a.Catalog.loads b.Catalog.loads;
  field "hits" a.Catalog.hits b.Catalog.hits;
  field "evictions" a.Catalog.evictions b.Catalog.evictions;
  field "failures" a.Catalog.failures b.Catalog.failures;
  field "retries" a.Catalog.retries b.Catalog.retries;
  field "quarantines" a.Catalog.quarantines b.Catalog.quarantines

let compare_results label reference results =
  Alcotest.(check int)
    (label ^ ": result count")
    (Array.length reference) (Array.length results);
  Array.iteri
    (fun i r ->
      match (reference.(i), r) with
      | Ok a, Ok b -> check_bits (Printf.sprintf "%s, query %d" label i) a b
      | Error a, Error b ->
          Alcotest.(check string)
            (Printf.sprintf "%s, query %d: same error" label i)
            (E.to_string a) (E.to_string b)
      | Ok _, Error e ->
          Alcotest.failf "%s, query %d: Ok became %s" label i (E.to_string e)
      | Error e, Ok _ ->
          Alcotest.failf "%s, query %d: %s became Ok" label i (E.to_string e))
    results

let test_catalog_batch_differential () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let pairs = routed_pairs () in
  List.iter
    (fun domains ->
      (* fresh twin catalogs per domain count: identical initial state *)
      let seq_cat = Catalog.of_manifest ~resident_capacity:2 ~dir m in
      let par_cat = Catalog.of_manifest ~resident_capacity:2 ~dir m in
      Domain_pool.with_pool ~domains (fun pool ->
          for round = 1 to 4 do
            let label = Printf.sprintf "%d domains, round %d" domains round in
            let reference = Catalog.estimate_batch_r seq_cat pairs in
            let results = Catalog.estimate_batch_r ~pool par_cat pairs in
            compare_results label reference results;
            check_same_stats label (Catalog.stats seq_cat)
              (Catalog.stats par_cat);
            Alcotest.(check int)
              (label ^ ": same clock")
              (Catalog.clock seq_cat) (Catalog.clock par_cat)
          done))
    domain_counts

(* A single-group batch routes through the plan-chunking path
   (Estimator.estimate_many ~pool) instead of per-group jobs. *)
let test_catalog_single_group_differential () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let k = key "ssplays" 0.0 in
  let doc = Registry.generate ~scale:0.02 Registry.Ssplays in
  let qs = patterns_with_duplicates ~wseed:9203 doc in
  let pairs = Array.map (fun q -> (k, q)) qs in
  let reference =
    Catalog.estimate_batch_r (Catalog.of_manifest ~dir m) pairs
  in
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          let results =
            Catalog.estimate_batch_r ~pool (Catalog.of_manifest ~dir m) pairs
          in
          compare_results (Printf.sprintf "%d domains" domains) reference
            results))
    domain_counts

(* ------------------------------------------------------------------ *)
(* Chaos differential: same fault schedule, sequential vs parallel.    *)

(* The fault injector's PRNG draws happen during loads, and parallel
   batches load in the sequential order — so two catalogs with
   identically seeded injectors must produce identical results, errors
   and stats whether or not a pool is used. *)
let test_chaos_differential () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let pairs = routed_pairs () in
  let make_cat seed rate =
    let io =
      Fault.io (Fault.create (Fault.uniform ~seed ~rate)) Fault.Io.default
    in
    Catalog.of_manifest ~resident_capacity:2 ~io ~dir m
  in
  List.iter
    (fun domains ->
      List.iter
        (fun seed ->
          List.iter
            (fun rate ->
              let seq_cat = make_cat seed rate in
              let par_cat = make_cat seed rate in
              Domain_pool.with_pool ~domains (fun pool ->
                  for round = 1 to 4 do
                    let label =
                      Printf.sprintf
                        "%d domains, fault seed %d, rate %g, round %d" domains
                        seed rate round
                    in
                    let reference = Catalog.estimate_batch_r seq_cat pairs in
                    let results =
                      Catalog.estimate_batch_r ~pool par_cat pairs
                    in
                    compare_results label reference results;
                    check_same_stats label (Catalog.stats seq_cat)
                      (Catalog.stats par_cat)
                  done))
            fault_rates)
        fault_seeds)
    domain_counts

(* ------------------------------------------------------------------ *)
(* Pipeline twins: blocking loads vs loader-pool fan-out.              *)

(* Injected per-key loader latency makes the overlap real: with a
   concurrent loader pool the summary loads genuinely run ahead of
   their acquire turn on other domains, yet results, typed errors,
   acquire-side stats and the logical clock must stay bit-identical to
   the blocking twin — including under mid-batch eviction (three keys
   against resident capacity 2, so residency flips round after
   round). *)
let test_pipeline_latency_differential () =
  let keys = [ key "ssplays" 0.0; key "ssplays" 2.0; key "dblp" 0.0 ] in
  (* prefill the summary fixture: a concurrent loader must be a pure
     reader of shared state *)
  List.iter (fun k -> ignore (summary_for k)) keys;
  let loader (k : Catalog.key) =
    Unix.sleepf (0.001 *. (1.0 +. k.Catalog.variance));
    Ok (summary_for k)
  in
  let pairs = routed_pairs () in
  let make () = Catalog.create_r ~resident_capacity:2 ~loader () in
  List.iter
    (fun load_domains ->
      let seq_cat = make () in
      let pipe_cat = make () in
      Domain_pool.with_pool ~domains:load_domains (fun lp ->
          let loads = Loader_pool.over lp in
          for round = 1 to 4 do
            let label =
              Printf.sprintf "%d load domains, round %d" load_domains round
            in
            let reference = Catalog.estimate_batch_r seq_cat pairs in
            let results = Catalog.estimate_batch_r ~loads pipe_cat pairs in
            compare_results label reference results;
            check_same_stats label (Catalog.stats seq_cat)
              (Catalog.stats pipe_cat);
            Alcotest.(check int)
              (label ^ ": same clock")
              (Catalog.clock seq_cat) (Catalog.clock pipe_cat)
          done))
    load_domain_counts

(* The pipeline overlaps loads.  Eight cold keys, each one group; the
   loader counts the calls in flight and waits (at most one second per
   run) until it has seen two at once, so a schedule that overlaps
   loads finishes at once and one that cannot pays the wait.  Four
   load domains must reach two loads in flight and prefetch; the
   blocking twin never has more than one; both return the same bits,
   stats and clock. *)
let test_pipeline_overlaps_loads () =
  let nkeys = 8 in
  let base = Summary.collect (Registry.generate ~scale:0.02 Registry.Ssplays) in
  let variants =
    Array.init nkeys (fun i ->
        let v = float_of_int i in
        Summary.assemble ~p_variance:v ~o_variance:v base)
  in
  let qs =
    Array.map Pattern.of_string
      [| "//SPEECH/LINE"; "//ACT[/{SCENE}]"; "//PLAY//{SPEECH}" |]
  in
  let pairs =
    Array.init (nkeys * Array.length qs) (fun i ->
        (key "ssplays" (float_of_int (i mod nkeys)), qs.(i / nkeys)))
  in
  let run ?loads () =
    let in_flight = Atomic.make 0 and peak = Atomic.make 0 in
    let deadline = Atomic.make 0.0 in
    let loader (k : Catalog.key) =
      ignore
        (Atomic.compare_and_set deadline 0.0 (Unix.gettimeofday () +. 1.0));
      let now_in = 1 + Atomic.fetch_and_add in_flight 1 in
      let rec raise_peak () =
        let p = Atomic.get peak in
        if now_in > p && not (Atomic.compare_and_set peak p now_in) then
          raise_peak ()
      in
      raise_peak ();
      while Atomic.get peak < 2 && Unix.gettimeofday () < Atomic.get deadline do
        Unix.sleepf 0.0005
      done;
      Atomic.decr in_flight;
      Ok variants.(int_of_float k.Catalog.variance)
    in
    let cat = Catalog.create_r ~resident_capacity:nkeys ~loader () in
    let results = Catalog.estimate_batch_r ?loads cat pairs in
    (results, cat, Atomic.get peak)
  in
  let blocking, blocking_cat, blocking_peak = run () in
  Alcotest.(check int) "blocking: one load in flight at a time" 1
    blocking_peak;
  Alcotest.(check int) "blocking: nothing prefetched" 0
    (Catalog.stats blocking_cat).Catalog.prefetched_loads;
  Domain_pool.with_pool ~domains:4 (fun lp ->
      let pipelined, cat, peak = run ~loads:(Loader_pool.over lp) () in
      if peak < 2 then
        Alcotest.failf "4 load domains: peak %d loads in flight, want >= 2"
          peak;
      if (Catalog.stats cat).Catalog.prefetched_loads = 0 then
        Alcotest.fail "4 load domains: no load was prefetched";
      compare_results "4 load domains vs blocking" blocking pipelined;
      check_same_stats "4 load domains vs blocking" (Catalog.stats blocking_cat)
        (Catalog.stats cat);
      Alcotest.(check int) "same clock" (Catalog.clock blocking_cat)
        (Catalog.clock cat))

(* Load fan-out and execute fan-out composed: loads overlap each other
   while acquired groups execute across a second pool. *)
let test_pipeline_with_execute_pool_differential () =
  let keys = [ key "ssplays" 0.0; key "ssplays" 2.0; key "dblp" 0.0 ] in
  List.iter (fun k -> ignore (summary_for k)) keys;
  let loader (k : Catalog.key) =
    Unix.sleepf (0.001 *. (1.0 +. k.Catalog.variance));
    Ok (summary_for k)
  in
  let pairs = routed_pairs () in
  let make () = Catalog.create_r ~resident_capacity:2 ~loader () in
  List.iter
    (fun load_domains ->
      let seq_cat = make () in
      let pipe_cat = make () in
      Domain_pool.with_pool ~domains:load_domains (fun lp ->
          Domain_pool.with_pool ~domains:4 (fun pool ->
              let loads = Loader_pool.over lp in
              for round = 1 to 4 do
                let label =
                  Printf.sprintf
                    "%d load domains + 4 execute domains, round %d"
                    load_domains round
                in
                let reference = Catalog.estimate_batch_r seq_cat pairs in
                let results =
                  Catalog.estimate_batch_r ~pool ~loads pipe_cat pairs
                in
                compare_results label reference results;
                check_same_stats label (Catalog.stats seq_cat)
                  (Catalog.stats pipe_cat);
                Alcotest.(check int)
                  (label ^ ": same clock")
                  (Catalog.clock seq_cat) (Catalog.clock pipe_cat)
              done)))
    load_domain_counts

(* Chaos twins through the pipeline: the keyed fault injector's
   schedule depends only on (seed, path, per-path attempt), so a
   keyed-injector catalog served through a concurrent loader pool must
   match a keyed-injector catalog served blocking — same injected
   faults, same retries, same quarantine transitions, at every
   load-domain count. *)
let test_pipeline_chaos_keyed_differential () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let pairs = routed_pairs () in
  let make_cat seed rate =
    let io =
      Fault.io (Fault.create_keyed (Fault.uniform ~seed ~rate)) Fault.Io.default
    in
    Catalog.of_manifest ~resident_capacity:2 ~io ~dir m
  in
  List.iter
    (fun load_domains ->
      List.iter
        (fun seed ->
          List.iter
            (fun rate ->
              let seq_cat = make_cat seed rate in
              let pipe_cat = make_cat seed rate in
              Domain_pool.with_pool ~domains:load_domains (fun lp ->
                  let loads = Loader_pool.over lp in
                  for round = 1 to 4 do
                    let label =
                      Printf.sprintf
                        "%d load domains, keyed fault seed %d, rate %g, \
                         round %d"
                        load_domains seed rate round
                    in
                    let reference = Catalog.estimate_batch_r seq_cat pairs in
                    let results =
                      Catalog.estimate_batch_r ~loads pipe_cat pairs
                    in
                    compare_results label reference results;
                    check_same_stats label (Catalog.stats seq_cat)
                      (Catalog.stats pipe_cat);
                    Alcotest.(check int)
                      (label ^ ": same clock")
                      (Catalog.clock seq_cat) (Catalog.clock pipe_cat)
                  done))
            fault_rates)
        fault_seeds)
    load_domain_counts

(* A size-1 loader pool must degrade to exactly the blocking schedule:
   loads run at their acquire turn, in order — so even the shared
   order-sensitive *stream* injector stays bit-identical (the anchor
   that makes --load-domains 1 always safe, whatever the loader). *)
let test_pipeline_stream_injector_size1 () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let pairs = routed_pairs () in
  let make_cat seed rate =
    let io =
      Fault.io (Fault.create (Fault.uniform ~seed ~rate)) Fault.Io.default
    in
    Catalog.of_manifest ~resident_capacity:2 ~io ~dir m
  in
  List.iter
    (fun seed ->
      List.iter
        (fun rate ->
          let seq_cat = make_cat seed rate in
          let pipe_cat = make_cat seed rate in
          Domain_pool.with_pool ~domains:1 (fun lp ->
              let loads = Loader_pool.over lp in
              Alcotest.(check bool)
                "a size-1 loader pool is not concurrent" false
                (Loader_pool.concurrent loads);
              for round = 1 to 4 do
                let label =
                  Printf.sprintf
                    "1 load domain, stream fault seed %d, rate %g, round %d"
                    seed rate round
                in
                let reference = Catalog.estimate_batch_r seq_cat pairs in
                let results = Catalog.estimate_batch_r ~loads pipe_cat pairs in
                compare_results label reference results;
                check_same_stats label (Catalog.stats seq_cat)
                  (Catalog.stats pipe_cat)
              done))
        fault_rates)
    fault_seeds

(* ------------------------------------------------------------------ *)
(* Domain pool mechanics the contract rests on.                        *)

let test_pool_chunking_deterministic () =
  (* parallel_chunks covers [0, n) exactly once, with the same
     partition for every run at a fixed (size, n) *)
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          List.iter
            (fun n ->
              let seen = Array.make n 0 in
              Domain_pool.parallel_chunks pool ~n (fun ~chunk:_ ~lo ~hi ->
                  for i = lo to hi - 1 do
                    seen.(i) <- seen.(i) + 1
                  done);
              Array.iteri
                (fun i c ->
                  Alcotest.(check int)
                    (Printf.sprintf "%d domains, n=%d: slot %d covered once"
                       domains n i)
                    1 c)
                seen)
            [ 1; 2; 3; 7; 64; 1000 ]))
    domain_counts

let test_pool_exception_propagation () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let completed = Atomic.make 0 in
      let jobs =
        Array.init 16 (fun i () ->
            if i = 5 then failwith "job five exploded"
            else ignore (Atomic.fetch_and_add completed 1))
      in
      (match Domain_pool.run_all pool jobs with
      | () -> Alcotest.fail "exception was swallowed"
      | exception Failure msg ->
          Alcotest.(check string) "the job's exception surfaces"
            "job five exploded" msg);
      (* every other job still ran to completion before the re-raise *)
      Alcotest.(check int) "no job abandoned" 15 (Atomic.get completed);
      (* the pool survives a failed run_all *)
      let ok = Atomic.make 0 in
      Domain_pool.run_all pool
        (Array.init 8 (fun _ () -> ignore (Atomic.fetch_and_add ok 1)));
      Alcotest.(check int) "pool reusable after an exception" 8 (Atomic.get ok))

let () =
  Alcotest.run "parallel_differential"
    [
      ( "estimator",
        [
          Alcotest.test_case "estimate_many pool vs sequential" `Quick
            test_estimate_many_differential;
          Alcotest.test_case "try_estimate_many pool vs sequential" `Quick
            test_try_estimate_many_differential;
          Alcotest.test_case "pool of one stays sequential" `Quick
            test_pool_of_one_stays_sequential;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "routed batches with mid-batch eviction" `Quick
            test_catalog_batch_differential;
          Alcotest.test_case "single-group batches" `Quick
            test_catalog_single_group_differential;
          Alcotest.test_case "chaos: injected faults" `Quick
            test_chaos_differential;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "loader latency, loads 1/2/4 vs blocking" `Quick
            test_pipeline_latency_differential;
          Alcotest.test_case "loads overlap at 4 load domains" `Quick
            test_pipeline_overlaps_loads;
          Alcotest.test_case "load pool composed with execute pool" `Quick
            test_pipeline_with_execute_pool_differential;
          Alcotest.test_case "chaos: keyed faults through the pipeline" `Quick
            test_pipeline_chaos_keyed_differential;
          Alcotest.test_case "size-1 loader pool equals blocking (stream)"
            `Quick test_pipeline_stream_injector_size1;
        ] );
      ( "pool",
        [
          Alcotest.test_case "deterministic chunking" `Quick
            test_pool_chunking_deterministic;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
        ] );
    ]
