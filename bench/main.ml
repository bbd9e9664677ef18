(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7) and runs bechamel micro-benchmarks of
   the core operations.

     dune exec bench/main.exe                    # everything, bench profile
     dune exec bench/main.exe -- t3 f10          # selected artefacts
     dune exec bench/main.exe -- --scale 1.0 --cap 0   # paper-scale
     dune exec bench/main.exe -- --no-micro      # skip micro-benchmarks

   The default profile uses scale 0.25 and caps query classes at 600
   queries so a full run finishes in minutes; EXPERIMENTS.md records
   the profile used for the committed results. *)

module Registry = Xpest_datasets.Registry
module Doc = Xpest_xml.Doc
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Pf_table = Xpest_synopsis.Pf_table
module P_histogram = Xpest_synopsis.P_histogram
module Plan = Xpest_plan.Plan
module Plan_cache = Xpest_plan.Plan_cache
module Estimator = Xpest_estimator.Estimator
module Path_join = Xpest_estimator.Path_join
module Catalog = Xpest_catalog.Catalog
module Admission = Xpest_catalog.Admission
module Cache_config = Xpest_plan.Cache_config
module Bounded_cache = Xpest_util.Bounded_cache
module Counters = Xpest_util.Counters
module Domain_pool = Xpest_util.Domain_pool
module Loader_pool = Xpest_util.Loader_pool
module Fault = Xpest_util.Fault
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Workload = Xpest_workload.Workload
module Xsketch = Xpest_baseline.Xsketch
module Sketch = Xpest_synopsis.Sketch
module Env = Xpest_harness.Env
module Experiments = Xpest_harness.Experiments
module Tablefmt = Xpest_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks.                                                   *)

let microbenches () =
  let open Bechamel in
  print_endline "== Micro-benchmarks (bechamel, monotonic clock) ==\n";
  let doc = Registry.generate ~scale:0.02 Registry.Xmark in
  let base = Summary.collect doc in
  let summary = Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base in
  let estimator = Estimator.create summary in
  let pf = Summary.pf_table base in
  let simple_q = Pattern.of_string "//item/description//{keyword}" in
  let branch_q = Pattern.of_string "//item[/mailbox/mail]//{keyword}" in
  let branch_spec = Plan.join_of_shape (Pattern.shape branch_q) in
  let order_q = Pattern.of_string "//item[/payment/folls::{description}]" in
  let join = Path_join.create summary in
  let tests =
    [
      Test.make ~name:"doc_of_tree (xmark 2%)"
        (Staged.stage (fun () ->
             ignore (Registry.generate ~scale:0.02 Registry.Xmark)));
      Test.make ~name:"collect_summary"
        (Staged.stage (fun () -> ignore (Summary.collect doc)));
      Test.make ~name:"p_histogram_build_all(v=0)"
        (Staged.stage (fun () ->
             ignore (P_histogram.build_all ~variance:0.0 pf)));
      Test.make ~name:"assemble(v=2)"
        (Staged.stage (fun () ->
             ignore (Summary.assemble ~p_variance:2.0 ~o_variance:2.0 base)));
      Test.make ~name:"path_join(branch)"
        (Staged.stage (fun () ->
             ignore (Path_join.exec join branch_spec)));
      (* cold: fresh caches per run, the first-estimate cost a query
         optimizer pays; warm: repeated estimation of a known query *)
      Test.make ~name:"estimate_cold(simple)"
        (Staged.stage (fun () ->
             ignore (Estimator.estimate (Estimator.create summary) simple_q)));
      Test.make ~name:"estimate_cold(branch)"
        (Staged.stage (fun () ->
             ignore (Estimator.estimate (Estimator.create summary) branch_q)));
      Test.make ~name:"estimate_cold(order)"
        (Staged.stage (fun () ->
             ignore (Estimator.estimate (Estimator.create summary) order_q)));
      Test.make ~name:"estimate_warm(order)"
        (Staged.stage (fun () -> ignore (Estimator.estimate estimator order_q)));
      Test.make ~name:"truth(branch)"
        (Staged.stage (fun () -> ignore (Truth.selectivity doc branch_q)));
      (* persistence: full codec round-trip costs, the cold-start
         alternative to collect+assemble *)
      Test.make ~name:"synopsis_encode"
        (Staged.stage (fun () -> ignore (Summary.encode summary)));
      Test.make ~name:"synopsis_decode"
        (Staged.stage
           (let bytes = Summary.encode summary in
            fun () -> ignore (Summary.decode bytes)));
      Test.make ~name:"xsketch_estimate(branch)"
        (Staged.stage
           (let sk = Xsketch.build ~budget_bytes:8192 doc in
            fun () -> ignore (Xsketch.estimate sk branch_q)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let analysis =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let rows =
    List.map
      (fun test ->
        let elt = List.hd (Test.elements test) in
        let raw = Benchmark.run cfg instances elt in
        let ols = Analyze.one analysis Toolkit.Instance.monotonic_clock raw in
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        [ Test.name test; Tablefmt.fmt_seconds (ns *. 1e-9) ])
      tests
  in
  print_endline
    (Tablefmt.render_table
       ~header:[ "operation"; "time/run" ]
       ~align:[ Tablefmt.Left; Tablefmt.Right ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Estimation-engine benchmark: machine-readable numbers for the
   compile-then-execute pipeline (plan build cost, cold vs plan-cached
   throughput, batched vs scalar estimation).  Written as JSON so CI
   can track regressions without scraping tables.                      *)

let qps n seconds = float_of_int n /. Float.max seconds 1e-9

let engine_bench_dataset ~scale name =
  let dsname = Registry.to_string name in
  Printf.printf "engine bench: %s (scale %g)...\n%!" dsname scale;
  let doc = Registry.generate ~scale name in
  let base, collect_s = Env.time (fun () -> Summary.collect doc) in
  let summary, assemble_s =
    Env.time (fun () -> Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base)
  in
  let config =
    { Workload.default_config with num_simple = 800; num_branch = 800 }
  in
  let w = Workload.generate ~config doc in
  let patterns = Workload.patterns (Workload.all_items w) in
  let n = Array.length patterns in
  let _plans, compile_s =
    Env.time (fun () -> Array.map Plan.compile patterns)
  in
  (* scalar: one estimate call per query; cold = fresh caches, then the
     same estimator again with every plan/join cached *)
  let scalar est =
    Array.map (fun q -> Estimator.estimate est q) patterns
  in
  let est_scalar = Estimator.create summary in
  let scalar_cold, scalar_cold_s = Env.time (fun () -> scalar est_scalar) in
  let _, scalar_warm_s = Env.time (fun () -> scalar est_scalar) in
  (* batched: one estimate_many call over the whole workload *)
  let est_batch = Estimator.create summary in
  let batch_cold, batch_cold_s =
    Env.time (fun () -> Estimator.estimate_many est_batch patterns)
  in
  let batch_warm, batch_warm_s =
    Env.time (fun () -> Estimator.estimate_many est_batch patterns)
  in
  let identical = ref true in
  Array.iteri
    (fun i v ->
      if
        Int64.bits_of_float v <> Int64.bits_of_float batch_cold.(i)
        || Int64.bits_of_float v <> Int64.bits_of_float batch_warm.(i)
      then identical := false)
    scalar_cold;
  let scalar_cold_qps = qps n scalar_cold_s in
  let batch_warm_qps = qps n batch_warm_s in
  (* working-set sizes of the batched estimator's caches after the full
     workload ran twice: peak tells you what capacity the workload
     actually needs, evictions whether the configured bound thrashed *)
  let caches =
    String.concat ",\n"
      (List.map
         (fun (cname, st) ->
           Printf.sprintf
             {|        %S: { "capacity": %d, "length": %d, "peak": %d, "evictions": %d }|}
             cname st.Plan_cache.s_capacity st.Plan_cache.s_length
             st.Plan_cache.s_peak st.Plan_cache.s_evictions)
         (Estimator.cache_stats est_batch))
  in
  let entry =
    Printf.sprintf
      {|    {
      "dataset": %S,
      "elements": %d,
      "queries": %d,
      "summary_build_seconds": %.6f,
      "plan_compile_seconds": %.6f,
      "plan_compile_us_per_query": %.3f,
      "scalar_cold_qps": %.1f,
      "scalar_plan_cached_qps": %.1f,
      "batch_cold_qps": %.1f,
      "batch_plan_cached_qps": %.1f,
      "speedup_batch_cold_vs_scalar_cold": %.3f,
      "speedup_plan_cached_batch_vs_scalar_cold": %.3f,
      "batch_bitwise_identical_to_scalar": %b,
      "caches": {
%s
      }
    }|}
      dsname (Doc.size doc) n
      (collect_s +. assemble_s)
      compile_s
      (1e6 *. compile_s /. Float.max (float_of_int n) 1.0)
      scalar_cold_qps (qps n scalar_warm_s) (qps n batch_cold_s) batch_warm_qps
      (qps n batch_cold_s /. scalar_cold_qps)
      (batch_warm_qps /. scalar_cold_qps)
      !identical caches
  in
  (entry, (dsname, base, patterns))

(* Multi-dataset serving: every dataset's workload (capped) routed
   through one catalog at two variance targets per dataset.  The
   resident capacity is one short of the key count, so summaries evict
   and reload across the two passes (forward, then reversed — a cyclic
   scan is LRU's worst case, the reverse pass exercises hits); the same
   queries hitting both of a dataset's keys makes cross-summary plan
   reuse visible as a non-zero plan-cache hit rate.  Loads go through
   the wire codec so a summary load costs what a synopsis_decode
   costs. *)
let catalog_bench ctxs =
  Printf.printf "engine bench: catalog serving...\n%!";
  let variances = [ 0.0; 2.0 ] in
  let cap_per_dataset = 400 in
  let blobs = Hashtbl.create 8 in
  List.iter
    (fun (dsname, base, _) ->
      List.iter
        (fun v ->
          let s = Summary.assemble ~p_variance:v ~o_variance:v base in
          Hashtbl.add blobs (dsname, v) (Summary.encode s))
        variances)
    ctxs;
  let loader (k : Catalog.key) =
    Summary.decode (Hashtbl.find blobs (k.Catalog.dataset, k.Catalog.variance))
  in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (dsname, _, patterns) ->
           let m = min cap_per_dataset (Array.length patterns) in
           List.concat_map
             (fun v ->
               List.init m (fun i ->
                   ({ Catalog.dataset = dsname; variance = v }, patterns.(i))))
             variances)
         ctxs)
  in
  let n = Array.length pairs in
  let rev_pairs = Array.init n (fun i -> pairs.(n - 1 - i)) in
  let nkeys = List.length ctxs * List.length variances in
  let capacity = max 1 (nkeys - 1) in
  (* reference: a fresh estimator per key per pass — serving the same
     batches without a catalog, and the bit-identity oracle *)
  let reference () =
    let out = Array.make n 0.0 in
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun (k, _) ->
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          let est = Estimator.create (loader k) in
          Array.iteri
            (fun j (k', q) -> if k' = k then out.(j) <- Estimator.estimate est q)
            pairs
        end)
      pairs;
    out
  in
  let make_catalog () =
    Catalog.create_r ~resident_capacity:capacity
      ~loader:(fun k -> Ok (loader k))
      ()
  in
  let cat = make_catalog () in
  let (routed, routed_rev), routed_s =
    Env.time (fun () ->
        ( Catalog.estimate_batch_r cat pairs,
          Catalog.estimate_batch_r cat rev_pairs ))
  in
  let st : Catalog.stats = Catalog.stats cat in
  let (reference_out, _), loop_s =
    Env.time (fun () -> (reference (), reference ()))
  in
  let same r v =
    match r with
    | Ok x -> Int64.bits_of_float x = Int64.bits_of_float v
    | Error _ -> false
  in
  let identical = ref true in
  Array.iteri
    (fun i r ->
      if
        not
          (same r reference_out.(i)
          && same routed_rev.(n - 1 - i) reference_out.(i))
      then identical := false)
    routed;
  let plan_hits, plan_misses =
    Counters.with_enabled (fun () ->
        let cat = make_catalog () in
        ignore (Catalog.estimate_batch_r cat pairs);
        ignore (Catalog.estimate_batch_r cat rev_pairs);
        let counter name =
          match List.assoc_opt name (Counters.counters ()) with
          | Some v -> v
          | None -> 0
        in
        ( counter "estimator.plan_cache.hit",
          counter "estimator.plan_cache.miss" ))
  in
  let routed_qps = qps (2 * n) routed_s in
  let loop_qps = qps (2 * n) loop_s in
  Printf.sprintf
    {|  "catalog": {
    "keys": %d,
    "resident_capacity": %d,
    "batches": 2,
    "routed_queries": %d,
    "summary_loads": %d,
    "summary_pool_hits": %d,
    "summary_evictions": %d,
    "plan_cache_hits": %d,
    "plan_cache_misses": %d,
    "plan_cache_hit_rate": %.4f,
    "plan_cache_peak": %d,
    "routed_qps": %.1f,
    "per_summary_loop_qps": %.1f,
    "routed_vs_loop_speedup": %.3f,
    "routed_bitwise_identical_to_fresh": %b
  }|}
    nkeys capacity (2 * n) st.Catalog.loads st.Catalog.hits st.Catalog.evictions
    plan_hits plan_misses
    (float_of_int plan_hits
    /. Float.max (float_of_int (plan_hits + plan_misses)) 1.0)
    st.Catalog.plan_cache.Plan_cache.s_peak routed_qps loop_qps
    (routed_qps /. Float.max loop_qps 1e-9)
    !identical

(* Domain-parallel batches: the same cold batch per dataset through
   estimate_many at pool sizes 1/2/4, and the routed catalog batches
   sequential vs a 4-domain pool.  Speedups are reported relative to
   the pool-of-1 run on THIS host — host_cores records how much
   hardware parallelism was actually available (on a single-core CI
   runner the honest expectation is ~1.0x, and the gate in
   tools/check_bench_regression.sh therefore tracks the committed
   baseline rather than demanding an absolute speedup).  What is
   unconditional is bit-identity: every parallel result must match the
   sequential run exactly, and the regression gate fails on any false
   flag below. *)
let parallel_bench ctxs =
  Printf.printf "engine bench: parallel batches...\n%!";
  let host_cores = Domain.recommended_domain_count () in
  let domain_counts = [ 1; 2; 4 ] in
  let cap_per_dataset = 400 in
  let bits = Int64.bits_of_float in
  let dataset_entry (dsname, base, patterns) =
    let summary = Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base in
    let m = min cap_per_dataset (Array.length patterns) in
    let qs = Array.sub patterns 0 m in
    let reference = Estimator.estimate_many (Estimator.create summary) qs in
    let identical = ref true in
    let runs =
      List.map
        (fun d ->
          let out, seconds =
            Domain_pool.with_pool ~domains:d (fun pool ->
                let est = Estimator.create summary in
                Env.time (fun () -> Estimator.estimate_many ~pool est qs))
          in
          Array.iteri
            (fun i v ->
              if bits v <> bits reference.(i) then identical := false)
            out;
          (d, qps m seconds))
        domain_counts
    in
    let qps_of d = List.assoc d runs in
    let entry =
      Printf.sprintf
        {|      {
        "dataset": %S,
        "queries": %d,
        "batch_cold_qps_1d": %.1f,
        "batch_cold_qps_2d": %.1f,
        "batch_cold_qps_4d": %.1f,
        "speedup_2d": %.3f,
        "speedup_4d": %.3f,
        "parallel_bitwise_identical_to_sequential": %b
      }|}
        dsname m (qps_of 1) (qps_of 2) (qps_of 4)
        (qps_of 2 /. Float.max (qps_of 1) 1e-9)
        (qps_of 4 /. Float.max (qps_of 1) 1e-9)
        !identical
    in
    entry
  in
  let dataset_entries = List.map dataset_entry ctxs in
  (* routed catalog batches: the multi-key mixed batch of catalog_bench,
     sequential twin vs a 4-domain pool, shared synchronized plan
     cache *)
  let variances = [ 0.0; 2.0 ] in
  let blobs = Hashtbl.create 8 in
  List.iter
    (fun (dsname, base, _) ->
      List.iter
        (fun v ->
          let s = Summary.assemble ~p_variance:v ~o_variance:v base in
          Hashtbl.add blobs (dsname, v) (Summary.encode s))
        variances)
    ctxs;
  let loader (k : Catalog.key) =
    Ok (Summary.decode (Hashtbl.find blobs (k.Catalog.dataset, k.Catalog.variance)))
  in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (dsname, _, patterns) ->
           let m = min 200 (Array.length patterns) in
           List.concat_map
             (fun v ->
               List.init m (fun i ->
                   ({ Catalog.dataset = dsname; variance = v }, patterns.(i))))
             variances)
         ctxs)
  in
  let n = Array.length pairs in
  let rounds = 4 in
  let run_rounds f =
    Env.time (fun () -> List.init rounds (fun _ -> f ()))
  in
  let cat_seq = Catalog.create_r ~loader () in
  let seq_runs, seq_s = run_rounds (fun () -> Catalog.estimate_batch_r cat_seq pairs) in
  let cat_par = Catalog.create_r ~loader () in
  let par_runs, par_s =
    Domain_pool.with_pool ~domains:4 (fun pool ->
        run_rounds (fun () -> Catalog.estimate_batch_r ~pool cat_par pairs))
  in
  let identical = ref true in
  List.iter2
    (fun seq par ->
      Array.iteri
        (fun i r ->
          match (r, par.(i)) with
          | Ok a, Ok b -> if bits a <> bits b then identical := false
          | Error _, Error _ -> ()
          | _ -> identical := false)
        seq)
    seq_runs par_runs;
  let st = Catalog.stats cat_par in
  let seq_qps = qps (rounds * n) seq_s in
  let par_qps = qps (rounds * n) par_s in
  Printf.sprintf
    {|  "parallel": {
    "host_cores": %d,
    "datasets": [
%s
    ],
    "catalog": {
      "routed_queries": %d,
      "rounds": %d,
      "sequential_qps": %.1f,
      "pool_4d_qps": %.1f,
      "speedup_4d": %.3f,
      "plan_lock_contention": %d,
      "plan_compile_races": %d,
      "parallel_bitwise_identical_to_sequential": %b
    }
  }|}
    host_cores
    (String.concat ",\n" dataset_entries)
    (rounds * n) rounds seq_qps par_qps
    (par_qps /. Float.max seq_qps 1e-9)
    st.Catalog.plan_contention st.Catalog.plan_races !identical

(* Resilience: the same routed batches served through the fault-
   tolerant file-backed path.  Three profiles — fault-free, 1% and 10%
   injected storage faults (what degraded storage costs and whether
   surviving answers stay bit-identical to a fresh single-summary
   estimator).  The injector seed is fixed so the numbers are
   reproducible. *)
let resilience_bench ctxs =
  Printf.printf "engine bench: resilience...\n%!";
  let cap_per_dataset = 200 in
  let seed = 11 in
  let rounds = 8 in
  let dir = Filename.temp_file "xpest_bench_cat" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let estimators = Hashtbl.create 4 in
      let manifest =
        List.fold_left
          (fun m (dsname, base, _) ->
            let s = Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base in
            Hashtbl.add estimators dsname (Estimator.create s);
            Catalog.save_entry ~dir m
              { Catalog.dataset = dsname; variance = 0.0 }
              s)
          Manifest.empty ctxs
      in
      let pairs =
        Array.of_list
          (List.concat_map
             (fun (dsname, _, patterns) ->
               let m = min cap_per_dataset (Array.length patterns) in
               List.init m (fun i ->
                   ({ Catalog.dataset = dsname; variance = 0.0 }, patterns.(i))))
             ctxs)
      in
      let n = Array.length pairs in
      let nkeys = List.length ctxs in
      (* capacity one short of the key count: every round evicts and
         reloads, so the storage path — where faults live — actually
         runs instead of being absorbed by the resident set *)
      let capacity = max 1 (nkeys - 1) in
      (* the bit-identity reference: each pair on a fresh single-summary
         estimator, no catalog involved *)
      let reference =
        Array.map
          (fun (k, q) ->
            Estimator.estimate (Hashtbl.find estimators k.Catalog.dataset) q)
          pairs
      in
      (* one profile = a fresh file-backed catalog at one fault rate,
         [rounds] batches through estimate_batch_r *)
      let profile rate =
        let io =
          if rate = 0.0 then None
          else
            Some
              (Fault.io (Fault.create (Fault.uniform ~seed ~rate))
                 Fault.Io.default)
        in
        let cat =
          Catalog.of_manifest ~resident_capacity:capacity ?io ~dir manifest
        in
        let ok = ref 0 and errors = ref 0 and identical = ref true in
        let results, seconds =
          Env.time (fun () ->
              List.init rounds (fun _ -> Catalog.estimate_batch_r cat pairs))
        in
        List.iter
          (fun out ->
            Array.iteri
              (fun i -> function
                | Ok v ->
                    incr ok;
                    if
                      Int64.bits_of_float v
                      <> Int64.bits_of_float reference.(i)
                    then identical := false
                | Error _ -> incr errors)
              out)
          results;
        let st : Catalog.stats = Catalog.stats cat in
        let routed = rounds * n in
        let routed_qps = qps routed seconds in
        let entry =
          Printf.sprintf
            {|      {
        "fault_rate": %g,
        "rounds": %d,
        "routed_queries": %d,
        "ok": %d,
        "errors": %d,
        "success_rate": %.4f,
        "routed_qps": %.1f,
        "load_retries": %d,
        "quarantines": %d,
        "failed_attempts": %d,
        "ok_bitwise_identical_to_fault_free": %b
      }|}
            rate rounds routed !ok !errors
            (float_of_int !ok /. Float.max (float_of_int routed) 1.0)
            routed_qps st.Catalog.retries st.Catalog.quarantines
            st.Catalog.failures !identical
        in
        entry
      in
      let profiles = List.map profile [ 0.0; 0.01; 0.10 ] in
      Printf.sprintf
        {|  "resilience": {
    "keys": %d,
    "resident_capacity": %d,
    "queries_per_batch": %d,
    "injector_seed": %d,
    "profiles": [
%s
    ]
  }|}
        nkeys capacity n seed
        (String.concat ",\n" profiles))

(* S1 thrash: multi-tenant serving under a byte budget that cannot
   hold every tenant's summary.  Each round touches a small hot set
   twice in a row (a dashboard double-reading its own keys — the
   second touch is the segmented policy's promotion signal), then
   cycles through more cold tenants than the budget fits — plain LRU's
   worst case.  Both policies run the identical trace at the identical
   byte budget; only the replacement decision differs.  Plain LRU
   flushes the hot set on every cold cycle and scores only the
   immediate repeats; segmented LRU keeps the hot summaries protected,
   so its hit rate must come out strictly higher (gated in
   tools/check_bench_regression.sh). *)
let thrash_bench ctxs =
  Printf.printf "engine bench: s1 thrash (byte-budget residency)...\n%!";
  let dsname, base, patterns = List.hd ctxs in
  let hot = 2 and cold = 12 and rounds = 8 in
  let nkeys = hot + cold in
  (* one tenant = one variance knob; each gets its own summary *)
  let summaries = Hashtbl.create 16 in
  for i = 0 to nkeys - 1 do
    let v = float_of_int i in
    Hashtbl.add summaries v (Summary.assemble ~p_variance:v ~o_variance:v base)
  done;
  let loader (k : Catalog.key) =
    Ok (Hashtbl.find summaries k.Catalog.variance)
  in
  let bytes_of i =
    Summary.size_bytes (Hashtbl.find summaries (float_of_int i))
  in
  let sum_bytes lo hi =
    let t = ref 0 in
    for i = lo to hi do t := !t + bytes_of i done;
    !t
  in
  let hot_bytes = sum_bytes 0 (hot - 1) in
  let cold_bytes = sum_bytes hot (nkeys - 1) in
  (* half the cold set fits alongside the hot set: small enough that a
     cold cycle overruns it, large enough that the protected segment
     (0.8 of budget) holds the hot summaries comfortably *)
  let budget = hot_bytes + (cold_bytes / 2) in
  let q = patterns.(0) in
  let run policy =
    let config =
      { Cache_config.default with resident_bytes = Some budget }
    in
    let cat = Catalog.create_r ~config ~resident_policy:policy ~loader () in
    let touch i =
      ignore
        (Catalog.estimate_r cat
           { Catalog.dataset = dsname; variance = float_of_int i }
           q)
    in
    for _round = 1 to rounds do
      for h = 0 to hot - 1 do
        touch h;
        touch h
      done;
      for c = hot to nkeys - 1 do
        touch c
      done
    done;
    let st : Catalog.stats = Catalog.stats cat in
    let touches = st.Catalog.hits + st.Catalog.loads in
    ( st.Catalog.hits,
      st.Catalog.loads,
      float_of_int st.Catalog.hits /. Float.max (float_of_int touches) 1.0 )
  in
  let lru_hits, lru_loads, lru_rate = run Bounded_cache.Lru in
  let seg_hits, seg_loads, seg_rate = run Bounded_cache.segmented in
  Printf.sprintf
    {|  "s1_thrash": {
    "dataset": %S,
    "hot_keys": %d,
    "cold_tenants": %d,
    "rounds": %d,
    "hot_bytes": %d,
    "cold_bytes": %d,
    "budget_bytes": %d,
    "lru_hits": %d,
    "lru_loads": %d,
    "lru_hit_rate": %.4f,
    "segmented_hits": %d,
    "segmented_loads": %d,
    "segmented_hit_rate": %.4f,
    "segmented_advantage": %.4f
  }|}
    dsname hot cold rounds hot_bytes cold_bytes budget lru_hits lru_loads
    lru_rate seg_hits seg_loads seg_rate (seg_rate -. lru_rate)

(* S1 pipeline: a cold-miss batch against slow storage.  Every key's
   summary must be loaded, and the loader carries an injected per-read
   latency (modeling remote or cold storage).  The blocking path pays
   the latencies one after another inside the acquire scan; the staged
   pipeline starts the provably needed loads ahead of their acquire
   turn on a loader pool and executes each group while the remaining
   loads are still in flight.  Results and serving stats are
   bit-identical by contract (checked here, flagged in the JSON, gated
   unconditionally in tools/check_bench_regression.sh); the pipelined
   qps must beat the blocking baseline (also gated). *)
let pipeline_bench ctxs =
  Printf.printf "engine bench: s1 pipeline (overlapped loading)...\n%!";
  let dsname, base, patterns = List.hd ctxs in
  let nkeys = 8 in
  let per_key = 24 in
  let latency = 0.004 in
  let summaries = Hashtbl.create 16 in
  for i = 0 to nkeys - 1 do
    let v = float_of_int i in
    Hashtbl.add summaries v (Summary.assemble ~p_variance:v ~o_variance:v base)
  done;
  (* per-key deterministic and thread-safe — the concurrent-loads
     contract (reads of a frozen table, a fixed sleep) *)
  let loader (k : Catalog.key) =
    Unix.sleepf latency;
    Ok (Hashtbl.find summaries k.Catalog.variance)
  in
  (* interleave keys so routing, not input order, does the grouping *)
  let pairs =
    Array.init (nkeys * per_key) (fun i ->
        ( { Catalog.dataset = dsname; variance = float_of_int (i mod nkeys) },
          patterns.(i / nkeys mod Array.length patterns) ))
  in
  let n = Array.length pairs in
  let run loads =
    let cat = Catalog.create_r ~resident_capacity:nkeys ~loader () in
    let results, secs =
      Env.time (fun () -> Catalog.estimate_batch_r ?loads cat pairs)
    in
    (results, Catalog.stats cat, secs)
  in
  let blocking, blocking_st, blocking_s = run None in
  let pipelined d =
    Domain_pool.with_pool ~domains:d (fun p ->
        run (Some (Loader_pool.over p)))
  in
  let p2, p2_st, p2_s = pipelined 2 in
  let p4, p4_st, p4_s = pipelined 4 in
  let same_cell a b =
    match (a, b) with
    | Ok x, Ok y -> Int64.bits_of_float x = Int64.bits_of_float y
    | Error e, Error f ->
        Xpest_util.Xpest_error.to_string e = Xpest_util.Xpest_error.to_string f
    | _ -> false
  in
  let same_results a b =
    Array.length a = Array.length b && Array.for_all2 same_cell a b
  in
  let same_stats (a : Catalog.stats) (b : Catalog.stats) =
    a.Catalog.loads = b.Catalog.loads
    && a.Catalog.hits = b.Catalog.hits
    && a.Catalog.evictions = b.Catalog.evictions
    && a.Catalog.failures = b.Catalog.failures
    && a.Catalog.retries = b.Catalog.retries
    && a.Catalog.quarantines = b.Catalog.quarantines
    && a.Catalog.degraded_hits = b.Catalog.degraded_hits
  in
  let identical =
    same_results blocking p2 && same_results blocking p4
    && same_stats blocking_st p2_st
    && same_stats blocking_st p4_st
  in
  let qps s = float_of_int n /. Float.max s 1e-9 in
  Printf.sprintf
    {|  "s1_pipeline": {
    "dataset": %S,
    "keys": %d,
    "routed_queries": %d,
    "loader_latency_ms": %.1f,
    "blocking_qps": %.1f,
    "pipelined_2_qps": %.1f,
    "pipelined_4_qps": %.1f,
    "speedup_4": %.3f,
    "prefetched_loads_4": %d,
    "pipelined_bitwise_identical_to_blocking": %b
  }|}
    dsname nkeys n (latency *. 1000.0) (qps blocking_s) (qps p2_s) (qps p4_s)
    (qps p4_s /. Float.max (qps blocking_s) 1e-9)
    p4_st.Catalog.prefetched_loads identical

(* S1 overload: a saturating cold burst against a tight admission
   budget.  Twelve tenants hammer a four-slot resident set, so an
   uncontrolled batch pays a cold load per group, round after round.
   The admission-controlled twin gets a per-batch deadline budget and
   a cold-load bound: once the budget is spent, the remaining groups
   are shed at the stage boundary — no I/O, no clock ticks — and
   under the Degrade policy answered from an already-resident sibling
   variance.  Gated in tools/check_bench_regression.sh: the
   controlled twin's worst batch must spend strictly fewer logical
   ticks than the uncontrolled one (the bounded-worst-case claim),
   and the shed schedule must be bit-identical across load-domain
   counts 1/2/4 (shedding is a pure function of input order, clock
   and configuration — never of scheduling). *)
let overload_bench ctxs =
  Printf.printf "engine bench: s1 overload (admission control)...\n%!";
  let dsname, base, patterns = List.hd ctxs in
  let nkeys = 12 in
  let per_key = 8 in
  let latency = 0.002 in
  let rounds = 3 in
  let summaries = Hashtbl.create 16 in
  for i = 0 to nkeys - 1 do
    let v = float_of_int i in
    Hashtbl.add summaries v (Summary.assemble ~p_variance:v ~o_variance:v base)
  done;
  let loader (k : Catalog.key) =
    Unix.sleepf latency;
    Ok (Hashtbl.find summaries k.Catalog.variance)
  in
  let pairs =
    Array.init (nkeys * per_key) (fun i ->
        ( { Catalog.dataset = dsname; variance = float_of_int (i mod nkeys) },
          patterns.(i / nkeys mod Array.length patterns) ))
  in
  let n = Array.length pairs in
  let deadline = 40 and max_queued = 3 in
  let admission =
    {
      Admission.unlimited with
      Admission.deadline = Some deadline;
      max_queued_loads = Some max_queued;
    }
  in
  let run ?admission ?loads () =
    let cat = Catalog.create_r ?admission ~resident_capacity:4 ~loader () in
    let worst = ref 0 in
    let batches =
      Array.init rounds (fun _ ->
          let before = Catalog.clock cat in
          let r = Catalog.estimate_batch_r ?loads cat pairs in
          worst := max !worst (Catalog.clock cat - before);
          r)
    in
    (batches, Catalog.last_batch_statuses cat, Catalog.stats cat,
     Catalog.clock cat, !worst)
  in
  let (_, _, _, _, un_worst), un_secs = Env.time (fun () -> run ()) in
  let (ctrl_batches, ctrl_statuses, ctrl_st, ctrl_clock, ctrl_worst), ctrl_secs
      =
    Env.time (fun () -> run ~admission ())
  in
  (* the shed schedule must not depend on load fan-out: fresh twins at
     1/2/4 load domains replay the identical batches *)
  let same_cell a b =
    match (a, b) with
    | Ok x, Ok y -> Int64.bits_of_float x = Int64.bits_of_float y
    | Error e, Error f ->
        Xpest_util.Xpest_error.to_string e = Xpest_util.Xpest_error.to_string f
    | _ -> false
  in
  let same_status a b =
    match (a, b) with
    | Catalog.Served, Catalog.Served | Catalog.Shed, Catalog.Shed -> true
    | Catalog.Fallback x, Catalog.Fallback y ->
        Catalog.key_to_string x = Catalog.key_to_string y
    | _ -> false
  in
  let identical =
    List.for_all
      (fun d ->
        Domain_pool.with_pool ~domains:d (fun p ->
            let loads = Loader_pool.over p in
            let batches, statuses, st, clock, worst = run ~admission ~loads ()
            in
            Array.for_all2
              (fun a b ->
                Array.length a = Array.length b && Array.for_all2 same_cell a b)
              ctrl_batches batches
            && Array.for_all2 same_status ctrl_statuses statuses
            && st.Catalog.shed_queries = ctrl_st.Catalog.shed_queries
            && st.Catalog.fallback_queries = ctrl_st.Catalog.fallback_queries
            && st.Catalog.loads = ctrl_st.Catalog.loads
            && clock = ctrl_clock && worst = ctrl_worst))
      [ 1; 2; 4 ]
  in
  let qps s = float_of_int (n * rounds) /. Float.max s 1e-9 in
  Printf.sprintf
    {|  "s1_overload": {
    "dataset": %S,
    "keys": %d,
    "routed_queries_per_batch": %d,
    "rounds": %d,
    "deadline_ticks": %d,
    "max_queued_loads": %d,
    "loader_latency_ms": %.1f,
    "uncontrolled_worst_batch_ticks": %d,
    "controlled_worst_batch_ticks": %d,
    "shed_queries": %d,
    "fallback_queries": %d,
    "uncontrolled_qps": %.1f,
    "controlled_qps": %.1f,
    "shed_schedule_bitwise_identical_across_load_domains": %b
  }|}
    dsname nkeys n rounds deadline max_queued (latency *. 1000.0) un_worst
    ctrl_worst ctrl_st.Catalog.shed_queries ctrl_st.Catalog.fallback_queries
    (qps un_secs) (qps ctrl_secs) identical

(* S1 degrade: total storage blackout against the degradation ladder's
   last rung.  Every summary load fails (the dataset is effectively
   100% quarantined and the loader breaker opens), yet a catalog armed
   with the dataset's always-resident fallback sketch answers every
   well-formed query from the Sketch tier.  Gated in
   tools/check_bench_regression.sh: the sketch-tier answer rate must
   be exactly 1.0 (the ladder never leaks an error), and the answer
   schedule must be bit-identical across load-domain counts 1/2/4.
   The mean relative error against the exact tier quantifies what the
   last rung's answers cost in accuracy. *)
let degrade_bench ~scale ctxs =
  Printf.printf "engine bench: s1 degrade (fallback sketch tier)...\n%!";
  let dsname, base, patterns = List.hd ctxs in
  let name =
    match Registry.of_string dsname with
    | Some n -> n
    | None -> failwith ("unknown bench dataset " ^ dsname)
  in
  let sketch = Sketch.build (Registry.generate ~scale name) in
  let nkeys = 4 in
  let per_key = 8 in
  let rounds = 3 in
  let summaries = Hashtbl.create 8 in
  for i = 0 to nkeys - 1 do
    let v = float_of_int i in
    Hashtbl.add summaries v (Summary.assemble ~p_variance:v ~o_variance:v base)
  done;
  let healthy_loader (k : Catalog.key) =
    Ok (Hashtbl.find summaries k.Catalog.variance)
  in
  let dead_loader (_ : Catalog.key) =
    Error
      (Xpest_util.Xpest_error.Io_failure
         { path = "(blackout)"; reason = "injected: storage offline" })
  in
  let pairs =
    Array.init (nkeys * per_key) (fun i ->
        ( { Catalog.dataset = dsname; variance = float_of_int (i mod nkeys) },
          patterns.(i / nkeys mod Array.length patterns) ))
  in
  let n = Array.length pairs in
  let admission =
    { Admission.unlimited with Admission.breaker_threshold = Some 2 }
  in
  (* the exact tier's answers, for the accuracy cost of the last rung *)
  let exact_cat =
    Catalog.create_r ~resident_capacity:nkeys ~loader:healthy_loader ()
  in
  let exact = Catalog.estimate_batch_r exact_cat pairs in
  let run ?loads () =
    let cat =
      Catalog.create_r ~admission ~resident_capacity:nkeys
        ~loader:dead_loader ()
    in
    (match Catalog.install_sketch cat dsname sketch with
    | Ok () -> ()
    | Error e ->
        failwith ("sketch install failed: " ^ Xpest_util.Xpest_error.to_string e));
    let batches =
      Array.init rounds (fun _ -> Catalog.estimate_batch_r ?loads cat pairs)
    in
    ( batches,
      Catalog.last_batch_statuses cat,
      Catalog.stats cat,
      Catalog.clock cat,
      (Catalog.admission_stats cat).Admission.s_breaker_opens )
  in
  let (batches, statuses, st, clock, breaker_opens), secs =
    Env.time (fun () -> run ())
  in
  let answered =
    Array.fold_left
      (fun acc b ->
        Array.fold_left
          (fun acc r -> match r with Ok _ -> acc + 1 | Error _ -> acc)
          acc b)
      0 batches
  in
  let sketch_answer_rate =
    if st.Catalog.sketch_queries = answered && answered = n * rounds then 1.0
    else float_of_int st.Catalog.sketch_queries /. float_of_int (n * rounds)
  in
  let rel_err_sum = ref 0.0 and rel_err_n = ref 0 in
  Array.iteri
    (fun i r ->
      match (exact.(i), r) with
      | Ok e, Ok s ->
          rel_err_sum := !rel_err_sum +. (Float.abs (s -. e) /. Float.max e 1.0);
          incr rel_err_n
      | _ -> ())
    batches.(0);
  let mean_rel_err = !rel_err_sum /. float_of_int (max !rel_err_n 1) in
  let same_cell a b =
    match (a, b) with
    | Ok x, Ok y -> Int64.bits_of_float x = Int64.bits_of_float y
    | Error e, Error f ->
        Xpest_util.Xpest_error.to_string e = Xpest_util.Xpest_error.to_string f
    | _ -> false
  in
  let status_name = function
    | Catalog.Served -> "served"
    | Catalog.Shed -> "shed"
    | Catalog.Fallback k -> "fallback:" ^ Catalog.key_to_string k
    | Catalog.Sketch -> "sketch"
  in
  let identical =
    List.for_all
      (fun d ->
        Domain_pool.with_pool ~domains:d (fun p ->
            let loads = Loader_pool.over p in
            let batches', statuses', st', clock', _ = run ~loads () in
            Array.for_all2
              (fun a b ->
                Array.length a = Array.length b && Array.for_all2 same_cell a b)
              batches batches'
            && Array.for_all2
                 (fun a b -> status_name a = status_name b)
                 statuses statuses'
            && st'.Catalog.sketch_queries = st.Catalog.sketch_queries
            && st'.Catalog.failures = st.Catalog.failures
            && clock' = clock))
      [ 1; 2; 4 ]
  in
  Printf.sprintf
    {|  "s1_degrade": {
    "dataset": %S,
    "keys": %d,
    "routed_queries_per_batch": %d,
    "rounds": %d,
    "sketch_wire_bytes": %d,
    "sketch_answer_rate": %.4f,
    "sketch_mean_relative_error": %.4f,
    "breaker_opens": %d,
    "blackout_qps": %.1f,
    "answer_schedule_bitwise_identical_across_load_domains": %b
  }|}
    dsname nkeys n rounds (Sketch.size_bytes sketch) sketch_answer_rate
    mean_rel_err breaker_opens
    (qps (n * rounds) secs) identical

let engine_bench ~scale ~out =
  let entries, ctxs =
    List.split (List.map (engine_bench_dataset ~scale) Registry.all)
  in
  let catalog_section = catalog_bench ctxs in
  let thrash_section = thrash_bench ctxs in
  let pipeline_section = pipeline_bench ctxs in
  let overload_section = overload_bench ctxs in
  let degrade_section = degrade_bench ~scale ctxs in
  let parallel_section = parallel_bench ctxs in
  let resilience_section = resilience_bench ctxs in
  let json =
    Printf.sprintf
      {|{
  "schema": "xpest-bench-engine/8",
  "scale": %g,
  "datasets": [
%s
  ],
%s,
%s,
%s,
%s,
%s,
%s,
%s
}
|}
      scale
      (String.concat ",\n" entries)
      catalog_section thrash_section pipeline_section overload_section
      degrade_section parallel_section resilience_section
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote engine benchmark to %s\n%!" out

let () =
  let scale = ref 0.25 in
  let cap = ref 600 in
  let micro = ref true in
  let markdown = ref "" in
  let engine_json = ref "" in
  let engine_only = ref false in
  let ids = ref [] in
  let spec =
    [
      ("--scale", Arg.Set_float scale, "S dataset scale factor (default 0.25)");
      ("--cap", Arg.Set_int cap, "N max queries per class, 0 = unlimited (default 600)");
      ("--no-micro", Arg.Clear micro, " skip bechamel micro-benchmarks");
      ("--micro-only", Arg.Unit (fun () -> ids := [ "none" ]), " only micro-benchmarks");
      ("--markdown", Arg.Set_string markdown, "FILE also write a markdown report");
      ( "--engine-json",
        Arg.Set_string engine_json,
        "FILE write the estimation-engine benchmark (plan build time, cold \
         vs plan-cached throughput, batch vs scalar speedup) as JSON" );
      ( "--engine-only",
        Arg.Set engine_only,
        " run only the engine benchmark (implies --no-micro, no artefacts)" );
    ]
  in
  Arg.parse spec (fun id -> ids := id :: !ids) "bench/main.exe [options] [ids]";
  if !engine_only && !engine_json = "" then engine_json := "BENCH_engine.json";
  if !engine_json <> "" then engine_bench ~scale:!scale ~out:!engine_json;
  if !engine_only then exit 0;
  let ids =
    match List.rev !ids with
    | [] -> Experiments.all_ids
    | [ "none" ] -> []
    | ids -> ids
  in
  if ids <> [] then begin
    let config =
      {
        Env.default_config with
        scale = !scale;
        max_queries_per_class = (if !cap = 0 then None else Some !cap);
      }
    in
    Printf.printf
      "== Reproduction of the evaluation (scale %g, query cap %s) ==\n\n%!"
      !scale
      (if !cap = 0 then "none" else string_of_int !cap);
    let envs =
      List.map
        (fun name ->
          let env, seconds =
            Env.time (fun () -> Env.prepare ~config name)
          in
          Printf.printf "prepared %s: %d elements, workload %d+%d queries (%s)\n%!"
            (Registry.to_string name)
            (Doc.size (Env.doc env))
            (Workload.total_without_order (Env.workload env))
            (Workload.total_with_order (Env.workload env))
            (Tablefmt.fmt_seconds seconds);
          env)
        Registry.all
    in
    print_newline ();
    let artefacts =
      List.map
        (fun id ->
          let artefact, seconds = Env.time (fun () -> Experiments.run envs id) in
          Printf.printf "%s\n(%s computed in %s)\n\n%!"
            (Experiments.render artefact)
            id
            (Tablefmt.fmt_seconds seconds);
          artefact)
        ids
    in
    if !markdown <> "" then begin
      let doc =
        Xpest_harness.Report.document
          ~title:"xpest: reproduced evaluation"
          ~preamble:
            [
              Printf.sprintf
                "Profile: dataset scale %g, query cap %s.  See EXPERIMENTS.md \
                 for the paper-vs-measured reading guide."
                !scale
                (if !cap = 0 then "none" else string_of_int !cap);
            ]
          artefacts
      in
      let oc = open_out !markdown in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote markdown report to %s\n%!" !markdown
    end
  end;
  if !micro then microbenches ()
