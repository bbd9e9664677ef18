(* Differential testing of the catalog's loader-pool pipeline against
   its blocking twin.

   The contract under test is bit-identity: for any load-domain count,
   any resident capacity (eviction mid-batch included) and any keyed
   injected-fault schedule, the pipelined run returns byte-for-byte
   the same results as the blocking run — same floats, same typed
   errors, in input order — and the catalog's acquire-side statistics
   (loads, hits, evictions, retries, quarantines) and logical clock
   match exactly, because acquisition stays single-owner by
   construction.  Everything is driven by fixed seeds, so a violation
   reproduces. *)

module Loader_pool = Xpest_util.Loader_pool
module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Registry = Xpest_datasets.Registry
module Catalog = Xpest_catalog.Catalog

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

(* ------------------------------------------------------------------ *)
(* Fixtures: one catalog directory, one routed batch.                  *)

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

(* ------------------------------------------------------------------ *)
(* Pipeline twins: blocking loads vs loader-pool fan-out.              *)

(* Injected per-key loader latency makes the overlap real: with a
   concurrent loader pool the summary loads genuinely run ahead of
   their acquire turn on other domains, yet results, typed errors,
   acquire-side stats and the logical clock must stay bit-identical to
   the blocking twin — including under mid-batch eviction (three keys
   against resident capacity 2, so residency flips round after
   round). *)
let latency_differential ~resident_capacity =
  let keys = [ key "ssplays" 0.0; key "ssplays" 2.0; key "dblp" 0.0 ] in
  (* prefill the summary fixture: a concurrent loader must be a pure
     reader of shared state *)
  List.iter (fun k -> ignore (summary_for k)) keys;
  let loader (k : Catalog.key) =
    Unix.sleepf (0.001 *. (1.0 +. k.Catalog.variance));
    Ok (summary_for k)
  in
  let pairs = routed_pairs () in
  let make () = Catalog.create_r ~resident_capacity ~loader () in
  List.iter
    (fun load_domains ->
      let seq_cat = make () in
      let pipe_cat = make () in
      Loader_pool.with_pool ~domains:load_domains (fun loads ->
          for round = 1 to 4 do
            let label =
              Printf.sprintf "capacity %d, %d load domains, round %d"
                resident_capacity load_domains round
            in
            let reference = Catalog.estimate_batch_r seq_cat pairs in
            let results = Catalog.estimate_batch_r ~loads pipe_cat pairs in
            compare_results label reference results;
            check_same_stats label (Catalog.stats seq_cat)
              (Catalog.stats pipe_cat);
            Alcotest.(check int)
              (label ^ ": same clock")
              (Catalog.clock seq_cat) (Catalog.clock pipe_cat)
          done;
          let evictions = (Catalog.stats seq_cat).Catalog.evictions in
          if resident_capacity < List.length keys then begin
            if evictions = 0 then
              Alcotest.failf "capacity %d never evicted" resident_capacity
          end
          else
            Alcotest.(check int)
              (Printf.sprintf "capacity %d: no evictions" resident_capacity)
              0 evictions))
    load_domain_counts

let test_pipeline_latency_differential () =
  latency_differential ~resident_capacity:2

(* The same twins at the residency extremes: capacity 1 evicts on
   every key switch, so each prefetched load displaces the summary the
   acquire before it is still serving; capacity 3 holds every key, so
   after the first round the pipeline has nothing left to load. *)
let test_residency_extremes_differential () =
  List.iter
    (fun resident_capacity -> latency_differential ~resident_capacity)
    [ 1; 3 ]

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
  Loader_pool.with_pool ~domains:4 (fun loads ->
      let pipelined, cat, peak = run ~loads () in
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
              Loader_pool.with_pool ~domains:load_domains (fun loads ->
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
          Loader_pool.with_pool ~domains:1 (fun loads ->
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

let () =
  Alcotest.run "parallel_differential"
    [
      ( "pipeline",
        [
          Alcotest.test_case "loader latency, loads 1/2/4 vs blocking" `Quick
            test_pipeline_latency_differential;
          Alcotest.test_case "loads overlap at 4 load domains" `Quick
            test_pipeline_overlaps_loads;
          Alcotest.test_case "chaos: keyed faults through the pipeline" `Quick
            test_pipeline_chaos_keyed_differential;
          Alcotest.test_case "size-1 loader pool equals blocking (stream)"
            `Quick test_pipeline_stream_injector_size1;
        ] );
      ( "residency",
        [
          Alcotest.test_case "capacities 1 and 3 vs blocking" `Quick
            test_residency_extremes_differential;
        ] );
    ]
