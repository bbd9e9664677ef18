(* Degradation-ladder tests for the serving catalog: the three-rung
   answer tier (Exact -> resident-sibling Fallback -> pinned Sketch),
   its byte-budgeted always-resident sketch region, and the contracts
   the ladder must keep:

   - total blackout coverage: with every summary of a dataset failing
     (and the breaker open), every well-formed query is still answered,
     from the Sketch tier, never as an error — bit-identically at any
     --load-domains;
   - the ladder is inert when healthy: a sketch-armed catalog over
     healthy storage is byte-identical to a sketch-free one;
   - the pinned sketch region never exceeds its byte budget;
   - chaos: under injected storage faults every failed acquire lands
     on a rung (never a typed error) when the ladder is armed;
   - one arming rule: a shed and a failed acquire descend alike on an
     armed catalog and fail typed alike on a sketch-free one;
   - the v4 health file skips unknown !directives (counted) while any
     older version keeps its all-or-nothing strictness. *)

module Loader_pool = Xpest_util.Loader_pool
module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Synopsis_io = Xpest_synopsis.Synopsis_io
module Sketch = Xpest_synopsis.Sketch
module Sketch_exec = Xpest_estimator.Sketch_exec
module Xsketch = Xpest_baseline.Xsketch
module Registry = Xpest_datasets.Registry
module Catalog = Xpest_catalog.Catalog
module Admission = Xpest_catalog.Admission

let load_domain_counts = [ 1; 2; 4 ]
let bits = Int64.bits_of_float

let check_bits label expected got =
  if not (Int64.equal (bits expected) (bits got)) then
    Alcotest.failf "%s: %h <> %h (bit drift)" label expected got

(* ------------------------------------------------------------------ *)
(* Fixtures: a catalog directory with sibling variances, plus          *)
(* in-memory fallback sketches of the same generated documents.        *)

let docs : (string, Xpest_xml.Doc.t) Hashtbl.t = Hashtbl.create 4

let doc_for dataset =
  match Hashtbl.find_opt docs dataset with
  | Some doc -> doc
  | None ->
      let name =
        match Registry.of_string dataset with
        | Some n -> n
        | None -> Alcotest.failf "unknown dataset %s" dataset
      in
      let doc = Registry.generate ~scale:0.02 name in
      Hashtbl.add docs dataset doc;
      doc

let summary_for (k : Catalog.key) =
  Summary.build ~p_variance:k.Catalog.variance ~o_variance:k.Catalog.variance
    (doc_for k.Catalog.dataset)

let sketch_for dataset = Sketch.build (doc_for dataset)
let key d v = { Catalog.dataset = d; variance = v }
let k_ss0 = key "ssplays" 0.0
let k_ss2 = key "ssplays" 2.0
let k_dblp = key "dblp" 0.0

let catalog_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "xpest_degrade_%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
     let m =
       List.fold_left
         (fun m k -> Catalog.save_entry ~dir m k (summary_for k))
         Manifest.empty
         [ k_ss0; k_ss2; k_dblp ]
     in
     let m =
       List.fold_left
         (fun m d -> Catalog.save_sketch ~dir m d (sketch_for d))
         m [ "ssplays"; "dblp" ]
     in
     Manifest.save m (Filename.concat dir Catalog.manifest_filename);
     dir)

let load_manifest dir =
  match Manifest.load_typed (Filename.concat dir Catalog.manifest_filename) with
  | Ok m -> m
  | Error e -> Alcotest.failf "manifest load failed: %s" (E.to_string e)

(* A sketch-free catalog over the shared directory (the sketch table
   is dropped from the manifest view, so nothing arms the ladder). *)
let make_plain ?admission ?io () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  Catalog.of_manifest ?admission ?io ~resident_capacity:2 ~dir
    { m with Manifest.sketches = [] }

(* A sketch-armed catalog.  The sketches are installed from memory,
   not loaded through [io]: the ladder's premise is that the sketch
   tier went resident while storage was still healthy, before the
   faults the [io] argument injects began. *)
let make_armed ?admission ?io ?sketch_bytes () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let cat =
    Catalog.of_manifest ?admission ?io ?sketch_bytes ~resident_capacity:2 ~dir
      { m with Manifest.sketches = [] }
  in
  List.iter
    (fun d ->
      match Catalog.install_sketch cat d (sketch_for d) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "install_sketch %s: %s" d (E.to_string e))
    [ "ssplays"; "dblp" ];
  cat

let routed_pairs () =
  let p = Pattern.of_string in
  [|
    (k_ss0, p "//SPEECH/LINE");
    (k_dblp, p "//inproceedings/title");
    (k_ss2, p "//ACT[/{SCENE}]");
    (k_ss0, p "//PLAY//{SPEECH}");
    (k_ss2, p "//SPEECH/LINE");
    (k_dblp, p "//article/{author}");
    (k_ss0, p "//SPEECH/LINE");
    (k_dblp, p "//inproceedings/title");
    (k_ss2, p "//ACT[/{SCENE}]");
    (k_ss0, p "//SPEECH//{WORD}");
  |]

let status_to_string = function
  | Catalog.Served -> "served"
  | Catalog.Shed -> "shed"
  | Catalog.Fallback k -> "fallback:" ^ Catalog.key_to_string k
  | Catalog.Sketch -> "sketch"

let compare_statuses label a b =
  Alcotest.(check (array string))
    (label ^ ": same slot statuses")
    (Array.map status_to_string a)
    (Array.map status_to_string b)

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
  field "quarantines" a.Catalog.quarantines b.Catalog.quarantines;
  field "shed_queries" a.Catalog.shed_queries b.Catalog.shed_queries;
  field "shed_served_queries" a.Catalog.shed_served_queries b.Catalog.shed_served_queries;
  field "fallback_queries" a.Catalog.fallback_queries b.Catalog.fallback_queries;
  field "sketch_queries" a.Catalog.sketch_queries b.Catalog.sketch_queries;
  field "sketch_resident" a.Catalog.sketch_resident b.Catalog.sketch_resident;
  field "sketch_failures" a.Catalog.sketch_failures b.Catalog.sketch_failures

(* ------------------------------------------------------------------ *)
(* Rung order: a resident sibling outranks the sketch.                 *)

let tight =
  {
    Admission.unlimited with
    Admission.deadline = Some 20;
    max_queued_loads = Some 2;
  }

let test_rung_order () =
  let p = Pattern.of_string in
  (* deadline 20: two loads (8 + 8) leave 4 ticks, so the third group
     is always shed.  When the shed key has a resident sibling variance
     the ladder stops at Fallback; only a sibling-less dataset falls
     through to its sketch. *)
  let cat = make_armed ~admission:tight () in
  let pairs =
    [| (k_ss0, p "//SPEECH/LINE"); (k_dblp, p "//article/{author}");
       (k_ss2, p "//SPEECH/LINE") |]
  in
  let results = Catalog.estimate_batch_r cat pairs in
  let statuses = Catalog.last_batch_statuses cat in
  Alcotest.(check string)
    "sibling rung outranks the sketch" "fallback:ssplays@0"
    (status_to_string statuses.(2));
  (match (results.(0), results.(2)) with
  | Ok direct, Ok degraded -> check_bits "sibling's estimate" direct degraded
  | _ -> Alcotest.fail "expected Ok results for slots 0 and 2");
  (* same shape, shed key now dblp: no sibling variance exists, so the
     ladder reaches the sketch rung and still answers *)
  let cat = make_armed ~admission:tight () in
  let pairs =
    [| (k_ss0, p "//SPEECH/LINE"); (k_ss2, p "//ACT[/{SCENE}]");
       (k_dblp, p "//article/{author}") |]
  in
  let results = Catalog.estimate_batch_r cat pairs in
  let statuses = Catalog.last_batch_statuses cat in
  Alcotest.(check string)
    "sibling-less dataset reaches the sketch rung" "sketch"
    (status_to_string statuses.(2));
  (match results.(2) with
  | Ok v -> Alcotest.(check bool) "sketch answer is finite" true
              (Float.is_finite v)
  | Error e -> Alcotest.failf "sketch rung errored: %s" (E.to_string e));
  let s = Catalog.stats cat in
  Alcotest.(check int) "one sketch query" 1 s.Catalog.sketch_queries;
  Alcotest.(check int) "the shed query served" 1 s.Catalog.shed_served_queries;
  (* the sketch-free twin of the same batch fails the shed query typed
     — arming the ladder is exactly what turns that error into an
     answer *)
  let plain = make_plain ~admission:tight () in
  let plain_results = Catalog.estimate_batch_r plain pairs in
  (match plain_results.(2) with
  | Error (E.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "unexpected error kind: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "sketch-free twin served a shed sibling-less key")

(* One arming rule: a key with a resident sibling lands on the same
   rung whichever path raised its error.  Once it is shed (deadline
   20: two loads leave 4 ticks), once it is quarantined (a health file
   benches it without I/O); on the armed catalog both answers are the
   sibling's own bits, on the sketch-free twin both are typed errors. *)
let test_shed_and_quarantine_descend_alike () =
  let q = Pattern.of_string "//SPEECH/LINE" in
  let q_dblp = Pattern.of_string "//article/{author}" in
  let shed_pairs = [| (k_ss0, q); (k_dblp, q_dblp); (k_ss2, q) |] in
  let quarantine_pairs = [| (k_ss0, q); (k_ss2, q) |] in
  let path =
    Filename.concat (Lazy.force catalog_dir) "ss2_quarantined.health"
  in
  let oc = open_out path in
  output_string oc "xpest-catalog-health/4\n";
  output_string oc "ssplays%402\t3\t3\t0\t1\t8\t100\n";
  close_out oc;
  let quarantined cat =
    (match Catalog.load_health cat path with
    | Ok 1 -> ()
    | Ok n -> Alcotest.failf "expected one restored key, got %d" n
    | Error e -> Alcotest.failf "load_health: %s" (E.to_string e));
    cat
  in
  let run cat pairs =
    let results = Catalog.estimate_batch_r cat pairs in
    let last = Array.length pairs - 1 in
    (results.(0), results.(last), (Catalog.last_batch_statuses cat).(last))
  in
  let armed_cases =
    [
      ("shed", run (make_armed ~admission:tight ()) shed_pairs);
      ( "quarantined",
        run (quarantined (make_armed ())) quarantine_pairs );
    ]
  in
  let sibling_bits = ref None in
  List.iter
    (fun (label, (direct, degraded, status)) ->
      Alcotest.(check string)
        (label ^ ": lands on the sibling rung")
        "fallback:ssplays@0" (status_to_string status);
      match (direct, degraded) with
      | Ok direct, Ok degraded -> (
          check_bits (label ^ ": sibling's estimate") direct degraded;
          match !sibling_bits with
          | None -> sibling_bits := Some degraded
          | Some first ->
              check_bits (label ^ ": same bits as shed") first degraded)
      | _ -> Alcotest.failf "%s: expected Ok for the sibling and the key" label)
    armed_cases;
  (match run (make_plain ~admission:tight ()) shed_pairs with
  | _, Error (E.Deadline_exceeded _), Catalog.Shed -> ()
  | _, Error e, _ -> Alcotest.failf "sketch-free shed: %s" (E.to_string e)
  | _, Ok _, _ -> Alcotest.fail "sketch-free twin served a shed key");
  match run (quarantined (make_plain ())) quarantine_pairs with
  | _, Error (E.Quarantined _), _ -> ()
  | _, Error e, _ -> Alcotest.failf "sketch-free quarantine: %s" (E.to_string e)
  | _, Ok _, _ -> Alcotest.fail "sketch-free twin served a quarantined key"

(* The sketch answer is the order-1 Markov baseline's answer: the wire
   round-trip through the export must not perturb a single bit. *)
let test_sketch_matches_markov_baseline () =
  let doc = doc_for "dblp" in
  let xs = Xsketch.build ~budget_bytes:0 doc in
  let sx = Sketch_exec.create (Sketch.build doc) in
  List.iter
    (fun q ->
      let pat = Pattern.of_string q in
      check_bits q (Xsketch.estimate xs pat) (Sketch_exec.estimate sx pat))
    [
      "//article/{author}";
      "//inproceedings/title";
      "//dblp/article";
      "//article//{title}";
      "//absent_tag/title";
    ]

(* ------------------------------------------------------------------ *)
(* Total blackout: every load fails, the breaker opens, and the        *)
(* sketch tier still answers 100% of well-formed queries.              *)

let blackout_io () =
  Fault.io (Fault.create_keyed (Fault.uniform ~seed:11 ~rate:1.0))
    Fault.Io.default

let breaker_cfg =
  { Admission.unlimited with Admission.breaker_threshold = Some 2 }

let assert_all_sketch label cat results =
  Array.iteri
    (fun i r ->
      match r with
      | Ok v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, query %d: finite" label i)
            true (Float.is_finite v)
      | Error e ->
          Alcotest.failf "%s, query %d: blackout leaked an error: %s" label i
            (E.to_string e))
    results;
  Array.iteri
    (fun i s ->
      Alcotest.(check string)
        (Printf.sprintf "%s, slot %d status" label i)
        "sketch" (status_to_string s))
    (Catalog.last_batch_statuses cat)

let test_blackout_answers_from_sketch () =
  let pairs = routed_pairs () in
  let cat = make_armed ~admission:breaker_cfg ~io:(blackout_io ()) () in
  for round = 1 to 4 do
    let results = Catalog.estimate_batch_r cat pairs in
    assert_all_sketch (Printf.sprintf "round %d" round) cat results
  done;
  (* the breaker did open over the dead loader, and the sketch tier
     kept answering right through it *)
  Alcotest.(check bool)
    "breaker open" true
    ((Catalog.breaker cat).Admission.state <> `Closed);
  let s = Catalog.stats cat in
  Alcotest.(check int)
    "every query answered by the sketch tier"
    (4 * Array.length pairs)
    s.Catalog.sketch_queries;
  Alcotest.(check bool) "loads did fail" true (s.Catalog.failures > 0);
  (* every shed query was served, and the acquire failures the sketch
     tier absorbed are not sheds *)
  Alcotest.(check int) "shed queries served" s.Catalog.shed_queries
    s.Catalog.shed_served_queries;
  Alcotest.(check bool) "absorbed failures are not sheds" true
    (s.Catalog.sketch_queries > s.Catalog.shed_served_queries);
  (* without a breaker the dead loader is probed until every key is
     quarantined — the Quarantined rung of the ladder — and the sketch
     tier still answers everything *)
  let cat = make_armed ~io:(blackout_io ()) () in
  for round = 1 to 4 do
    let results = Catalog.estimate_batch_r cat pairs in
    assert_all_sketch (Printf.sprintf "no-breaker round %d" round) cat results
  done;
  Alcotest.(check bool)
    "keys were quarantined" true
    ((Catalog.stats cat).Catalog.quarantines > 0)

let test_blackout_bit_identity () =
  let pairs = routed_pairs () in
  (* sequential reference *)
  let seq_cat = make_armed ~admission:breaker_cfg ~io:(blackout_io ()) () in
  let reference =
    Array.init 3 (fun _ -> Catalog.estimate_batch_r seq_cat pairs)
  in
  let ref_statuses = Catalog.last_batch_statuses seq_cat in
  let ref_stats = Catalog.stats seq_cat in
  let ref_clock = Catalog.clock seq_cat in
  let check_twin label batch cat =
    Array.iteri
      (fun round results ->
        compare_results
          (Printf.sprintf "%s, round %d" label (round + 1))
          reference.(round) results)
      batch;
    compare_statuses label ref_statuses (Catalog.last_batch_statuses cat);
    check_same_stats label ref_stats (Catalog.stats cat);
    Alcotest.(check int) (label ^ ": same clock") ref_clock (Catalog.clock cat)
  in
  List.iter
    (fun load_domains ->
      let cat = make_armed ~admission:breaker_cfg ~io:(blackout_io ()) () in
      Loader_pool.with_pool ~domains:load_domains (fun loads ->
          check_twin
            (Printf.sprintf "%d load domains" load_domains)
            (Array.init 3 (fun _ -> Catalog.estimate_batch_r ~loads cat pairs))
            cat))
    load_domain_counts

(* ------------------------------------------------------------------ *)
(* Healthy storage: arming the ladder changes nothing.                 *)

let test_healthy_armed_is_identity () =
  let pairs = routed_pairs () in
  List.iter
    (fun admission ->
      let plain = make_plain ?admission () in
      let armed = make_armed ?admission () in
      for round = 1 to 4 do
        let label = Printf.sprintf "round %d" round in
        let reference = Catalog.estimate_batch_r plain pairs in
        let results = Catalog.estimate_batch_r armed pairs in
        compare_results label reference results;
        Alcotest.(check int)
          (label ^ ": same clock")
          (Catalog.clock plain) (Catalog.clock armed);
        Array.iter
          (function
            | Catalog.Served -> ()
            | s ->
                Alcotest.failf "%s: healthy armed catalog produced a %s slot"
                  label (status_to_string s))
          (Catalog.last_batch_statuses armed)
      done;
      Alcotest.(check int)
        "no sketch queries over healthy storage" 0
        (Catalog.stats armed).Catalog.sketch_queries)
    [
      None;
      Some
        {
          Admission.unlimited with
          Admission.deadline = Some max_int;
          max_queued_loads = Some max_int;
        };
    ]

(* ------------------------------------------------------------------ *)
(* The pinned region's byte budget is a hard bound.                    *)

let test_sketch_budget_is_hard () =
  let sk_ss = sketch_for "ssplays" in
  let sk_db = sketch_for "dblp" in
  (* a budget one byte short of the sketch refuses it, typed *)
  let cat = make_plain () in
  ignore cat;
  let short =
    Catalog.of_manifest
      ~sketch_bytes:(Sketch.size_bytes sk_ss - 1)
      ~resident_capacity:2
      ~dir:(Lazy.force catalog_dir)
      { (load_manifest (Lazy.force catalog_dir)) with Manifest.sketches = [] }
  in
  (match Catalog.install_sketch short "ssplays" sk_ss with
  | Error (E.Capacity _) -> ()
  | Error e -> Alcotest.failf "wrong refusal: %s" (E.to_string e)
  | Ok () -> Alcotest.fail "over-budget sketch was installed");
  let s = Catalog.stats short in
  Alcotest.(check int) "refusal counted" 1 s.Catalog.sketch_failures;
  Alcotest.(check int) "nothing resident" 0 s.Catalog.sketch_resident;
  Alcotest.(check int) "no bytes used" 0 s.Catalog.sketch_bytes;
  (* an exact-fit budget takes the first sketch and refuses the second;
     residency never exceeds the budget at any point *)
  let exact =
    Catalog.of_manifest
      ~sketch_bytes:(Sketch.size_bytes sk_ss)
      ~resident_capacity:2
      ~dir:(Lazy.force catalog_dir)
      { (load_manifest (Lazy.force catalog_dir)) with Manifest.sketches = [] }
  in
  (match Catalog.install_sketch exact "ssplays" sk_ss with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exact fit refused: %s" (E.to_string e));
  (match Catalog.install_sketch exact "dblp" sk_db with
  | Error (E.Capacity _) -> ()
  | Error e -> Alcotest.failf "wrong refusal: %s" (E.to_string e)
  | Ok () -> Alcotest.fail "second sketch broke the budget");
  let s = Catalog.stats exact in
  Alcotest.(check int) "one resident" 1 s.Catalog.sketch_resident;
  Alcotest.(check bool)
    "region within budget" true
    (s.Catalog.sketch_bytes <= s.Catalog.sketch_budget);
  (* replacing a dataset's sketch must not double-count its bytes *)
  (match Catalog.install_sketch exact "ssplays" sk_ss with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replacement refused: %s" (E.to_string e));
  let s = Catalog.stats exact in
  Alcotest.(check int) "still one resident" 1 s.Catalog.sketch_resident;
  Alcotest.(check bool)
    "still within budget" true
    (s.Catalog.sketch_bytes <= s.Catalog.sketch_budget)

(* The armed blackout workload never grows the region either: serving
   from the sketch tier is read-only residency. *)
let test_blackout_region_stays_within_budget () =
  let cat = make_armed ~admission:breaker_cfg ~io:(blackout_io ()) () in
  let pairs = routed_pairs () in
  for _ = 1 to 3 do
    ignore (Catalog.estimate_batch_r cat pairs);
    let s = Catalog.stats cat in
    Alcotest.(check bool)
      "sketch region within budget" true
      (s.Catalog.sketch_bytes <= s.Catalog.sketch_budget);
    Alcotest.(check int) "both sketches resident" 2 s.Catalog.sketch_resident
  done

(* ------------------------------------------------------------------ *)
(* Chaos: with the ladder armed, every injected fault path lands on a  *)
(* rung — no typed error ever escapes.                                 *)

let chaos_cfg =
  {
    Admission.deadline = Some 40;
    max_queued_loads = Some 2;
    breaker_threshold = Some 2;
  }

let test_chaos_every_fault_lands_on_a_rung () =
  let pairs = routed_pairs () in
  let chaos_io () =
    Fault.io (Fault.create_keyed (Fault.uniform ~seed:23 ~rate:0.4))
      Fault.Io.default
  in
  (* sequential reference, plus the no-error invariant *)
  let seq_cat = make_armed ~admission:chaos_cfg ~io:(chaos_io ()) () in
  let reference =
    Array.init 4 (fun round ->
        let results = Catalog.estimate_batch_r seq_cat pairs in
        Array.iteri
          (fun i r ->
            match r with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "round %d, query %d: fault escaped the ladder: %s"
                  (round + 1) i (E.to_string e))
          results;
        results)
  in
  let ref_statuses = Catalog.last_batch_statuses seq_cat in
  let ref_stats = Catalog.stats seq_cat in
  (* the workload did exercise the lower rungs *)
  Alcotest.(check bool)
    "lower rungs used" true
    (ref_stats.Catalog.fallback_queries > 0
    || ref_stats.Catalog.sketch_queries > 0);
  (* and reproduces bit-for-bit under the loader pool *)
  List.iter
    (fun load_domains ->
      let cat = make_armed ~admission:chaos_cfg ~io:(chaos_io ()) () in
      Loader_pool.with_pool ~domains:load_domains (fun loads ->
          Array.iteri
            (fun round expected ->
              compare_results
                (Printf.sprintf "%d load domains, round %d" load_domains
                   (round + 1))
                expected
                (Catalog.estimate_batch_r ~loads cat pairs))
            reference;
          compare_statuses
            (Printf.sprintf "%d load domains" load_domains)
            ref_statuses
            (Catalog.last_batch_statuses cat);
          check_same_stats
            (Printf.sprintf "%d load domains" load_domains)
            ref_stats (Catalog.stats cat)))
    load_domain_counts

(* ------------------------------------------------------------------ *)
(* of_manifest arms the ladder from the sketch table.                  *)

let test_of_manifest_installs_sketches () =
  let dir = Lazy.force catalog_dir in
  let cat = Catalog.of_manifest ~resident_capacity:2 ~dir (load_manifest dir) in
  let s = Catalog.stats cat in
  Alcotest.(check int) "both sketches installed" 2 s.Catalog.sketch_resident;
  Alcotest.(check int) "no install failures" 0 s.Catalog.sketch_failures;
  (* storage dies after startup: delete every summary file; the
     eagerly-loaded sketch tier still answers everything *)
  let dir2 =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xpest_degrade_dead_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir2) then Unix.mkdir dir2 0o755;
  let m =
    List.fold_left
      (fun m k -> Catalog.save_entry ~dir:dir2 m k (summary_for k))
      Manifest.empty [ k_ss0; k_dblp ]
  in
  let m = Catalog.save_sketch ~dir:dir2 m "ssplays" (sketch_for "ssplays") in
  let m = Catalog.save_sketch ~dir:dir2 m "dblp" (sketch_for "dblp") in
  let cat = Catalog.of_manifest ~resident_capacity:2 ~dir:dir2 m in
  List.iter
    (fun k -> Sys.remove (Filename.concat dir2 (Catalog.key_filename k)))
    [ k_ss0; k_dblp ];
  let p = Pattern.of_string in
  let pairs = [| (k_ss0, p "//SPEECH/LINE"); (k_dblp, p "//article/{author}") |] in
  let results = Catalog.estimate_batch_r cat pairs in
  assert_all_sketch "post-startup storage death" cat results

(* ------------------------------------------------------------------ *)
(* Sketch wire format and the manifest's sketch table.                 *)

let test_sketch_roundtrip_and_kind () =
  let dir = Lazy.force catalog_dir in
  let path = Filename.concat dir (Catalog.sketch_filename "dblp") in
  (* the file written by save_sketch is a recognized container kind *)
  (match Synopsis_io.kind (Synopsis_io.info path) with
  | `Sketch -> ()
  | `Synopsis | `Catalog_manifest | `Unknown ->
      Alcotest.fail "sketch file not recognized as a sketch");
  (* the decoded sketch estimates bit-identically to the built one *)
  let loaded =
    match Sketch.load_typed path with
    | Ok s -> s
    | Error e -> Alcotest.failf "sketch load failed: %s" (E.to_string e)
  in
  let built = Sketch_exec.create (sketch_for "dblp") in
  let reloaded = Sketch_exec.create loaded in
  List.iter
    (fun q ->
      let pat = Pattern.of_string q in
      check_bits q (Sketch_exec.estimate built pat)
        (Sketch_exec.estimate reloaded pat))
    [ "//article/{author}"; "//dblp/article"; "//inproceedings/title" ];
  (* the manifest's sketch table survives its own round-trip *)
  let m = load_manifest dir in
  (match Manifest.find_sketch m ~dataset:"dblp" with
  | None -> Alcotest.fail "sketch entry lost from the manifest"
  | Some e ->
      Alcotest.(check string)
        "sketch file name" (Catalog.sketch_filename "dblp")
        e.Manifest.s_file;
      Alcotest.(check bool) "recorded size" true (e.Manifest.s_bytes > 0);
      match Catalog.sketch_check ~dir e with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "sketch_check failed: %s" (E.to_string err));
  (* corruption is a typed refusal, not a crash or a wrong answer *)
  let corrupt_path = Filename.concat dir "corrupt.sketch" in
  let body = In_channel.with_open_bin path In_channel.input_all in
  let flipped = Bytes.of_string body in
  let off = Bytes.length flipped - 3 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0xff));
  Out_channel.with_open_bin corrupt_path (fun oc ->
      Out_channel.output_bytes oc flipped);
  match Sketch.load_typed corrupt_path with
  | Error (E.Corrupt _) -> ()
  | Error e -> Alcotest.failf "wrong error kind: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "corrupted sketch decoded"

(* ------------------------------------------------------------------ *)
(* Health file v4: unknown directives skip, old versions are corrupt.  *)

let health_path name =
  Filename.concat (Lazy.force catalog_dir) (name ^ ".health")

let test_health_v4_skips_unknown_directives () =
  let path = health_path "v4_unknown" in
  let oc = open_out path in
  output_string oc "xpest-catalog-health/4\n";
  output_string oc "!breaker\topen\t5\t2\t16\n";
  (* an invented directive from some future writer *)
  output_string oc "!sketch-epoch\t7\tfe3a\n";
  output_string oc "!totally-unknown\n";
  close_out oc;
  let cat = make_plain ~admission:breaker_cfg () in
  (match Catalog.load_health cat path with
  | Ok n -> Alcotest.(check int) "no rows in the file" 0 n
  | Error e -> Alcotest.failf "v4 load failed on unknown directive: %s"
                 (E.to_string e));
  (* the known directive still applied, the unknown ones were counted *)
  Alcotest.(check bool)
    "breaker restored from the known directive" true
    ((Catalog.breaker cat).Admission.state = `Open);
  Alcotest.(check int)
    "skipped directives counted" 2
    (Catalog.stats cat).Catalog.skipped_directives

(* Only the current format loads: an older version header is corrupt
   and applies nothing, even when every line after it would parse. *)
let test_health_old_version_rejected () =
  let path = health_path "v3_header" in
  let oc = open_out path in
  output_string oc "xpest-catalog-health/3\n!breaker\topen\t5\t2\t16\n";
  output_string oc "!sketch-epoch\t7\tfe3a\n";
  output_string oc "ssplays%400\t1\t1\t0\t0\t4\t0\n";
  close_out oc;
  let cat = make_plain ~admission:breaker_cfg () in
  match Catalog.load_health cat path with
  | Ok _ -> Alcotest.fail "old health-file version accepted"
  | Error e ->
      Alcotest.(check string) "typed corrupt error" "corrupt" (E.kind e);
      Alcotest.(check int)
        "no rows applied" 0
        (List.length (Catalog.health cat));
      Alcotest.(check bool)
        "breaker unchanged" true
        ((Catalog.breaker cat).Admission.state = `Closed);
      Alcotest.(check int)
        "nothing skipped on a failed load" 0
        (Catalog.stats cat).Catalog.skipped_directives

let () =
  Alcotest.run "catalog_degrade"
    [
      ( "ladder",
        [
          Alcotest.test_case "sibling rung outranks the sketch" `Quick
            test_rung_order;
          Alcotest.test_case "sketch matches the Markov baseline" `Quick
            test_sketch_matches_markov_baseline;
          Alcotest.test_case "shed and quarantine descend alike" `Quick
            test_shed_and_quarantine_descend_alike;
        ] );
      ( "blackout",
        [
          Alcotest.test_case "100% quarantined still answers" `Quick
            test_blackout_answers_from_sketch;
          Alcotest.test_case "bit-identical at any fan-out" `Quick
            test_blackout_bit_identity;
        ] );
      ( "identity",
        [
          Alcotest.test_case "healthy armed catalog is inert" `Quick
            test_healthy_armed_is_identity;
        ] );
      ( "budget",
        [
          Alcotest.test_case "pinned region budget is hard" `Quick
            test_sketch_budget_is_hard;
          Alcotest.test_case "blackout serving stays within budget" `Quick
            test_blackout_region_stays_within_budget;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "every fault lands on a rung" `Quick
            test_chaos_every_fault_lands_on_a_rung;
        ] );
      ( "provisioning",
        [
          Alcotest.test_case "of_manifest installs the sketch table" `Quick
            test_of_manifest_installs_sketches;
          Alcotest.test_case "sketch wire round-trip and kind" `Quick
            test_sketch_roundtrip_and_kind;
        ] );
      ( "health",
        [
          Alcotest.test_case "v4 skips unknown directives" `Quick
            test_health_v4_skips_unknown_directives;
          Alcotest.test_case "old version header is corrupt" `Quick
            test_health_old_version_rejected;
        ] );
    ]
