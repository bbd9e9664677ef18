(* Chaos tests for the catalog's fault-tolerance layer: routed batches
   under injected storage faults never raise, keep per-query isolation
   and input order, and every Ok float is bit-identical to the
   fault-free run; the quarantine/backoff state machine is verified
   step by deterministic step on the logical clock; and the operator's
   health machinery (clear_quarantine, health save/load) restores and
   discards that state exactly. *)

module Counters = Xpest_util.Counters
module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Registry = Xpest_datasets.Registry
module Catalog = Xpest_catalog.Catalog

let seeds = [ 11; 23; 47 ]
let rates = [ 0.01; 0.1 ]

let key d v = { Catalog.dataset = d; variance = v }

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

(* A real on-disk catalog the injected faults can damage in flight. *)
let catalog_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "xpest_chaos_test_%d" (Unix.getpid ()))
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
  |]

let load_manifest dir =
  match Manifest.load_typed (Filename.concat dir Catalog.manifest_filename) with
  | Ok m -> m
  | Error e -> Alcotest.failf "manifest load failed: %s" (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Routed batches under injection.                                     *)

let test_chaos_batches () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let pairs = routed_pairs () in
  (* fault-free reference floats *)
  let reference =
    let cat = Catalog.of_manifest ~dir m in
    Array.map
      (function
        | Ok v -> v
        | Error e -> Alcotest.failf "fault-free run failed: %s" (E.to_string e))
      (Catalog.estimate_batch_r cat pairs)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun rate ->
          let io =
            Fault.io (Fault.create (Fault.uniform ~seed ~rate)) Fault.Io.default
          in
          (* resident capacity 2 over 3 keys: every batch reloads, so
             the fault surface stays exercised round after round *)
          let cat = Catalog.of_manifest ~resident_capacity:2 ~io ~dir m in
          for round = 1 to 5 do
            let results = Catalog.estimate_batch_r cat pairs in
            Alcotest.(check int)
              (Printf.sprintf "seed %d rate %g round %d: in input order" seed
                 rate round)
              (Array.length pairs) (Array.length results);
            Array.iteri
              (fun i -> function
                | Ok v ->
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "seed %d rate %g round %d query %d: Ok is \
                          bit-identical to fault-free"
                         seed rate round i)
                      true
                      (Int64.equal (Int64.bits_of_float v)
                         (Int64.bits_of_float reference.(i)))
                | Error (E.Io_failure _ | E.Corrupt _ | E.Quarantined _) -> ()
                | Error e ->
                    Alcotest.failf
                      "seed %d rate %g round %d query %d: unexpected error \
                       class %s"
                      seed rate round i (E.to_string e))
              results
          done)
        rates)
    seeds

(* At a 10% fault rate with retries, some queries must still succeed
   over enough rounds — degraded, not dead. *)
let test_chaos_service_survives () =
  let dir = Lazy.force catalog_dir in
  let m = load_manifest dir in
  let pairs = routed_pairs () in
  let io =
    Fault.io (Fault.create (Fault.uniform ~seed:23 ~rate:0.1)) Fault.Io.default
  in
  let cat = Catalog.of_manifest ~resident_capacity:2 ~io ~dir m in
  let ok = ref 0 and total = ref 0 in
  for _ = 1 to 10 do
    Array.iter
      (function Ok _ -> incr ok | Error _ -> ())
      (Catalog.estimate_batch_r cat pairs);
    total := !total + Array.length pairs
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most queries succeed at 10%% faults (%d/%d)" !ok !total)
    true
    (!ok * 2 > !total)

(* ------------------------------------------------------------------ *)
(* Quarantine / backoff state machine, step by step.                   *)

let test_quarantine_backoff () =
  let k = key "ssplays" 0.0 in
  let q = Pattern.of_string "//SPEECH" in
  let healthy = ref false in
  let loader_calls = ref 0 in
  let loader k =
    incr loader_calls;
    if !healthy then Ok (summary_for k)
    else Error (E.Io_failure { path = "chaos"; reason = "injected" })
  in
  let resilience =
    {
      Catalog.max_retries = 0;
      failure_threshold = 3;
      backoff_base = 2;
      backoff_max = 8;
    }
  in
  let cat = Catalog.create_r ~resilience ~loader () in
  let attempt expect_called expect_kind label =
    let before = !loader_calls in
    let r = Catalog.estimate_r cat k q in
    Alcotest.(check bool)
      (label ^ ": loader touched iff expected")
      expect_called
      (!loader_calls > before);
    match (r, expect_kind) with
    | Ok _, `Ok -> ()
    | Error e, `Kind kind ->
        Alcotest.(check string) (label ^ ": error kind") kind (E.kind e)
    | Ok _, `Kind kind -> Alcotest.failf "%s: expected %s, got Ok" label kind
    | Error e, `Ok ->
        Alcotest.failf "%s: expected Ok, got %s" label (E.to_string e)
  in
  let state label expected =
    match Catalog.health cat with
    | [ h ] ->
        let got =
          match h.Catalog.h_state with
          | Catalog.Healthy -> "healthy"
          | Catalog.Quarantined { until } -> Printf.sprintf "quarantined:%d" until
        in
        Alcotest.(check string) (label ^ ": health state") expected got
    | hs -> Alcotest.failf "%s: expected one tracked key, got %d" label
              (List.length hs)
  in
  (* clock 1..3: three straight failures, third one quarantines for
     backoff_base = 2 ticks (until clock 3 + 2 = 5) *)
  attempt true (`Kind "io-failure") "attempt 1";
  attempt true (`Kind "io-failure") "attempt 2";
  attempt true (`Kind "io-failure") "attempt 3";
  state "after threshold" "quarantined:5";
  (* clock 4: inside quarantine — refused with NO loader I/O *)
  attempt false (`Kind "quarantined") "attempt 4 (benched)";
  (* clock 5: quarantine expired — one probe, still failing, so it
     re-quarantines with doubled backoff (until 5 + 4 = 9) *)
  attempt true (`Kind "io-failure") "attempt 5 (probe)";
  state "after failed probe" "quarantined:9";
  (* clock 6..8: benched again, no I/O *)
  attempt false (`Kind "quarantined") "attempt 6 (benched)";
  attempt false (`Kind "quarantined") "attempt 7 (benched)";
  attempt false (`Kind "quarantined") "attempt 8 (benched)";
  (* the fault clears; clock 9 probes and recovers *)
  healthy := true;
  attempt true `Ok "attempt 9 (recovery)";
  state "after recovery" "healthy";
  Alcotest.(check int) "loader calls: 3 + probe + recovery" 5 !loader_calls;
  let st = Catalog.stats cat in
  Alcotest.(check int) "failures" 4 st.Catalog.failures;
  Alcotest.(check int) "quarantines" 2 st.Catalog.quarantines;
  (* healthy again: next attempt is a resident hit, no loader call *)
  attempt false `Ok "attempt 10 (resident)";
  Alcotest.(check int) "clock ticked once per attempt" 10 (Catalog.clock cat)

let test_retry_transient () =
  let k = key "ssplays" 0.0 in
  let q = Pattern.of_string "//SPEECH" in
  let failures_left = ref 1 in
  let loader_calls = ref 0 in
  let loader k =
    incr loader_calls;
    if !failures_left > 0 then begin
      decr failures_left;
      Error (E.Io_failure { path = "chaos"; reason = "blip" })
    end
    else Ok (summary_for k)
  in
  let cat = Catalog.create_r ~loader () in
  (match Catalog.estimate_r cat k q with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "transient blip not absorbed by retry: %s" (E.to_string e));
  Alcotest.(check int) "loader called twice (1 failure + 1 retry)" 2
    !loader_calls;
  let st = Catalog.stats cat in
  Alcotest.(check int) "one retry recorded" 1 st.Catalog.retries;
  Alcotest.(check int) "no failed attempts" 0 st.Catalog.failures;
  (* a permanent error burns no retries *)
  let cat2 =
    Catalog.create_r
      ~loader:(fun k -> Error (E.Unknown_key (Catalog.key_to_string k)))
      ()
  in
  (match Catalog.estimate_r cat2 k q with
  | Error (E.Unknown_key _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown key not reported");
  Alcotest.(check int) "no retries on permanent errors" 0
    (Catalog.stats cat2).Catalog.retries

(* The health table is bounded at 4096 keys.  With a threshold of one
   and a permanent loader error, every distinct key is quarantined on
   its first attempt, so nothing tracked is prunable: the next cold
   key is refused with [Capacity] before the loader is called. *)
let test_health_table_bound () =
  let bound = 4096 in
  let loader_calls = ref 0 in
  let loader k =
    incr loader_calls;
    Error
      (E.Stale_manifest
         { path = Catalog.key_to_string k; reason = "rebuilt behind it" })
  in
  let resilience =
    { Catalog.default_resilience with max_retries = 0; failure_threshold = 1 }
  in
  let cat = Catalog.create_r ~resilience ~loader () in
  for i = 1 to bound do
    match Catalog.acquire_r cat (key "tenant" (float_of_int i)) with
    | Error (E.Stale_manifest _) -> ()
    | Error e -> Alcotest.failf "key %d: wrong error %s" i (E.to_string e)
    | Ok _ -> Alcotest.failf "key %d: loaded" i
  done;
  Alcotest.(check int) "one loader call per key" bound !loader_calls;
  Alcotest.(check int) "every key quarantined" bound
    (Catalog.stats cat).Catalog.quarantines;
  Alcotest.(check int) "every key tracked" bound
    (List.length (Catalog.health cat));
  (match Catalog.acquire_r cat (key "tenant" (float_of_int (bound + 1))) with
  | Error (E.Capacity _) -> ()
  | Error e -> Alcotest.failf "cold key past the bound: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "cold key past the bound loaded");
  Alcotest.(check int) "no loader call for the refused key" bound
    !loader_calls;
  Alcotest.(check int) "the refused key is not tracked" bound
    (List.length (Catalog.health cat))

let test_per_query_isolation () =
  let good = key "ssplays" 0.0 and bad = key "dblp" 0.0 in
  let loader k =
    if k = bad then Error (E.Io_failure { path = "chaos"; reason = "down" })
    else Ok (summary_for k)
  in
  let cat = Catalog.create_r ~loader () in
  let p = Pattern.of_string in
  let pairs =
    [|
      (good, p "//SPEECH/LINE");
      (bad, p "//inproceedings/title");
      (good, p "//PLAY//{SPEECH}");
      (bad, p "//article");
    |]
  in
  let reference =
    let cat = Catalog.create_r ~loader:(fun k -> Ok (summary_for k)) () in
    Catalog.estimate_batch_r cat [| pairs.(0); pairs.(2) |]
  in
  let results = Catalog.estimate_batch_r cat pairs in
  (match (results.(0), reference.(0)) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "query 0 unaffected by the poisoned key" true
        (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  | _ -> Alcotest.fail "query 0 should succeed");
  (match (results.(2), reference.(1)) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "query 2 unaffected by the poisoned key" true
        (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  | _ -> Alcotest.fail "query 2 should succeed");
  (match results.(1) with
  | Error (E.Io_failure _) -> ()
  | _ -> Alcotest.fail "query 1 should carry the poisoned key's error");
  match results.(3) with
  | Error (E.Io_failure _) -> ()
  | _ -> Alcotest.fail "query 3 should carry the poisoned key's error"

(* A loader that *raises* mid-flight — not returns Error — now runs on
   a loader-pool domain.  The raise must surface as exactly the typed
   error the blocking path produces (Catalog.create_r classifies escaped
   exceptions before the pool ever sees them), attributed to the
   raising key's queries only: healthy keys loaded concurrently with
   the raising one stay Ok and bit-identical, with identical stats. *)
let test_raising_loader_through_pipeline () =
  let module Loader_pool = Xpest_util.Loader_pool in
  let bad = key "ssplays" 2.0 in
  (* prefill: concurrent loaders must be pure readers of the fixture *)
  List.iter
    (fun k -> ignore (summary_for k))
    [ key "ssplays" 0.0; bad; key "dblp" 0.0 ];
  let loader k =
    Unix.sleepf 0.002;
    if k = bad then
      raise (Sys_error "injected: summary store unreachable mid-flight")
    else summary_for k
  in
  let pairs = routed_pairs () in
  let make () =
    Catalog.create_r ~resident_capacity:2 ~loader:(fun k -> Ok (loader k)) ()
  in
  let seq_cat = make () in
  let reference = Catalog.estimate_batch_r seq_cat pairs in
  List.iter
    (fun load_domains ->
      let pipe_cat = make () in
      Loader_pool.with_pool ~domains:load_domains (fun loads ->
          let results = Catalog.estimate_batch_r ~loads pipe_cat pairs in
          Array.iteri
            (fun i r ->
              let label =
                Printf.sprintf "%d load domains, query %d" load_domains i
              in
              let k, _ = pairs.(i) in
              match (r, reference.(i)) with
              | Ok a, Ok b ->
                  Alcotest.(check bool)
                    (label ^ ": healthy key unaffected by the raising one")
                    true
                    (k <> bad
                    && Int64.equal (Int64.bits_of_float a)
                         (Int64.bits_of_float b))
              | Error (E.Io_failure _ as a), Error (E.Io_failure _ as b) ->
                  Alcotest.(check bool)
                    (label ^ ": raise landed on the raising key only")
                    true (k = bad);
                  Alcotest.(check string)
                    (label ^ ": same typed error as blocking")
                    (E.to_string b) (E.to_string a)
              | _ ->
                  Alcotest.failf "%s: outcome diverged from the blocking twin"
                    label)
            results;
          let a = Catalog.stats seq_cat and b = Catalog.stats pipe_cat in
          List.iter
            (fun (field, x, y) ->
              Alcotest.(check int)
                (Printf.sprintf "%d load domains: same %s" load_domains field)
                x y)
            [
              ("loads", a.Catalog.loads, b.Catalog.loads);
              ("failures", a.Catalog.failures, b.Catalog.failures);
              ("retries", a.Catalog.retries, b.Catalog.retries);
              ("quarantines", a.Catalog.quarantines, b.Catalog.quarantines);
            ]))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* clear_quarantine.                                                   *)

let test_clear_quarantine () =
  let k = key "ssplays" 0.0 in
  let q = Pattern.of_string "//SPEECH" in
  let broken = ref true in
  let loader k =
    if !broken then Error (E.Io_failure { path = "x"; reason = "down" })
    else Ok (summary_for k)
  in
  let resilience =
    { Catalog.default_resilience with max_retries = 0; failure_threshold = 2;
      backoff_base = 50 }
  in
  let cat = Catalog.create_r ~resilience ~loader () in
  ignore (Catalog.estimate_r cat k q);
  ignore (Catalog.estimate_r cat k q);
  (match Catalog.estimate_r cat k q with
  | Error (E.Quarantined _) -> ()
  | _ -> Alcotest.fail "expected the key to be quarantined");
  (* the override discards the whole history and reports what it was *)
  (match Catalog.clear_quarantine cat k with
  | None -> Alcotest.fail "expected a tracked state to clear"
  | Some h -> (
      Alcotest.(check int) "lifetime failures reported" 2
        h.Catalog.h_failures;
      match h.Catalog.h_state with
      | Catalog.Quarantined _ -> ()
      | _ -> Alcotest.fail "discarded state should be Quarantined"));
  Alcotest.(check int) "no tracked keys left" 0
    (List.length (Catalog.health cat));
  (* the storage healed: the next attempt probes immediately — no
     quarantine deadline survives the override *)
  broken := false;
  (match Catalog.estimate_r cat k q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-clear probe failed: %s" (E.to_string e));
  (* clearing an untracked key is a no-op *)
  Alcotest.(check bool) "untracked key clears to None" true
    (Catalog.clear_quarantine cat (key "dblp" 0.0) = None)

(* ------------------------------------------------------------------ *)
(* Health persistence.                                                 *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xpest_health_%d_%s" (Unix.getpid ()) name)

let test_health_save_load_roundtrip () =
  let k = key "ssplays" 0.0 in
  let q = Pattern.of_string "//SPEECH" in
  let failing _ = Error (E.Io_failure { path = "x"; reason = "down" }) in
  let resilience =
    { Catalog.default_resilience with max_retries = 0; failure_threshold = 2;
      backoff_base = 10 }
  in
  let cat = Catalog.create_r ~resilience ~loader:failing () in
  ignore (Catalog.estimate_r cat k q);
  ignore (Catalog.estimate_r cat k q);
  (* quarantined until clock 2 + 10 = 12; 10 ticks remain *)
  let path = temp_path "roundtrip" in
  Catalog.save_health cat path;
  (* a fresh catalog (clock 0) re-anchors the deadline on its clock *)
  let cat2 = Catalog.create_r ~resilience ~loader:failing () in
  (match Catalog.load_health cat2 path with
  | Ok n -> Alcotest.(check int) "one key restored" 1 n
  | Error e -> Alcotest.failf "load_health failed: %s" (E.to_string e));
  (match Catalog.health cat2 with
  | [ h ] -> (
      Alcotest.(check int) "failure count survives" 2 h.Catalog.h_failures;
      match h.Catalog.h_state with
      | Catalog.Quarantined { until } ->
          Alcotest.(check int) "deadline re-anchored on the new clock" 10 until
      | _ -> Alcotest.fail "restored state should be Quarantined")
  | hs -> Alcotest.failf "expected 1 tracked key, got %d" (List.length hs));
  (* the restored quarantine refuses without touching the loader *)
  let touched = ref false in
  let cat3 =
    Catalog.create_r ~resilience
      ~loader:(fun _ ->
        touched := true;
        Error (E.Io_failure { path = "x"; reason = "down" }))
      ()
  in
  ignore (Catalog.load_health cat3 path);
  (match Catalog.estimate_r cat3 k q with
  | Error (E.Quarantined _) -> ()
  | _ -> Alcotest.fail "restored quarantine should refuse");
  Alcotest.(check bool) "no loader I/O through a restored quarantine" false
    !touched;
  Sys.remove path

let test_health_load_rejects_corruption () =
  let cat = Catalog.create_r ~loader:(fun k -> Ok (summary_for k)) () in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let check_corrupt name contents =
    let path = temp_path name in
    write path contents;
    (match Catalog.load_health cat path with
    | Error (E.Corrupt { section = "health"; _ }) -> ()
    | Error e -> Alcotest.failf "%s: wrong error class %s" name (E.to_string e)
    | Ok _ -> Alcotest.failf "%s: corrupt file accepted" name);
    Alcotest.(check int) (name ^ ": nothing half-applied") 0
      (List.length (Catalog.health cat));
    Sys.remove path
  in
  check_corrupt "bad magic" "not-a-health-file\n";
  check_corrupt "empty" "";
  check_corrupt "short row" "xpest-catalog-health/4\nssplays%400\t1\t2\n";
  check_corrupt "bad int"
    "xpest-catalog-health/4\nssplays%400\tx\t0\t0\t0\t4\t0\n";
  check_corrupt "bad backoff"
    "xpest-catalog-health/4\nssplays%400\t0\t0\t0\t0\t0\t0\n";
  (* a missing file is an I/O failure, not corruption *)
  match Catalog.load_health cat (temp_path "never_written") with
  | Error (E.Io_failure _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "missing file accepted"

let () =
  Alcotest.run "catalog_chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "batches under injection" `Quick test_chaos_batches;
          Alcotest.test_case "service survives 10% faults" `Quick
            test_chaos_service_survives;
          Alcotest.test_case "raising loader through the pipeline" `Quick
            test_raising_loader_through_pipeline;
        ] );
      ( "state_machine",
        [
          Alcotest.test_case "quarantine + backoff" `Quick
            test_quarantine_backoff;
          Alcotest.test_case "transient retry" `Quick test_retry_transient;
          Alcotest.test_case "health table bound" `Quick
            test_health_table_bound;
          Alcotest.test_case "per-query isolation" `Quick
            test_per_query_isolation;
        ] );
      ( "operator",
        [
          Alcotest.test_case "clear_quarantine" `Quick test_clear_quarantine;
          Alcotest.test_case "health save/load round-trip" `Quick
            test_health_save_load_roundtrip;
          Alcotest.test_case "health load rejects corruption" `Quick
            test_health_load_rejects_corruption;
        ] );
    ]
