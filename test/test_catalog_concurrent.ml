(* Concurrency tests for the catalog's shared state: the synchronized
   pool-shared plan cache hammered from several domains at once,
   observability-counter exactness under parallel batches, and the
   operator-facing health machinery (clear-quarantine, save/load) the
   parallel serving path ships with. *)

module Counters = Xpest_util.Counters
module Domain_pool = Xpest_util.Domain_pool
module E = Xpest_util.Xpest_error
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Registry = Xpest_datasets.Registry
module Plan = Xpest_plan.Plan
module Plan_cache = Xpest_plan.Plan_cache
module Estimator = Xpest_estimator.Estimator
module Catalog = Xpest_catalog.Catalog

let key d v = { Catalog.dataset = d; variance = v }

let summaries : (string, Summary.t) Hashtbl.t = Hashtbl.create 4

let summary_for (k : Catalog.key) =
  match Hashtbl.find_opt summaries k.Catalog.dataset with
  | Some s -> s
  | None ->
      let name =
        match Registry.of_string k.Catalog.dataset with
        | Some n -> n
        | None -> Alcotest.failf "unknown dataset %s" k.Catalog.dataset
      in
      let s =
        Summary.build ~p_variance:0.0 ~o_variance:0.0
          (Registry.generate ~scale:0.02 name)
      in
      Hashtbl.add summaries k.Catalog.dataset s;
      s

(* ------------------------------------------------------------------ *)
(* The pool-shared plan cache under concurrent compilation.            *)

let query_strings =
  [
    "//SPEECH/LINE"; "//PLAY//{SPEECH}"; "//ACT[/{SCENE}]"; "//SPEECH//{WORD}";
    "//article/{author}"; "//inproceedings/title"; "//PLAY/ACT/{SCENE}";
    "//SPEECH[/LINE]"; "//ACT//{SPEECH}"; "//PLAY[/ACT]//{LINE}";
  ]

let test_shared_plan_cache_hammered () =
  let patterns =
    Array.of_list (List.map Pattern.of_string query_strings)
  in
  let n = Array.length patterns in
  let cache = Estimator.create_plan_cache ~capacity:64 ~synchronized:true () in
  let workers = 4 and reps = 50 in
  (* every worker compiles every pattern, repeatedly, through the one
     shared cache — from distinct spawned domains *)
  let worker () =
    for _ = 1 to reps do
      Array.iter
        (fun q -> ignore (Plan_cache.find_or_add cache q Plan.compile))
        patterns
    done
  in
  let domains = Array.init workers (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "each distinct query cached once" n
    (Plan_cache.length cache);
  Alcotest.(check int) "no evictions below capacity" 0
    (Plan_cache.evictions cache);
  (* the duplicate-compile window is bounded: at worst one discarded
     compile per (worker - 1) per key, nowhere near the total volume *)
  Alcotest.(check bool)
    (Printf.sprintf "races bounded (%d)" (Plan_cache.races cache))
    true
    (Plan_cache.races cache <= (workers - 1) * n);
  (* whoever won each race, the cached plan is the deterministic
     compile of its key *)
  Array.iter
    (fun q ->
      match Plan_cache.find_opt cache q with
      | None -> Alcotest.failf "%s missing after hammering" (Pattern.to_string q)
      | Some plan ->
          Alcotest.(check string)
            (Pattern.to_string q ^ ": cached plan is the compiled plan")
            (Plan.to_string (Plan.compile q))
            (Plan.to_string plan))
    patterns

let test_unsynchronized_has_no_lock_stats () =
  let cache = Plan_cache.create ~capacity:8 () in
  for i = 0 to 20 do
    ignore (Plan_cache.find_or_add cache (i mod 5) (fun k -> k * k))
  done;
  Alcotest.(check bool) "not synchronized" false (Plan_cache.synchronized cache);
  Alcotest.(check int) "no contention" 0 (Plan_cache.contention cache);
  Alcotest.(check int) "no races" 0 (Plan_cache.races cache)

(* ------------------------------------------------------------------ *)
(* Counter exactness under parallel batches.                           *)

let routed_pairs () =
  let k1 = key "ssplays" 0.0 and k2 = key "dblp" 0.0 in
  let p = Pattern.of_string in
  [|
    (k1, p "//SPEECH/LINE");
    (k2, p "//article/{author}");
    (k1, p "//PLAY//{SPEECH}");
    (k2, p "//inproceedings/title");
    (k1, p "//SPEECH/LINE");
    (k2, p "//article/{author}");
  |]

let counter_value name snapshot_rows =
  match List.assoc_opt name snapshot_rows with Some v -> v | None -> 0

let test_counters_exact_under_parallel_batches () =
  let pairs = routed_pairs () in
  let cat = Catalog.create_r ~loader:(fun k -> Ok (summary_for k)) () in
  Domain_pool.with_pool ~domains:4 (fun pool ->
      Counters.with_enabled (fun () ->
          let before = Counters.snapshot () in
          let rounds = 5 in
          for _ = 1 to rounds do
            Array.iter
              (function
                | Ok _ -> ()
                | Error e -> Alcotest.failf "batch failed: %s" (E.to_string e))
              (Catalog.estimate_batch_r ~pool cat pairs)
          done;
          let delta =
            Counters.delta_between before (Counters.snapshot ())
          in
          (* volume counters must be exact — incremented from worker
             domains, never lost or torn *)
          Alcotest.(check int) "catalog.batch.calls" rounds
            (counter_value "catalog.batch.calls" delta);
          Alcotest.(check int) "catalog.batch.queries"
            (rounds * Array.length pairs)
            (counter_value "catalog.batch.queries" delta);
          Alcotest.(check int) "catalog.batch.groups" (rounds * 2)
            (counter_value "catalog.batch.groups" delta);
          Alcotest.(check int) "estimator.batch.queries"
            (rounds * Array.length pairs)
            (counter_value "estimator.batch.queries" delta);
          (* per round: 6 routed queries, 2 duplicates per group *)
          Alcotest.(check int) "estimator.batch.deduped" (rounds * 2)
            (counter_value "estimator.batch.deduped" delta);
          Alcotest.(check int) "estimator.estimate" (rounds * 4)
            (counter_value "estimator.estimate" delta);
          Alcotest.(check int) "domain_pool.calls" rounds
            (counter_value "domain_pool.calls" delta)))

let test_parallel_batch_clears_last_metrics () =
  let pairs = routed_pairs () in
  let cat = Catalog.create_r ~loader:(fun k -> Ok (summary_for k)) () in
  Counters.with_enabled (fun () ->
      ignore (Catalog.estimate_batch_r cat pairs);
      Alcotest.(check bool) "sequential batches attribute metrics" true
        (Catalog.last_batch_metrics cat <> []);
      Domain_pool.with_pool ~domains:2 (fun pool ->
          ignore (Catalog.estimate_batch_r ~pool cat pairs));
      Alcotest.(check bool) "parallel batches clear them" true
        (Catalog.last_batch_metrics cat = []))

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
  Alcotest.run "catalog_concurrent"
    [
      ( "shared_caches",
        [
          Alcotest.test_case "plan cache hammered from 4 domains" `Quick
            test_shared_plan_cache_hammered;
          Alcotest.test_case "unsynchronized caches track no lock stats"
            `Quick test_unsynchronized_has_no_lock_stats;
        ] );
      ( "counters",
        [
          Alcotest.test_case "exact totals under parallel batches" `Quick
            test_counters_exact_under_parallel_batches;
          Alcotest.test_case "parallel batches clear last_metrics" `Quick
            test_parallel_batch_clears_last_metrics;
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
