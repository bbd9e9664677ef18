(* Overload-protection tests for the serving catalog: the admission
   layer's bit-identity contract, deterministic shedding across
   load-domain counts, the degraded-fallback tier, the loader circuit breaker seen
   end to end, and the v4 health file that persists it.

   The two contracts under test:

   - An admission controller that is inactive — or active but with
     infinite budgets — leaves the catalog byte-identical to having no
     controller at all: same floats, same typed errors, same stats,
     same logical clock, under every execution mode (blocking loads,
     loader pool, injected faults).

   - Under finite budgets, shedding is a deterministic function of
     (input order, logical clock, configuration): the shed schedule,
     statuses, stats and clock reproduce bit-for-bit at any
     load-domain count. *)

module Loader_pool = Xpest_util.Loader_pool
module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Sketch = Xpest_synopsis.Sketch
module Registry = Xpest_datasets.Registry
module Catalog = Xpest_catalog.Catalog
module Admission = Xpest_catalog.Admission

let load_domain_counts = [ 1; 2; 4 ]
let bits = Int64.bits_of_float

let check_bits label expected got =
  if not (Int64.equal (bits expected) (bits got)) then
    Alcotest.failf "%s: %h <> %h (bit drift)" label expected got

(* ------------------------------------------------------------------ *)
(* Fixtures: one catalog directory with sibling variances.             *)

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

(* Fallback sketches arm the degradation ladder: the one switch that
   lets a shed group descend to a resident sibling or a sketch. *)
let sketches : (string, Sketch.t) Hashtbl.t = Hashtbl.create 2

let sketch_for dataset =
  match Hashtbl.find_opt sketches dataset with
  | Some s -> s
  | None ->
      let name =
        match Registry.of_string dataset with
        | Some n -> n
        | None -> Alcotest.failf "unknown dataset %s" dataset
      in
      let s = Sketch.build (Registry.generate ~scale:0.02 name) in
      Hashtbl.add sketches dataset s;
      s

let arm cat datasets =
  List.iter
    (fun d ->
      match Catalog.install_sketch cat d (sketch_for d) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "install_sketch %s: %s" d (E.to_string e))
    datasets

let key d v = { Catalog.dataset = d; variance = v }
let k_ss0 = key "ssplays" 0.0
let k_ss2 = key "ssplays" 2.0
let k_dblp = key "dblp" 0.0

let catalog_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "xpest_overload_%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
     let m =
       List.fold_left
         (fun m k -> Catalog.save_entry ~dir m k (summary_for k))
         Manifest.empty
         [ k_ss0; k_ss2; k_dblp ]
     in
     Manifest.save m (Filename.concat dir Catalog.manifest_filename);
     dir)

let load_manifest dir =
  match Manifest.load_typed (Filename.concat dir Catalog.manifest_filename) with
  | Ok m -> m
  | Error e -> Alcotest.failf "manifest load failed: %s" (E.to_string e)

(* Three keys against resident capacity 2: cold loads recur round
   after round, so finite budgets always have something to shed. *)
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

let make_cat ?(armed = false) ?admission ?io () =
  let dir = Lazy.force catalog_dir in
  let cat =
    Catalog.of_manifest ?admission ?io ~resident_capacity:2 ~dir
      (load_manifest dir)
  in
  if armed then arm cat [ "ssplays"; "dblp" ];
  cat

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
  field "fallback_queries" a.Catalog.fallback_queries b.Catalog.fallback_queries

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

(* An *active* controller with infinite budgets: every admission
   branch runs (ledger, would_load, decide) yet nothing is ever
   shed — the strictest form of the bit-identity contract. *)
let infinite =
  {
    Admission.unlimited with
    Admission.deadline = Some max_int;
    max_queued_loads = Some max_int;
  }

(* ------------------------------------------------------------------ *)
(* Bit-identity at infinite budget.                                    *)

let test_infinite_budget_is_identity () =
  let pairs = routed_pairs () in
  List.iter
    (fun admission ->
      let plain = make_cat () in
      let controlled = make_cat ~admission () in
      for round = 1 to 4 do
        let label = Printf.sprintf "round %d" round in
        let reference = Catalog.estimate_batch_r plain pairs in
        let results = Catalog.estimate_batch_r controlled pairs in
        compare_results label reference results;
        check_same_stats label (Catalog.stats plain) (Catalog.stats controlled);
        Alcotest.(check int)
          (label ^ ": same clock")
          (Catalog.clock plain) (Catalog.clock controlled);
        Array.iter
          (function
            | Catalog.Served -> ()
            | s ->
                Alcotest.failf "%s: infinite budget produced a %s slot" label
                  (status_to_string s))
          (Catalog.last_batch_statuses controlled)
      done)
    [ Admission.unlimited; infinite ]

(* The pipeline variant, with keyed faults: the controller's provable
   gate changes which loads are *prefetched*, but never their
   outcomes — the keyed injector's schedule is per (path, attempt). *)
let test_infinite_budget_identity_pipeline_chaos () =
  let pairs = routed_pairs () in
  let injected () =
    Fault.io (Fault.create_keyed (Fault.uniform ~seed:23 ~rate:0.1))
      Fault.Io.default
  in
  List.iter
    (fun load_domains ->
      let plain = make_cat ~io:(injected ()) () in
      let controlled = make_cat ~admission:infinite ~io:(injected ()) () in
      Loader_pool.with_pool ~domains:load_domains (fun loads ->
          for round = 1 to 4 do
            let label =
              Printf.sprintf "%d load domains, round %d" load_domains round
            in
            let reference = Catalog.estimate_batch_r ~loads plain pairs in
            let results = Catalog.estimate_batch_r ~loads controlled pairs in
            compare_results label reference results;
            check_same_stats label (Catalog.stats plain)
              (Catalog.stats controlled);
            Alcotest.(check int)
              (label ^ ": same clock")
              (Catalog.clock plain) (Catalog.clock controlled)
          done))
    load_domain_counts

(* ------------------------------------------------------------------ *)
(* Deterministic shedding across execution modes.                      *)

let tight =
  {
    Admission.unlimited with
    Admission.deadline = Some 20;
    max_queued_loads = Some 2;
  }

let test_shedding_deterministic_across_domains () =
  let pairs = routed_pairs () in
  List.iter
    (fun (ladder_name, armed) ->
      (* sequential reference: fresh catalog, 3 rounds *)
      let seq_cat = make_cat ~armed ~admission:tight () in
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
        Alcotest.(check int)
          (label ^ ": same clock")
          ref_clock (Catalog.clock cat)
      in
      List.iter
        (fun load_domains ->
          let cat = make_cat ~armed ~admission:tight () in
          Loader_pool.with_pool ~domains:load_domains (fun loads ->
              check_twin
                (Printf.sprintf "%s, %d load domains" ladder_name
                   load_domains)
                (Array.init 3 (fun _ ->
                     Catalog.estimate_batch_r ~loads cat pairs))
                cat))
        load_domain_counts)
    [ ("sketch-free", false); ("sketch-armed", true) ]

(* Shed groups must not tick the clock: an admission-controlled batch
   on a saturating workload advances the logical clock strictly less
   than the uncontrolled twin — the bounded-worst-case property. *)
let test_shed_groups_spend_no_clock () =
  let pairs = routed_pairs () in
  let plain = make_cat () in
  let controlled =
    make_cat ~admission:{ tight with Admission.deadline = Some 10 } ()
  in
  ignore (Catalog.estimate_batch_r plain pairs);
  ignore (Catalog.estimate_batch_r controlled pairs);
  let uncontrolled_ticks = Catalog.clock plain in
  let controlled_ticks = Catalog.clock controlled in
  if controlled_ticks >= uncontrolled_ticks then
    Alcotest.failf "controlled batch spent %d ticks, uncontrolled %d"
      controlled_ticks uncontrolled_ticks;
  let s = Catalog.stats controlled in
  Alcotest.(check bool) "something was shed" true (s.Catalog.shed_queries > 0);
  (* a saturating burst on a sketch-armed catalog: twelve tenants, eight
     queries each, against four resident slots, so an uncontrolled
     batch pays a cold load per group round after round; the
     controlled twin's worst batch must spend strictly fewer ticks *)
  let nkeys = 12 in
  let base = Summary.collect (Registry.generate ~scale:0.02 Registry.Ssplays) in
  let tenants =
    Array.init nkeys (fun i ->
        let v = float_of_int i in
        Summary.assemble ~p_variance:v ~o_variance:v base)
  in
  let loader (k : Catalog.key) =
    Ok tenants.(int_of_float k.Catalog.variance)
  in
  let qs =
    Array.map Pattern.of_string
      [|
        "//SPEECH/LINE"; "//ACT[/{SCENE}]"; "//PLAY//{SPEECH}";
        "//SPEECH//{WORD}"; "//SCENE/{SPEECH}"; "//ACT/SCENE/{TITLE}";
        "//SPEECH/{SPEAKER}"; "//PLAY/{ACT}";
      |]
  in
  let burst =
    Array.init (nkeys * Array.length qs) (fun i ->
        (key "ssplays" (float_of_int (i mod nkeys)), qs.(i / nkeys)))
  in
  let worst_batch ?admission () =
    let cat = Catalog.create_r ?admission ~resident_capacity:4 ~loader () in
    arm cat [ "ssplays" ];
    let worst = ref 0 in
    for _round = 1 to 3 do
      let before = Catalog.clock cat in
      ignore (Catalog.estimate_batch_r cat burst);
      worst := max !worst (Catalog.clock cat - before)
    done;
    (!worst, Catalog.stats cat)
  in
  let uncontrolled_worst, _ = worst_batch () in
  let controlled_worst, s =
    worst_batch
      ~admission:
        {
          Admission.unlimited with
          Admission.deadline = Some 40;
          max_queued_loads = Some 3;
        }
      ()
  in
  if controlled_worst >= uncontrolled_worst then
    Alcotest.failf "burst: controlled worst batch spent %d ticks, uncontrolled %d"
      controlled_worst uncontrolled_worst;
  Alcotest.(check bool) "burst: something was shed" true
    (s.Catalog.shed_queries > 0)

(* ------------------------------------------------------------------ *)
(* The degraded fallback tier.                                         *)

let test_degrade_falls_back_to_resident_sibling () =
  (* deadline 20: ssplays@0 (load, 8) + dblp@0 (load, 8) leave 4 ticks
     — ssplays@2 can't load, but its sibling ssplays@0 is resident *)
  let p = Pattern.of_string in
  let q = p "//SPEECH/LINE" in
  let pairs = [| (k_ss0, q); (k_dblp, p "//article/{author}"); (k_ss2, q) |] in
  let cat =
    make_cat ~armed:true ~admission:{ tight with Admission.deadline = Some 20 }
      ()
  in
  let results = Catalog.estimate_batch_r cat pairs in
  let statuses = Catalog.last_batch_statuses cat in
  Alcotest.(check string)
    "shed slot marked as fallback via the sibling" "fallback:ssplays@0"
    (status_to_string statuses.(2));
  (* the degraded answer is exactly the sibling's own estimate *)
  (match (results.(0), results.(2)) with
  | Ok direct, Ok degraded -> check_bits "sibling's estimate" direct degraded
  | _ -> Alcotest.fail "expected Ok results for slots 0 and 2");
  let s = Catalog.stats cat in
  Alcotest.(check int) "one shed query" 1 s.Catalog.shed_queries;
  Alcotest.(check int) "served degraded" 1 s.Catalog.fallback_queries;
  Alcotest.(check int) "shed query served" 1 s.Catalog.shed_served_queries;
  (* shedding is not a failure: the shed key's per-key health stays
     untouched (the two *loaded* keys are tracked as healthy) *)
  Alcotest.(check bool)
    "shed key not tracked" false
    (List.exists
       (fun h -> Catalog.key_to_string h.Catalog.h_key = "ssplays@2")
       (Catalog.health cat))

(* A sketch-free catalog never descends: the shed query fails typed
   even though its sibling ssplays@0 is resident. *)
let test_reject_fails_typed () =
  let p = Pattern.of_string in
  let pairs =
    [|
      (k_ss0, p "//SPEECH/LINE");
      (k_dblp, p "//article/{author}");
      (k_ss2, p "//SPEECH/LINE");
    |]
  in
  let cat =
    make_cat ~admission:{ tight with Admission.deadline = Some 20 } ()
  in
  let results = Catalog.estimate_batch_r cat pairs in
  (match results.(2) with
  | Error (E.Deadline_exceeded { key; needed; remaining }) ->
      Alcotest.(check string) "shed key" "ssplays@2" key;
      Alcotest.(check int) "needed a load" 8 needed;
      Alcotest.(check int) "4 ticks left" 4 remaining
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "shed query returned Ok under reject");
  Alcotest.(check string)
    "slot marked shed" "shed"
    (status_to_string (Catalog.last_batch_statuses cat).(2));
  Alcotest.(check int)
    "no fallbacks under reject" 0 (Catalog.stats cat).Catalog.fallback_queries

let test_no_sibling_fails_even_under_degrade () =
  (* dblp has no sibling variance in this catalog, and the catalog has
     no sketch: a shed dblp query fails typed *)
  let p = Pattern.of_string in
  let pairs =
    [|
      (k_ss0, p "//SPEECH/LINE");
      (k_ss2, p "//ACT[/{SCENE}]");
      (k_dblp, p "//article/{author}");
    |]
  in
  let cat =
    make_cat ~admission:{ tight with Admission.deadline = Some 20 } ()
  in
  let results = Catalog.estimate_batch_r cat pairs in
  (match results.(2) with
  | Error (E.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "no resident sibling, yet served");
  Alcotest.(check string)
    "slot marked shed" "shed"
    (status_to_string (Catalog.last_batch_statuses cat).(2))

(* ------------------------------------------------------------------ *)
(* The circuit breaker, end to end.                                    *)

let breaker_cfg =
  { Admission.unlimited with Admission.breaker_threshold = Some 2 }

let test_breaker_opens_and_recovers () =
  (* every read fails: two queries' loads exhaust their retries, the
     breaker opens, and further cold loads shed without touching
     storage *)
  let io =
    Fault.io (Fault.create_keyed (Fault.uniform ~seed:11 ~rate:1.0))
      Fault.Io.default
  in
  let p = Pattern.of_string in
  let pairs =
    [|
      (k_ss0, p "//SPEECH/LINE");
      (k_dblp, p "//article/{author}");
      (k_ss2, p "//ACT[/{SCENE}]");
    |]
  in
  let cat = make_cat ~admission:breaker_cfg ~io () in
  let results = Catalog.estimate_batch_r cat pairs in
  (* first two fail on storage, opening the breaker; the third is
     refused by the breaker before any read *)
  (match results.(2) with
  | Error (E.Overloaded _) -> ()
  | Error e -> Alcotest.failf "expected a breaker shed: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "breaker-shed query returned Ok");
  let v = Catalog.breaker cat in
  Alcotest.(check bool) "breaker open" true (v.Admission.state = `Open);
  let a = Catalog.admission_stats cat in
  Alcotest.(check int) "one open" 1 a.Admission.s_breaker_opens;
  Alcotest.(check bool)
    "breaker sheds happened" true
    (a.Admission.s_breaker_sheds > 0);
  (* keep estimating the same failing batch: once the cooldown
     elapses, a probe goes back to storage, fails, and doubles the
     cooldown — the backoff visibly escalates *)
  let opened_cooldown = v.Admission.cooldown in
  let rec drive rounds =
    if rounds > 0 then begin
      ignore (Catalog.estimate_batch_r cat pairs);
      if (Catalog.breaker cat).Admission.cooldown = opened_cooldown then
        drive (rounds - 1)
    end
  in
  drive 50;
  let v' = Catalog.breaker cat in
  Alcotest.(check bool)
    "a failed probe doubled the cooldown" true
    (v'.Admission.cooldown > opened_cooldown);
  Alcotest.(check bool)
    "probes were attempted" true
    ((Catalog.admission_stats cat).Admission.s_probes > 0)

(* ------------------------------------------------------------------ *)
(* Health file v4: breaker persistence.                                *)

let health_path name =
  Filename.concat (Lazy.force catalog_dir) (name ^ ".health")

let test_health_v4_roundtrip_with_breaker () =
  let io =
    Fault.io (Fault.create_keyed (Fault.uniform ~seed:11 ~rate:1.0))
      Fault.Io.default
  in
  let p = Pattern.of_string in
  let pairs =
    [| (k_ss0, p "//SPEECH/LINE"); (k_dblp, p "//article/{author}") |]
  in
  let cat = make_cat ~admission:breaker_cfg ~io () in
  ignore (Catalog.estimate_batch_r cat pairs);
  let v = Catalog.breaker cat in
  Alcotest.(check bool) "breaker open at save" true (v.Admission.state = `Open);
  let path = health_path "roundtrip" in
  Catalog.save_health cat path;
  (* the file leads with the current (v4) magic and carries the directive *)
  let ic = open_in path in
  let magic = input_line ic in
  let directive = input_line ic in
  close_in ic;
  Alcotest.(check string) "v4 magic" "xpest-catalog-health/4" magic;
  Alcotest.(check bool)
    "breaker directive" true
    (String.length directive > 0 && directive.[0] = '!');
  (* restore into a fresh catalog: tracked keys and the breaker come
     back, remaining cooldown re-anchored on the new clock *)
  let cat2 = make_cat ~admission:breaker_cfg () in
  (match Catalog.load_health cat2 path with
  | Ok n -> Alcotest.(check int) "tracked keys restored" 2 n
  | Error e -> Alcotest.failf "load_health failed: %s" (E.to_string e));
  let v2 = Catalog.breaker cat2 in
  Alcotest.(check bool) "still open" true (v2.Admission.state = `Open);
  Alcotest.(check int)
    "failure streak carried" v.Admission.consecutive_failures
    v2.Admission.consecutive_failures;
  Alcotest.(check int)
    "cooldown carried" v.Admission.cooldown v2.Admission.cooldown

let test_health_corrupt_directive_rejected () =
  let path = health_path "corrupt" in
  let oc = open_out path in
  output_string oc
    "xpest-catalog-health/4\n!breaker\topen\tnot-a-number\t0\t16\n";
  close_out oc;
  let cat = make_cat ~admission:breaker_cfg () in
  match Catalog.load_health cat path with
  | Ok _ -> Alcotest.fail "corrupt breaker directive accepted"
  | Error e ->
      Alcotest.(check string) "typed corrupt error" "corrupt" (E.kind e);
      (* all-or-nothing: the failed load left the breaker untouched *)
      Alcotest.(check bool)
        "breaker unchanged" true
        ((Catalog.breaker cat).Admission.state = `Closed)

(* ------------------------------------------------------------------ *)
(* Operator override: clear-quarantine --all.                          *)

let test_clear_all_quarantine () =
  let io =
    Fault.io (Fault.create_keyed (Fault.uniform ~seed:11 ~rate:1.0))
      Fault.Io.default
  in
  let p = Pattern.of_string in
  let pairs =
    [| (k_ss0, p "//SPEECH/LINE"); (k_dblp, p "//article/{author}") |]
  in
  let cat = make_cat ~admission:breaker_cfg ~io () in
  ignore (Catalog.estimate_batch_r cat pairs);
  Alcotest.(check int) "two keys tracked" 2 (List.length (Catalog.health cat));
  let cleared = Catalog.clear_all_quarantine cat in
  Alcotest.(check int) "both returned" 2 (List.length cleared);
  Alcotest.(check int) "nothing tracked after" 0
    (List.length (Catalog.health cat));
  Alcotest.(check int) "idempotent" 0
    (List.length (Catalog.clear_all_quarantine cat));
  (* the breaker guards the loader, not any key: clearing keys must
     not silently close it *)
  Alcotest.(check bool)
    "breaker survives clear --all" true
    ((Catalog.breaker cat).Admission.state = `Open)

let () =
  Alcotest.run "catalog_overload"
    [
      ( "identity",
        [
          Alcotest.test_case "infinite budget equals no controller" `Quick
            test_infinite_budget_is_identity;
          Alcotest.test_case "identity under pipeline chaos" `Quick
            test_infinite_budget_identity_pipeline_chaos;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "deterministic across domain counts" `Quick
            test_shedding_deterministic_across_domains;
          Alcotest.test_case "shed groups spend no clock" `Quick
            test_shed_groups_spend_no_clock;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "degrade serves the resident sibling" `Quick
            test_degrade_falls_back_to_resident_sibling;
          Alcotest.test_case "reject fails typed" `Quick
            test_reject_fails_typed;
          Alcotest.test_case "no sibling means typed failure" `Quick
            test_no_sibling_fails_even_under_degrade;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens and probes end to end" `Quick
            test_breaker_opens_and_recovers;
        ] );
      ( "health",
        [
          Alcotest.test_case "v4 round-trips the breaker" `Quick
            test_health_v4_roundtrip_with_breaker;
          Alcotest.test_case "corrupt directives rejected" `Quick
            test_health_corrupt_directive_rejected;
        ] );
      ( "operator",
        [
          Alcotest.test_case "clear-quarantine --all" `Quick
            test_clear_all_quarantine;
        ] );
    ]
