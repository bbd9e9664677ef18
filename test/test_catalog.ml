(* The catalog's machinery below the routing contract: key syntax,
   the manifest's save/load/corruption round-trip, resident-set LRU
   behavior (loads, pool hits, evictions, reloads), the pool-shared
   plan cache, per-key counter attribution in batch metrics, and the
   catalog's own always-on stats. *)

module Counters = Xpest_util.Counters
module Loader_pool = Xpest_util.Loader_pool
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Synopsis_io = Xpest_synopsis.Synopsis_io
module Bounded_cache = Xpest_util.Bounded_cache
module Registry = Xpest_datasets.Registry
module Catalog = Xpest_catalog.Catalog

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xpest_catalog_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let key d v = { Catalog.dataset = d; variance = v }

(* One tiny summary per (dataset, variance); memoized so each test can
   afford many loads. *)
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

let loader k = Ok (summary_for k)

(* Route one query; any typed error fails the test. *)
let estimate cat k q =
  match Catalog.estimate_r cat k q with
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: %s" (Catalog.key_to_string k)
        (Xpest_util.Xpest_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Keys.                                                               *)

let test_key_syntax () =
  let ok s d v =
    match Catalog.key_of_string s with
    | Ok k ->
        Alcotest.(check string) (s ^ ": dataset") d k.Catalog.dataset;
        Alcotest.(check (float 0.0)) (s ^ ": variance") v k.Catalog.variance
    | Error e -> Alcotest.failf "%s should parse, got: %s" s e
  in
  let bad s =
    match Catalog.key_of_string s with
    | Ok k -> Alcotest.failf "%s should not parse (got %s)" s (Catalog.key_to_string k)
    | Error _ -> ()
  in
  ok "dblp" "dblp" 0.0;
  ok "dblp@2" "dblp" 2.0;
  ok "dblp@2.5" "dblp" 2.5;
  bad "";
  bad "@1";
  bad "dblp@";
  bad "dblp@-1";
  bad "dblp@nan";
  bad "dblp@inf";
  (* round-trip through the printed form *)
  List.iter
    (fun k ->
      match Catalog.key_of_string (Catalog.key_to_string k) with
      | Ok k' ->
          Alcotest.(check string) "round-trip dataset" k.Catalog.dataset
            k'.Catalog.dataset;
          Alcotest.(check (float 0.0)) "round-trip variance" k.Catalog.variance
            k'.Catalog.variance
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ key "ssplays" 0.0; key "dblp" 2.0; key "xmark" 12.5 ]

(* ------------------------------------------------------------------ *)
(* Manifest round-trip.                                                *)

let test_manifest_roundtrip () =
  let dir = tmpdir () in
  let k0 = key "ssplays" 0.0 and k2 = key "ssplays" 2.0 in
  let m = Manifest.empty in
  let m = Catalog.save_entry ~dir m k0 (summary_for k0) in
  let m = Catalog.save_entry ~dir m k2 (summary_for k2) in
  let path = Filename.concat dir Catalog.manifest_filename in
  Manifest.save m path;
  (* the manifest file is itself a recognized wire container *)
  (match Synopsis_io.kind (Synopsis_io.info path) with
  | `Catalog_manifest -> ()
  | `Synopsis | `Sketch | `Unknown ->
      Alcotest.fail "manifest not recognized as manifest");
  let m' = Manifest.load path in
  Alcotest.(check int) "entries survive" 2 (List.length m'.Manifest.entries);
  (match Manifest.find m' ~dataset:"ssplays" ~variance:2.0 with
  | None -> Alcotest.fail "entry (ssplays, 2) lost"
  | Some e ->
      Alcotest.(check string) "file name" (Catalog.key_filename k2)
        e.Manifest.file;
      let i = Synopsis_io.info (Filename.concat dir e.Manifest.file) in
      Alcotest.(check int) "bytes match file" i.Synopsis_io.total_bytes
        e.Manifest.bytes;
      Alcotest.(check int64) "checksum matches file" i.Synopsis_io.checksum
        e.Manifest.checksum);
  (* re-saving a key replaces its entry instead of appending *)
  let m'' = Catalog.save_entry ~dir m' k2 (summary_for k2) in
  Alcotest.(check int) "replace, not append" 2
    (List.length m''.Manifest.entries);
  (* a manifest-backed catalog serves the same floats as fresh
     estimators over the same summaries *)
  let cat = Catalog.of_manifest ~dir m' in
  let q = Pattern.of_string "//SPEECH/LINE" in
  let expect k =
    Xpest_estimator.Estimator.estimate
      (Xpest_estimator.Estimator.create (summary_for k))
      q
  in
  List.iter
    (fun k ->
      Alcotest.(check (float 0.0))
        (Catalog.key_to_string k)
        (expect k) (estimate cat k q))
    [ k0; k2 ]

let test_manifest_corruption () =
  let dir = tmpdir () in
  let k = key "dblp" 0.0 in
  let m = Catalog.save_entry ~dir Manifest.empty k (summary_for k) in
  let mpath = Filename.concat dir Catalog.manifest_filename in
  Manifest.save m mpath;
  (* flip one byte in the manifest body: load must reject it *)
  let bytes =
    let ic = open_in_bin mpath in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    Bytes.of_string b
  in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x40));
  let corrupt = Filename.concat dir "corrupt.manifest" in
  let oc = open_out_bin corrupt in
  output_bytes oc bytes;
  close_out oc;
  (match Manifest.load_typed corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted manifest loaded");
  (* rebuild the synopsis behind the manifest's back: the loader must
     notice the size/checksum mismatch instead of serving it *)
  let other = Summary.build ~p_variance:4.0 ~o_variance:4.0
      (Registry.generate ~scale:0.02 Registry.Dblp)
  in
  Summary.save other (Filename.concat dir (Catalog.key_filename k));
  let cat = Catalog.of_manifest ~dir (Manifest.load mpath) in
  (match
     Catalog.estimate_r cat k (Pattern.of_string "//inproceedings/title")
   with
  | Error (Xpest_util.Xpest_error.Stale_manifest _) -> ()
  | _ -> Alcotest.fail "stale synopsis served despite manifest mismatch");
  (* an unknown key is an error, not a crash *)
  match
    Catalog.estimate_r cat (key "nosuch" 0.0)
      (Pattern.of_string "//inproceedings/title")
  with
  | Error (Xpest_util.Xpest_error.Unknown_key _) -> ()
  | _ -> Alcotest.fail "unknown key served"

(* A flipped body byte leaves the header's stored size and checksum
   untouched, so they still equal the manifest row; verification must
   recompute the body checksum and call the file corrupt. *)
let test_body_flip_is_corrupt () =
  let dir = tmpdir () in
  let k = key "ssplays" 0.0 in
  let m = Catalog.save_entry ~dir Manifest.empty k (summary_for k) in
  let path = Filename.concat dir (Catalog.key_filename k) in
  let body = In_channel.with_open_bin path In_channel.input_all in
  let flipped = Bytes.of_string body in
  let off = Bytes.length flipped - 1 in
  Bytes.set flipped off
    (Char.chr (Char.code (Bytes.get flipped off) lxor 0x01));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  let e =
    match
      Manifest.find m ~dataset:k.Catalog.dataset ~variance:k.Catalog.variance
    with
    | Some e -> e
    | None -> Alcotest.fail "entry missing from the manifest"
  in
  let i = Synopsis_io.info path in
  Alcotest.(check int) "stored size equals the manifest row" e.Manifest.bytes
    i.Synopsis_io.total_bytes;
  Alcotest.(check int64) "stored checksum equals the manifest row"
    e.Manifest.checksum i.Synopsis_io.checksum;
  match Catalog.manifest_verify ~dir m k with
  | Error (Xpest_util.Xpest_error.Corrupt _) -> ()
  | Error e ->
      Alcotest.failf "wrong error kind: %s" (Xpest_util.Xpest_error.to_string e)
  | Ok () -> Alcotest.fail "flipped body byte verified ok"

(* ------------------------------------------------------------------ *)
(* Resident-set eviction behavior (segmented policy, the default).     *)

let test_lru_behavior () =
  let loads = ref [] in
  let loader k =
    loads := Catalog.key_to_string k :: !loads;
    Ok (summary_for k)
  in
  let k1 = key "ssplays" 0.0
  and k2 = key "ssplays" 2.0
  and k3 = key "dblp" 0.0 in
  let cat = Catalog.create_r ~resident_capacity:2 ~loader () in
  let q = Pattern.of_string "//SPEECH" in
  ignore (estimate cat k1 q);
  ignore (estimate cat k2 q);
  ignore (estimate cat k1 q) (* hit: promotes k1 to protected *);
  ignore (estimate cat k3 q) (* evicts k2, the probationary LRU *);
  ignore (estimate cat k2 q) (* reload; evicts one-shot k3 *);
  let st : Catalog.stats = Catalog.stats cat in
  Alcotest.(check int) "loads" 4 st.Catalog.loads;
  Alcotest.(check int) "hits" 1 st.Catalog.hits;
  Alcotest.(check int) "evictions" 2 st.Catalog.evictions;
  Alcotest.(check int) "resident" 2 st.Catalog.resident;
  Alcotest.(check int) "resident capacity" 2 st.Catalog.resident_capacity;
  (* scan resistance: twice-touched k1 sits protected and survives the
     k3/k2 churn (plain LRU would have evicted it for k2); one segment
     slot each *)
  Alcotest.(check int) "protected" 1 st.Catalog.resident_protected;
  Alcotest.(check int) "probationary" 1 st.Catalog.resident_probationary;
  Alcotest.(check (list string))
    "retention order (protected first)" [ "ssplays@0"; "ssplays@2" ]
    (List.map Catalog.key_to_string (Catalog.keys_by_recency cat));
  Alcotest.(check (list string))
    "load order"
    [ "ssplays@0"; "ssplays@2"; "dblp@0"; "ssplays@2" ]
    (List.rev !loads);
  (* the pool-shared plan cache survived every eviction: q was
     compiled exactly once across all five estimates *)
  Alcotest.(check int) "one compiled plan" 1
    st.Catalog.plan_cache.Bounded_cache.s_length;
  match Catalog.create_r ~resident_capacity:0 ~loader () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resident_capacity 0 accepted"

(* Multi-tenant thrash under a byte budget.  Each round touches two hot
   keys twice in a row (the second touch promotes them), then cycles
   through twelve cold keys; the budget holds the hot summaries plus
   half the cold bytes, so every cold cycle overruns it.  Plain LRU
   would lose the hot keys to every cycle and hit only on the immediate
   repeats, 2 per round (16); the segmented resident set keeps them
   protected from the second round on. *)
let test_thrash_trace () =
  let hot = 2 and cold = 12 and rounds = 8 in
  let nkeys = hot + cold in
  let base = Summary.collect (Registry.generate ~scale:0.02 Registry.Ssplays) in
  let tenants =
    Array.init nkeys (fun i ->
        let v = float_of_int i in
        Summary.assemble ~p_variance:v ~o_variance:v base)
  in
  let loader (k : Catalog.key) =
    Ok tenants.(int_of_float k.Catalog.variance)
  in
  let bytes lo hi =
    let t = ref 0 in
    for i = lo to hi do
      t := !t + Summary.size_bytes tenants.(i)
    done;
    !t
  in
  let budget = bytes 0 (hot - 1) + (bytes hot (nkeys - 1) / 2) in
  let cat =
    Catalog.create_r
      ~config:
        { Xpest_plan.Cache_config.default with resident_bytes = Some budget }
      ~loader ()
  in
  let q = Pattern.of_string "//SPEECH/LINE" in
  let touch i = ignore (estimate cat (key "ssplays" (float_of_int i)) q) in
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
  Alcotest.(check int) "touches" 128 (st.Catalog.hits + st.Catalog.loads);
  Alcotest.(check int) "segmented hits" 30 st.Catalog.hits;
  Alcotest.(check int) "segmented loads" 98 st.Catalog.loads

(* A retired estimator must keep serving.  [acquire_r]'s contract only
   guarantees the handle until the next acquire — eviction may retire
   it from the resident set — but retirement severs pooling, not the
   estimator: it owns its summary and caches, so a held handle must
   stay bit-identical, and a re-acquire of the same key must load a
   fresh estimator serving the same floats. *)
let test_retired_estimator_still_serves () =
  let k1 = key "ssplays" 0.0 and k2 = key "dblp" 0.0 in
  let cat = Catalog.create_r ~resident_capacity:1 ~loader () in
  let q = Pattern.of_string "//SPEECH/LINE" in
  let acquire k =
    match Catalog.acquire_r cat k with
    | Ok e -> e
    | Error e ->
        Alcotest.failf "acquire %s: %s" (Catalog.key_to_string k)
          (Xpest_util.Xpest_error.to_string e)
  in
  let serve label est =
    match Xpest_estimator.Estimator.try_estimate est q with
    | Ok v -> Int64.bits_of_float v
    | Error e ->
        Alcotest.failf "%s: %s" label (Xpest_util.Xpest_error.to_string e)
  in
  let est1 = acquire k1 in
  let before = serve "live estimator" est1 in
  (* capacity 1: acquiring k2 retires k1's estimator *)
  ignore (acquire k2);
  let st : Catalog.stats = Catalog.stats cat in
  Alcotest.(check int) "k1 evicted" 1 st.Catalog.evictions;
  Alcotest.(check int64) "retired handle serves bit-identically" before
    (serve "retired estimator" est1);
  (* re-acquire reloads: a fresh estimator, same floats *)
  let est1' = acquire k1 in
  Alcotest.(check bool) "re-acquire built a fresh estimator" false
    (est1' == est1);
  Alcotest.(check int64) "re-acquired estimator serves bit-identically"
    before
    (serve "re-acquired estimator" est1');
  let st : Catalog.stats = Catalog.stats cat in
  Alcotest.(check int) "three loads (k1, k2, k1 again)" 3 st.Catalog.loads

(* A load leaves little in the minor heap for a later request to copy
   out: the summary's sections and the join's index are a few flat
   arrays, and any block over 256 words is allocated in the major heap
   directly.  The words promoted across one acquire of an XMark 0.05
   summary decoded from its bytes, and a minor collection after it,
   stay within a budget (a summary of small blocks promoted ~76k). *)
let test_load_leaves_little_to_promote () =
  let bytes =
    Summary.encode (Summary.build (Registry.generate ~scale:0.05 Registry.Xmark))
  in
  let k = key "xmark" 0.0 in
  let cat = Catalog.create_r ~loader:(fun _ -> Ok (Summary.decode bytes)) () in
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  let acquire () =
    match Catalog.acquire_r cat k with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "acquire: %s" (Xpest_util.Xpest_error.to_string e)
  in
  Gc.minor ();
  let before = promoted () in
  acquire ();
  Gc.minor ();
  let words = int_of_float (promoted () -. before) in
  if words > 4000 then Alcotest.failf "a load promoted %d words (budget 4000)" words;
  acquire ();
  Alcotest.(check int) "one load" 1 (Catalog.stats cat).Catalog.loads

(* ------------------------------------------------------------------ *)
(* Byte-budgeted residency.                                            *)

let test_byte_budget () =
  let k1 = key "ssplays" 0.0
  and k2 = key "ssplays" 2.0
  and k3 = key "dblp" 0.0 in
  let size k = Summary.size_bytes (summary_for k) in
  (* exact wire size: decode knows it, and an encode round-trip agrees *)
  Alcotest.(check int) "size_bytes is the wire size" (size k1)
    (String.length (Summary.encode (summary_for k1)));
  let s = Summary.decode (Summary.encode (summary_for k1)) in
  Alcotest.(check int) "decode records the size" (size k1)
    (Summary.size_bytes s);
  (* a budget one byte short of all three forces exactly one eviction *)
  let budget = size k1 + size k2 + size k3 - 1 in
  let config =
    { Xpest_plan.Cache_config.default with resident_bytes = Some budget }
  in
  let cat = Catalog.create_r ~config ~loader () in
  let q = Pattern.of_string "//SPEECH" in
  List.iter (fun k -> ignore (estimate cat k q)) [ k1; k2; k3 ];
  let st : Catalog.stats = Catalog.stats cat in
  Alcotest.(check int) "budget reported as capacity" budget
    st.Catalog.resident_capacity;
  Alcotest.(check int) "one eviction" 1 st.Catalog.evictions;
  Alcotest.(check int) "two resident" 2 st.Catalog.resident;
  Alcotest.(check int) "cost is the resident bytes"
    (size k2 + size k3) st.Catalog.resident_cost;
  Alcotest.(check int) "resident_bytes equals cost" st.Catalog.resident_cost
    st.Catalog.resident_bytes;
  match
    Catalog.create_r
      ~config:{ config with resident_bytes = Some 0 }
      ~loader ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resident_bytes 0 accepted"

(* ------------------------------------------------------------------ *)
(* Pinning.                                                            *)

let test_pinning () =
  let k1 = key "ssplays" 0.0
  and k2 = key "ssplays" 2.0
  and k3 = key "dblp" 0.0 in
  let cat = Catalog.create_r ~resident_capacity:1 ~loader () in
  let q = Pattern.of_string "//SPEECH" in
  (* pin before the key is even resident: pins stick to the key *)
  Catalog.pin cat k1;
  Alcotest.(check bool) "pinned before load" true (Catalog.pinned cat k1);
  ignore (estimate cat k1 q);
  ignore (estimate cat k2 q);
  let st : Catalog.stats = Catalog.stats cat in
  (* nothing evictable: the pinned k1 is admitted alongside k2, over
     budget rather than dropped *)
  Alcotest.(check int) "pinned entry never evicted" 0 st.Catalog.evictions;
  Alcotest.(check int) "both resident (over budget)" 2 st.Catalog.resident;
  Alcotest.(check int) "one resident pin" 1 st.Catalog.resident_pinned;
  ignore (estimate cat k1 q);
  let st = Catalog.stats cat in
  Alcotest.(check int) "pinned key hits, no reload" 2 st.Catalog.loads;
  (* unpin: the next insert pressure evicts k1 like anyone else *)
  Catalog.unpin cat k1;
  ignore (estimate cat k3 q);
  ignore (estimate cat k1 q);
  let st = Catalog.stats cat in
  Alcotest.(check bool) "unpinned key evicts again" true
    (st.Catalog.evictions > 0);
  Alcotest.(check int) "k1 reloaded after unpin+evict" 4 st.Catalog.loads

(* ------------------------------------------------------------------ *)
(* Per-key metric attribution.                                         *)

let test_batch_metrics () =
  let cat = Catalog.create_r ~loader () in
  let qa = Pattern.of_string "//SPEECH/LINE" in
  let qb = Pattern.of_string "//inproceedings/title" in
  let k1 = key "ssplays" 0.0 and k2 = key "dblp" 0.0 in
  let pairs = [| (k1, qa); (k2, qb); (k1, qa); (k2, qa) |] in
  Alcotest.(check (list (pair string (list (pair string int)))))
    "no metrics before any batch" []
    (List.map
       (fun (k, d) -> (Catalog.key_to_string k, d))
       (Catalog.last_batch_metrics cat));
  Counters.with_enabled (fun () -> ignore (Catalog.estimate_batch_r cat pairs));
  let metrics = Catalog.last_batch_metrics cat in
  Alcotest.(check (list string))
    "one row per group, in first-appearance order" [ "ssplays@0"; "dblp@0" ]
    (List.map (fun (k, _) -> Catalog.key_to_string k) metrics);
  let delta k name =
    match List.assoc_opt name (List.assoc k metrics) with
    | Some v -> v
    | None -> 0
  in
  (* group sizes are attributed exactly: 2 routed queries hit ssplays
     (the duplicate dedupes to 1 estimate), 2 hit dblp *)
  Alcotest.(check int) "ssplays group size" 2 (delta k1 "estimator.batch.queries");
  Alcotest.(check int) "dblp group size" 2 (delta k2 "estimator.batch.queries");
  Alcotest.(check int) "ssplays dedupe" 1 (delta k1 "estimator.batch.deduped");
  Alcotest.(check int) "one load per group" 2 (Catalog.stats cat).Catalog.loads;
  (* qa was compiled in the first group; the second group's qa is a
     cross-summary plan hit *)
  Alcotest.(check int) "cross-summary plan hit" 1
    (delta k2 "estimator.plan_cache.hit");
  (* counters off: the batch still works, metrics are just empty *)
  ignore (Catalog.estimate_batch_r cat pairs);
  Alcotest.(check int) "no metrics when counters are off" 0
    (List.length (Catalog.last_batch_metrics cat))

(* Per-group attribution needs each group's load inline: a batch whose
   loads run on a loader pool clears the previous batch's metrics
   instead of charging a group with counters bumped on another
   domain. *)
let test_concurrent_loads_clear_metrics () =
  let k1 = key "ssplays" 0.0 and k2 = key "dblp" 0.0 in
  (* prefill: a loader on another domain must only read the fixture *)
  List.iter (fun k -> ignore (summary_for k)) [ k1; k2 ];
  let pairs =
    [|
      (k1, Pattern.of_string "//SPEECH/LINE");
      (k2, Pattern.of_string "//inproceedings/title");
    |]
  in
  (* one resident slot: every batch reloads a key the planner can
     prefetch *)
  let cat = Catalog.create_r ~resident_capacity:1 ~loader () in
  Counters.with_enabled (fun () ->
      ignore (Catalog.estimate_batch_r cat pairs);
      Alcotest.(check bool) "blocking loads attribute metrics" true
        (Catalog.last_batch_metrics cat <> []);
      Loader_pool.with_pool ~domains:2 (fun loads ->
          Array.iter
            (function
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "pipelined batch failed: %s"
                    (Xpest_util.Xpest_error.to_string e))
            (Catalog.estimate_batch_r ~loads cat pairs));
      Alcotest.(check bool) "a load ran on the pool" true
        ((Catalog.stats cat).Catalog.prefetched_loads > 0);
      Alcotest.(check bool) "concurrent loads clear them" true
        (Catalog.last_batch_metrics cat = []))

(* A catalog's counts are its own records, kept whether or not
   counting is on: the same faulty batches (a failing key with retries
   and a quarantine, an admission shed) give equal stats on a catalog
   run with counting off and one run with it on, in one process.
   [loads] counts successful loads only — not failed attempts or
   quarantine refusals — and no [catalog.*] or [admission.*] name
   reaches the process-global counters. *)
let test_stats_per_catalog () =
  let good = key "ssplays" 0.0 and bad = key "dblp" 0.0 in
  let loader k =
    if k = bad then
      Error
        (Xpest_util.Xpest_error.Io_failure
           { path = Catalog.key_to_string k; reason = "injected" })
    else loader k
  in
  let q = Pattern.of_string "//SPEECH/LINE" in
  let run () =
    let cat =
      Catalog.create_r
        ~admission:
          { Xpest_catalog.Admission.unlimited with max_queued_loads = Some 1 }
        ~loader ()
    in
    for _ = 1 to 10 do
      ignore (Catalog.estimate_batch_r cat [| (good, q); (bad, q) |])
    done;
    (Catalog.stats cat, Catalog.admission_stats cat)
  in
  Counters.set_enabled false;
  let off = run () in
  let on = Counters.with_enabled run in
  let st, adm = off in
  Alcotest.(check bool) "stats equal with counting off and on" true (off = on);
  Alcotest.(check int) "loads: the good key once" 1 st.Catalog.loads;
  Alcotest.(check int) "hits: the good key's later batches" 9 st.Catalog.hits;
  (* batch 1 sheds the bad key (one cold load per batch); batches 2-4
     fail it into quarantine, and its probes in batches 6 and 10 fail
     again (each attempt retried twice); the other four attempts are
     quarantine refusals *)
  Alcotest.(check int) "shed" 1 st.Catalog.shed_queries;
  Alcotest.(check int) "overload sheds" 1
    adm.Xpest_catalog.Admission.s_overload_sheds;
  Alcotest.(check int) "failures" 5 st.Catalog.failures;
  Alcotest.(check int) "retries" 10 st.Catalog.retries;
  Alcotest.(check int) "quarantines" 3 st.Catalog.quarantines;
  let global =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"catalog." name
        || String.starts_with ~prefix:"admission." name)
      (Counters.counters ())
  in
  Alcotest.(check (list (pair string int))) "no global catalog counters" []
    global

let () =
  Alcotest.run "catalog"
    [
      ( "keys",
        [ Alcotest.test_case "syntax + round-trip" `Quick test_key_syntax ] );
      ( "manifest",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "corruption + staleness" `Quick
            test_manifest_corruption;
          Alcotest.test_case "flipped body byte is corrupt" `Quick
            test_body_flip_is_corrupt;
        ] );
      ( "resident_set",
        [
          Alcotest.test_case "segmented loads/hits/evictions" `Quick
            test_lru_behavior;
          Alcotest.test_case "thrash trace under a byte budget" `Quick
            test_thrash_trace;
          Alcotest.test_case "retired estimator still serves" `Quick
            test_retired_estimator_still_serves;
          Alcotest.test_case "a load leaves little to promote" `Quick
            test_load_leaves_little_to_promote;
          Alcotest.test_case "byte-budgeted residency" `Quick test_byte_budget;
          Alcotest.test_case "pinning" `Quick test_pinning;
        ]
      );
      ( "metrics",
        [
          Alcotest.test_case "per-key attribution" `Quick test_batch_metrics;
          Alcotest.test_case "concurrent loads clear last_metrics" `Quick
            test_concurrent_loads_clear_metrics;
          Alcotest.test_case "stats are per catalog and always on" `Quick
            test_stats_per_catalog;
        ] );
    ]
