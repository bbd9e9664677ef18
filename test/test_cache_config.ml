(* Cache_config.for_dataset resolution order: a live BENCH_engine.json
   wins when it carries both the plan and run peaks for the dataset
   (other cache objects, such as the rel/chain peaks older files
   list, are ignored); anything
   less — missing file, malformed JSON, truncated block — falls back
   to the built-in per-dataset table, and unknown datasets to the
   shared default.  A half-parsed file must never produce half-tuned
   capacities. *)

module Cache_config = Xpest_plan.Cache_config
module Plan_cache = Xpest_plan.Plan_cache

let tmpfile contents =
  let path = Filename.temp_file "xpest_cache_config" ".json" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let caps (c : Cache_config.t) =
  [ c.Cache_config.plan; c.Cache_config.run ]

let check_caps msg expected cfg =
  Alcotest.(check (list int)) msg expected (caps cfg)

(* a minimal bench block shaped like the real emitter's output *)
let bench_json ?(dataset = "ssplays") ?(plan = 100) ?(rel = 200) ?(chain = 300)
    ?(run = 400) () =
  Printf.sprintf
    {|{ "schema": "xpest-bench-engine/5",
  "engine": [
    { "dataset": %S, "scale": 0.1,
      "caches": {
        "plan": { "capacity": 4096, "peak": %d, "evictions": 0 },
        "rel": { "capacity": 4096, "peak": %d, "evictions": 0 },
        "chain": { "capacity": 4096, "peak": %d, "evictions": 0 },
        "run": { "capacity": 4096, "peak": %d, "evictions": 0 } } },
    { "dataset": "dblp", "scale": 0.1,
      "caches": {
        "plan": { "capacity": 4096, "peak": 9999, "evictions": 0 } } } ] }|}
    dataset plan rel chain run

let builtin_ssplays = Cache_config.for_dataset "ssplays"

let test_missing_file () =
  let cfg =
    Cache_config.for_dataset ~bench_json:"/nonexistent/BENCH_engine.json"
      "ssplays"
  in
  check_caps "missing file = builtin" (caps builtin_ssplays) cfg;
  Alcotest.(check bool) "segmented untouched" false cfg.Cache_config.segmented;
  Alcotest.(check bool)
    "no byte budget" true
    (cfg.Cache_config.resident_bytes = None)

let test_malformed_file () =
  List.iter
    (fun contents ->
      let path = tmpfile contents in
      let cfg = Cache_config.for_dataset ~bench_json:path "ssplays" in
      Sys.remove path;
      check_caps
        (Printf.sprintf "malformed (%S...) = builtin"
           (String.sub contents 0 (min 20 (String.length contents))))
        (caps builtin_ssplays) cfg)
    [
      "";
      "not json at all";
      {|{ "schema": "xpest-bench-engine/5", "engine": [] }|};
      (* dataset present but the run peak is missing: all-or-nothing *)
      {|{ "engine": [ { "dataset": "ssplays",
           "caches": { "plan": { "peak": 10 }, "rel": { "peak": 10 },
                       "chain": { "peak": 10 } } } ] }|};
      (* non-numeric peak *)
      {|{ "engine": [ { "dataset": "ssplays",
           "caches": { "plan": { "peak": ten }, "rel": { "peak": 10 },
                       "chain": { "peak": 10 }, "run": { "peak": 10 } } } ] }|};
    ]

let test_derived_capacities () =
  let path = tmpfile (bench_json ~plan:100 ~rel:200 ~chain:300 ~run:2000 ()) in
  let cfg = Cache_config.for_dataset ~bench_json:path "ssplays" in
  Sys.remove path;
  (* next power of two above twice the peak, floored at 512; the
     rel/chain peaks an older file lists are ignored *)
  check_caps "derived from live peaks" [ 512; 4096 ] cfg

let test_plan_run_only_file () =
  (* the current emitter lists only the plan and run caches *)
  let path =
    tmpfile
      {|{ "engine": [ { "dataset": "xmark",
           "caches": { "plan": { "capacity": 4096, "peak": 1500, "evictions": 0 },
                       "run": { "capacity": 4096, "peak": 300, "evictions": 0 } } } ] }|}
  in
  let cfg = Cache_config.for_dataset ~bench_json:path "xmark" in
  Sys.remove path;
  check_caps "derived from plan/run peaks" [ 4096; 1024 ] cfg

let test_other_dataset_blocks_isolated () =
  (* the dblp block in the fixture lacks the run peak: dblp falls back
     to builtin even though ssplays parses *)
  let path = tmpfile (bench_json ()) in
  let from_bench = Cache_config.for_dataset ~bench_json:path "dblp" in
  Sys.remove path;
  check_caps "dblp = builtin despite live file"
    (caps (Cache_config.for_dataset "dblp"))
    from_bench

let test_unknown_dataset () =
  let cfg = Cache_config.for_dataset "no-such-dataset" in
  check_caps "unknown = default" (caps Cache_config.default) cfg;
  Alcotest.(check int) "default is the shared plan-cache capacity"
    Plan_cache.default_capacity cfg.Cache_config.plan

let () =
  Alcotest.run "cache_config"
    [
      ( "for_dataset",
        [
          Alcotest.test_case "missing bench file" `Quick test_missing_file;
          Alcotest.test_case "malformed bench file" `Quick test_malformed_file;
          Alcotest.test_case "derived capacities" `Quick
            test_derived_capacities;
          Alcotest.test_case "plan/run-only bench file" `Quick
            test_plan_run_only_file;
          Alcotest.test_case "per-dataset isolation" `Quick
            test_other_dataset_blocks_isolated;
          Alcotest.test_case "unknown dataset" `Quick test_unknown_dataset;
        ] );
    ]
