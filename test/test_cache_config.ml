(* Cache_config.for_dataset: the built-in per-dataset capacity table
   (case-insensitive names), and the shared default for anything
   else. *)

module Cache_config = Xpest_plan.Cache_config
module Bounded_cache = Xpest_util.Bounded_cache

let caps (c : Cache_config.t) =
  [ c.Cache_config.plan; c.Cache_config.run ]

let check_caps msg expected cfg =
  Alcotest.(check (list int)) msg expected (caps cfg)

let test_builtin_table () =
  List.iter
    (fun (name, expected) ->
      let cfg = Cache_config.for_dataset name in
      check_caps name expected cfg;
      Alcotest.(check bool)
        (name ^ ": no byte budget")
        true
        (cfg.Cache_config.resident_bytes = None))
    [
      ("ssplays", [ 2048; 2048 ]);
      ("SSPlays", [ 2048; 2048 ]);
      ("dblp", [ 4096; 4096 ]);
      ("xmark", [ 2048; 4096 ]);
    ]

let test_unknown_dataset () =
  let cfg = Cache_config.for_dataset "no-such-dataset" in
  check_caps "unknown = default" (caps Cache_config.default) cfg;
  Alcotest.(check int) "default is the shared plan-cache capacity"
    Bounded_cache.default_capacity cfg.Cache_config.plan

let () =
  Alcotest.run "cache_config"
    [
      ( "for_dataset",
        [
          Alcotest.test_case "builtin table" `Quick test_builtin_table;
          Alcotest.test_case "unknown dataset" `Quick test_unknown_dataset;
        ] );
    ]
