(* The observability counters: disabled by default, zero-cost no-ops
   when off, accurate when on, and visible through the harness
   renderer. *)

module Counters = Xpest_util.Counters
module Metrics = Xpest_harness.Metrics
module Summary = Xpest_synopsis.Summary
module Estimator = Xpest_estimator.Estimator
module Pattern = Xpest_xpath.Pattern

let c_test = Counters.create "test.counter"
let t_test = Counters.create_timer "test.timer"

let test_disabled_is_noop () =
  Counters.set_enabled false;
  Counters.reset ();
  Counters.incr c_test;
  Counters.add c_test 10;
  Counters.record t_test 1.0;
  Alcotest.(check int) "counter untouched" 0 (Counters.value c_test);
  Alcotest.(check int) "timer untouched" 0 (Counters.timer_calls t_test);
  Alcotest.(check bool) "no snapshot rows" true (Counters.counters () = [])

let test_enabled_counts () =
  Counters.with_enabled (fun () ->
      Counters.incr c_test;
      Counters.add c_test 4;
      Counters.record t_test 0.25;
      Counters.record t_test 0.5;
      Alcotest.(check int) "count" 5 (Counters.value c_test);
      Alcotest.(check int) "calls" 2 (Counters.timer_calls t_test);
      Alcotest.(check (float 1e-9)) "seconds" 0.75 (Counters.timer_seconds t_test);
      Alcotest.(check bool) "snapshot contains the counter" true
        (List.mem_assoc "test.counter" (Counters.counters ())));
  Alcotest.(check bool) "disabled again" false (Counters.enabled ())

let test_estimator_sites_fire () =
  let summary = Summary.build Paper_fixture.doc in
  Metrics.with_counters (fun () ->
      let est = Estimator.create summary in
      ignore (Estimator.estimate est (Pattern.of_string "//B/{D}"));
      ignore (Estimator.estimate est (Pattern.of_string "//A[/C/F]/B/{D}")));
  let names = List.map fst (Counters.counters ()) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " recorded") true
        (List.mem expected names))
    [
      "estimator.estimate";
      "estimator.eq.theorem_4_1";
      "estimator.eq.equation_2";
      "path_join.run_cache.miss";
      "path_join.pruned.chain_rows";
    ];
  Alcotest.(check bool) "rendered" true
    (String.length (Metrics.render_counters ()) > 0);
  (* rows are [name; value] pairs *)
  List.iter
    (fun row -> Alcotest.(check int) "two columns" 2 (List.length row))
    (Metrics.counter_rows ())

(* The join's phase timers nest inside its total: both fire on an
   uncached join, and they never add up to more than it. *)
let test_join_phase_timers () =
  let summary = Summary.build Paper_fixture.doc in
  Metrics.with_counters (fun () ->
      let est = Estimator.create summary in
      ignore (Estimator.estimate est (Pattern.of_string "//A[/C/F]/B/{D}")));
  let timer name =
    match List.find_opt (fun (n, _, _) -> n = name) (Counters.timers ()) with
    | Some (_, calls, seconds) -> (calls, seconds)
    | None -> Alcotest.failf "%s did not fire" name
  in
  let run_calls, run_s = timer "path_join.run_uncached" in
  let mask_calls, masks_s = timer "path_join.masks" in
  let fix_calls, fixpoint_s = timer "path_join.fixpoint" in
  Alcotest.(check int) "masks once per join" run_calls mask_calls;
  Alcotest.(check int) "fixpoint once per join" run_calls fix_calls;
  Alcotest.(check bool) "phases within the join" true (masks_s +. fixpoint_s <= run_s)

(* --- concurrency: counters are atomic and timers mutex-guarded, so
   totals recorded from several domains at once must be exact, not
   merely approximate *)

let test_concurrent_incr_exact () =
  let workers = 4 and per_worker = 25_000 in
  Counters.with_enabled (fun () ->
      Counters.reset ();
      let ds =
        Array.init workers (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_worker do
                  Counters.incr c_test
                done))
      in
      Array.iter Domain.join ds;
      Alcotest.(check int) "no lost increments" (workers * per_worker)
        (Counters.value c_test))

let test_concurrent_add_exact () =
  let workers = 4 and per_worker = 5_000 in
  Counters.with_enabled (fun () ->
      Counters.reset ();
      let ds =
        Array.init workers (fun w ->
            Domain.spawn (fun () ->
                for _ = 1 to per_worker do
                  Counters.add c_test (w + 1)
                done))
      in
      Array.iter Domain.join ds;
      (* sum over workers of per_worker * (w+1) = per_worker * 10 *)
      Alcotest.(check int) "no torn adds" (per_worker * 10)
        (Counters.value c_test))

let test_concurrent_timer_exact () =
  let workers = 4 and per_worker = 2_000 in
  Counters.with_enabled (fun () ->
      Counters.reset ();
      let ds =
        Array.init workers (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_worker do
                  Counters.record t_test 0.001
                done))
      in
      Array.iter Domain.join ds;
      Alcotest.(check int) "every call recorded" (workers * per_worker)
        (Counters.timer_calls t_test);
      (* float accumulation under the mutex: same sum as sequential,
         up to commutativity (identical addends, so exact here) *)
      Alcotest.(check (float 1e-6)) "seconds accumulated"
        (float_of_int (workers * per_worker) *. 0.001)
        (Counters.timer_seconds t_test))

let test_concurrent_snapshot_consistent () =
  (* snapshots taken mid-hammering never see values outside the range
     actually written so far, and the final delta is exact *)
  Counters.with_enabled (fun () ->
      Counters.reset ();
      let before = Counters.snapshot () in
      let total = 40_000 in
      let d =
        Domain.spawn (fun () ->
            for _ = 1 to total do
              Counters.incr c_test
            done)
      in
      let monotone = ref true in
      let last = ref 0 in
      for _ = 1 to 100 do
        let v = Counters.value c_test in
        if v < !last || v > total then monotone := false;
        last := v
      done;
      Domain.join d;
      Alcotest.(check bool) "mid-flight reads monotone and in range" true
        !monotone;
      let delta = Counters.delta_between before (Counters.snapshot ()) in
      Alcotest.(check int) "final delta exact" total
        (match List.assoc_opt "test.counter" delta with
        | Some v -> v
        | None -> 0))

let test_estimates_unchanged_by_counting () =
  let summary = Summary.build Paper_fixture.doc in
  let q = Pattern.of_string "//A[/C/folls::{B}/D]" in
  let plain = Estimator.estimate (Estimator.create summary) q in
  let counted =
    Metrics.with_counters (fun () ->
        Estimator.estimate (Estimator.create summary) q)
  in
  Alcotest.(check (float 0.0)) "identical" plain counted

(* A load's decode split: the container (header, checksum, section
   table) and the sections each fire once per load, also on the
   catalog's one-read verified load, and within a timed load they
   never add up to more than it. *)
let test_decode_split_timers () =
  let data = Summary.encode (Summary.build Paper_fixture.doc) in
  let path = Filename.temp_file "xpest_counters" ".syn" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      let timer name =
        match List.find_opt (fun (n, _, _) -> n = name) (Counters.timers ()) with
        | Some (_, calls, seconds) -> (calls, seconds)
        | None -> Alcotest.failf "%s did not fire" name
      in
      Metrics.with_counters (fun () -> ignore (Summary.load path));
      let load_calls, load_s = timer "summary.load" in
      let container_calls, container_s = timer "summary.decode.container" in
      let sections_calls, sections_s = timer "summary.decode.sections" in
      Alcotest.(check int) "one load" 1 load_calls;
      Alcotest.(check int) "container once per load" 1 container_calls;
      Alcotest.(check int) "sections once per load" 1 sections_calls;
      Alcotest.(check bool) "decode split within the load" true
        (container_s +. sections_s <= load_s);
      let rendered = Metrics.render_counters () in
      let mentions name =
        let n = String.length name in
        let rec go i =
          i + n <= String.length rendered
          && (String.sub rendered i n = name || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun name -> Alcotest.(check bool) (name ^ " rendered") true (mentions name))
        [ "summary.decode.container"; "summary.decode.sections" ];
      Metrics.with_counters (fun () ->
          match
            Xpest_synopsis.Synopsis_io.load_verified ~bytes:(String.length data)
              ~checksum:(Xpest_synopsis.Wire.read_header data).checksum path
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "verified load: %s" (Xpest_util.Xpest_error.to_string e));
      Alcotest.(check int) "container on a verified load" 1
        (fst (timer "summary.decode.container"));
      Alcotest.(check int) "sections on a verified load" 1
        (fst (timer "summary.decode.sections")))

(* [delta_between] walks the two snapshots in lockstep; the reference
   is its earlier definition, a name lookup per counter.  Random
   activity between three snapshots: increments, adds of any sign,
   resets, and counters registered in between. *)
let reference_delta (before : Counters.snapshot) (after : Counters.snapshot) =
  let before = (before :> (string * int) list) in
  List.filter_map
    (fun (name, v_after) ->
      let v_before = match List.assoc_opt name before with Some v -> v | None -> 0 in
      if v_after - v_before <> 0 then Some (name, v_after - v_before) else None)
    (after :> (string * int) list)
  |> List.sort compare

let delta_counters = Array.init 6 (fun i -> Counters.create (Printf.sprintf "test.delta.%d" i))
let created = ref 0

type op = Incr of int | Add of int * int | Reset | Create

let run_op = function
  | Incr i -> Counters.incr delta_counters.(i)
  | Add (i, n) -> Counters.add delta_counters.(i) n
  | Reset -> Counters.reset ()
  | Create ->
      incr created;
      Counters.incr (Counters.create (Printf.sprintf "test.delta.new%d" !created))

let gen_ops =
  let open QCheck.Gen in
  list_size (int_bound 30)
    (frequency
       [
         (6, map (fun i -> Incr i) (int_bound 5));
         (4, map2 (fun i n -> Add (i, n)) (int_bound 5) (int_range (-5) 20));
         (1, return Reset);
         (1, return Create);
       ])

let prop_linear_delta =
  QCheck.Test.make ~name:"linear delta = per-name reference" ~count:300
    (QCheck.pair (QCheck.make gen_ops) (QCheck.make gen_ops))
    (fun (ops1, ops2) ->
      Counters.with_enabled (fun () ->
          let s1 = Counters.snapshot () in
          List.iter run_op ops1;
          let s2 = Counters.snapshot () in
          List.iter run_op ops2;
          let s3 = Counters.snapshot () in
          let names = List.map fst (s3 :> (string * int) list) in
          List.length (List.sort_uniq compare names) = List.length names
          && List.for_all
               (fun (a, b) -> Counters.delta_between a b = reference_delta a b)
               [ (s1, s2); (s2, s3); (s1, s3); (s3, s1); (s2, s2) ]))

let () =
  Alcotest.run "counters"
    [
      ( "core",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "enabled counts" `Quick test_enabled_counts;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xde17a |]) prop_linear_delta;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "incr exact across domains" `Quick
            test_concurrent_incr_exact;
          Alcotest.test_case "add exact across domains" `Quick
            test_concurrent_add_exact;
          Alcotest.test_case "timer exact across domains" `Quick
            test_concurrent_timer_exact;
          Alcotest.test_case "snapshot consistent mid-flight" `Quick
            test_concurrent_snapshot_consistent;
        ] );
      ( "integration",
        [
          Alcotest.test_case "estimator sites fire" `Quick
            test_estimator_sites_fire;
          Alcotest.test_case "estimates unchanged by counting" `Quick
            test_estimates_unchanged_by_counting;
          Alcotest.test_case "join phase timers" `Quick test_join_phase_timers;
          Alcotest.test_case "decode split timers" `Quick
            test_decode_split_timers;
        ] );
    ]
