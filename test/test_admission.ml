(* Unit tests for the admission controller: deadline budgets, the
   per-batch load-queue bound, the loader circuit breaker's state
   machine, the planner's worst-case provability predicate, and the
   breaker's persistence snapshot.  Everything here is pure state
   machinery — no catalog, no I/O — so each transition is pinned
   exactly. *)

module Admission = Xpest_catalog.Admission
module E = Xpest_util.Xpest_error

let cfg ?deadline ?max_queued_loads ?breaker_threshold () =
  { Admission.deadline; max_queued_loads; breaker_threshold }

let admit ?(label = "admitted") t ~clock ~key ~would_load =
  match Admission.decide t ~clock ~key ~would_load with
  | Admission.Admit { probe } -> probe
  | Admission.Shed e -> Alcotest.failf "%s: shed (%s)" label (E.to_string e)

let shed ?(label = "shed") t ~clock ~key ~would_load =
  match Admission.decide t ~clock ~key ~would_load with
  | Admission.Admit _ -> Alcotest.failf "%s: admitted" label
  | Admission.Shed e -> e

let breaker_state t ~clock = (Admission.breaker t ~clock).Admission.state

(* ------------------------------------------------------------------ *)
(* Activation and validation.                                          *)

let test_inactive_admits_everything () =
  let t = Admission.create Admission.unlimited in
  Alcotest.(check bool) "unlimited is inactive" false (Admission.active t);
  (* no batch_begin on purpose: an inactive controller must not even
     need the ledger *)
  for i = 0 to 99 do
    let probe =
      admit t ~clock:i ~key:"k" ~would_load:(i mod 2 = 0)
        ~label:(Printf.sprintf "query %d" i)
    in
    Alcotest.(check bool) "never a probe" false probe
  done;
  let s = Admission.stats t in
  Alcotest.(check int) "no sheds counted" 0 (Admission.total_sheds s)

let test_any_limit_activates () =
  let active c = Admission.active (Admission.create c) in
  Alcotest.(check bool) "deadline" true (active (cfg ~deadline:10 ()));
  Alcotest.(check bool) "queue bound" true (active (cfg ~max_queued_loads:1 ()));
  Alcotest.(check bool) "breaker" true (active (cfg ~breaker_threshold:3 ()))

let test_create_validates () =
  let raises c =
    match Admission.create c with
    | _ -> Alcotest.fail "malformed config accepted"
    | exception Invalid_argument _ -> ()
  in
  raises (cfg ~deadline:(-1) ());
  raises (cfg ~max_queued_loads:(-1) ());
  raises (cfg ~breaker_threshold:0 ())

(* ------------------------------------------------------------------ *)
(* Deadline budget.                                                    *)

let test_deadline_budget_spending () =
  (* budget 20: load(8) + load(8) + hit(1)*4 = 20 exactly; the 21st
     tick is refused with the precise shortfall *)
  let t = Admission.create (cfg ~deadline:20 ()) in
  Admission.batch_begin t;
  ignore (admit t ~clock:0 ~key:"a" ~would_load:true);
  ignore (admit t ~clock:1 ~key:"b" ~would_load:true);
  for i = 0 to 3 do
    ignore
      (admit t ~clock:(2 + i) ~key:"a" ~would_load:false
         ~label:(Printf.sprintf "hit %d" i))
  done;
  (match shed t ~clock:6 ~key:"c" ~would_load:false with
  | E.Deadline_exceeded { key; needed; remaining } ->
      Alcotest.(check string) "shed key" "c" key;
      Alcotest.(check int) "needed" 1 needed;
      Alcotest.(check int) "remaining" 0 remaining
  | e -> Alcotest.failf "wrong error: %s" (E.to_string e));
  let s = Admission.stats t in
  Alcotest.(check int) "one deadline shed" 1 s.Admission.s_deadline_sheds

let test_deadline_shed_spends_nothing () =
  (* budget 10: a load (needs 8) fits once; the second load is shed
     but hits (cost 1) keep being admitted from the 2 remaining ticks *)
  let t = Admission.create (cfg ~deadline:10 ()) in
  Admission.batch_begin t;
  ignore (admit t ~clock:0 ~key:"a" ~would_load:true);
  (match shed t ~clock:1 ~key:"b" ~would_load:true with
  | E.Deadline_exceeded { needed; remaining; _ } ->
      Alcotest.(check int) "needed a load" 8 needed;
      Alcotest.(check int) "2 ticks left" 2 remaining
  | e -> Alcotest.failf "wrong error: %s" (E.to_string e));
  ignore (admit t ~clock:2 ~key:"a" ~would_load:false ~label:"hit after shed");
  ignore (admit t ~clock:3 ~key:"a" ~would_load:false ~label:"second hit");
  (* now the budget really is empty *)
  ignore (shed t ~clock:4 ~key:"a" ~would_load:false ~label:"exhausted")

let test_batch_begin_resets_budget () =
  let t = Admission.create (cfg ~deadline:8 ()) in
  Admission.batch_begin t;
  ignore (admit t ~clock:0 ~key:"a" ~would_load:true);
  ignore (shed t ~clock:1 ~key:"b" ~would_load:true ~label:"batch 1 exhausted");
  Admission.batch_end t ~clock:1;
  Admission.batch_begin t;
  ignore (admit t ~clock:2 ~key:"b" ~would_load:true ~label:"fresh budget")

(* ------------------------------------------------------------------ *)
(* Load-queue bound.                                                   *)

let test_queue_bound () =
  let t = Admission.create (cfg ~max_queued_loads:2 ()) in
  Admission.batch_begin t;
  ignore (admit t ~clock:0 ~key:"a" ~would_load:true);
  ignore (admit t ~clock:1 ~key:"b" ~would_load:true);
  (match shed t ~clock:2 ~key:"c" ~would_load:true with
  | E.Overloaded _ -> ()
  | e -> Alcotest.failf "wrong error: %s" (E.to_string e));
  (* hits never occupy the load queue *)
  ignore (admit t ~clock:3 ~key:"a" ~would_load:false ~label:"hit at bound");
  let s = Admission.stats t in
  Alcotest.(check int) "one overload shed" 1 s.Admission.s_overload_sheds;
  (* a new batch gets a fresh queue *)
  Admission.batch_end t ~clock:4;
  Admission.batch_begin t;
  ignore (admit t ~clock:5 ~key:"c" ~would_load:true ~label:"fresh queue")

let test_queue_bound_zero_is_resident_only () =
  let t = Admission.create (cfg ~max_queued_loads:0 ()) in
  Admission.batch_begin t;
  ignore (shed t ~clock:0 ~key:"a" ~would_load:true ~label:"no loads at all");
  ignore (admit t ~clock:1 ~key:"b" ~would_load:false ~label:"hits still serve")

(* ------------------------------------------------------------------ *)
(* Circuit breaker.                                                    *)

let feed_failures t ~clock n =
  for i = 1 to n do
    Admission.note_load_result t ~clock:(clock + i) ~ok:false
  done

let test_breaker_opens_on_consecutive_failures () =
  let t = Admission.create (cfg ~breaker_threshold:3 ()) in
  Admission.batch_begin t;
  feed_failures t ~clock:0 2;
  Alcotest.(check bool)
    "still closed below threshold" true
    (breaker_state t ~clock:2 = `Closed);
  (* a success resets the streak *)
  Admission.note_load_result t ~clock:3 ~ok:true;
  feed_failures t ~clock:3 2;
  Alcotest.(check bool)
    "streak reset by success" true
    (breaker_state t ~clock:5 = `Closed);
  feed_failures t ~clock:5 1;
  Alcotest.(check bool) "opens at threshold" true
    (breaker_state t ~clock:6 = `Open);
  (* open: cold loads shed, hits pass *)
  (match shed t ~clock:7 ~key:"a" ~would_load:true with
  | E.Overloaded _ -> ()
  | e -> Alcotest.failf "wrong error: %s" (E.to_string e));
  ignore (admit t ~clock:8 ~key:"a" ~would_load:false ~label:"hit while open");
  let s = Admission.stats t in
  Alcotest.(check int) "one open" 1 s.Admission.s_breaker_opens;
  Alcotest.(check int) "one breaker shed" 1 s.Admission.s_breaker_sheds

let test_breaker_probe_success_closes () =
  let t = Admission.create (cfg ~breaker_threshold:2 ()) in
  Admission.batch_begin t;
  feed_failures t ~clock:10 2;
  (* opened at clock 12 with the base cooldown *)
  let v = Admission.breaker t ~clock:12 in
  Alcotest.(check int)
    "base cooldown" Admission.breaker_cooldown_base v.Admission.remaining_ticks;
  ignore (shed t ~clock:13 ~key:"a" ~would_load:true ~label:"cooling down");
  (* cooldown elapsed: the next cold load is the half-open probe *)
  let probe =
    admit t
      ~clock:(12 + Admission.breaker_cooldown_base)
      ~key:"a" ~would_load:true ~label:"probe admitted"
  in
  Alcotest.(check bool) "marked as probe" true probe;
  Alcotest.(check bool)
    "half-open while the probe is in flight" true
    (breaker_state t ~clock:29 = `Half_open);
  (* a second cold load during the probe is refused *)
  ignore (shed t ~clock:29 ~key:"b" ~would_load:true ~label:"during probe");
  Admission.note_load_result t ~clock:30 ~ok:true;
  Alcotest.(check bool) "probe success closes" true
    (breaker_state t ~clock:30 = `Closed);
  let v = Admission.breaker t ~clock:30 in
  Alcotest.(check int)
    "cooldown forgiven" Admission.breaker_cooldown_base v.Admission.cooldown;
  ignore (admit t ~clock:31 ~key:"b" ~would_load:true ~label:"closed again")

let test_breaker_probe_failure_doubles_cooldown () =
  let t = Admission.create (cfg ~breaker_threshold:1 ()) in
  Admission.batch_begin t;
  let rec reopen ~clock expected_cooldown n =
    if n > 0 then begin
      let probe = admit t ~clock ~key:"a" ~would_load:true ~label:"probe" in
      Alcotest.(check bool) "is the probe" true probe;
      Admission.note_load_result t ~clock ~ok:false;
      let v = Admission.breaker t ~clock in
      Alcotest.(check bool) "reopened" true (v.Admission.state = `Open);
      Alcotest.(check int)
        (Printf.sprintf "cooldown after reopen %d" n)
        expected_cooldown v.Admission.remaining_ticks;
      reopen
        ~clock:(clock + expected_cooldown)
        (min (2 * expected_cooldown) Admission.breaker_cooldown_max)
        (n - 1)
    end
  in
  (* first failure opens with the base cooldown *)
  Admission.note_load_result t ~clock:0 ~ok:false;
  let v = Admission.breaker t ~clock:0 in
  Alcotest.(check int)
    "base" Admission.breaker_cooldown_base v.Admission.remaining_ticks;
  (* each failed probe doubles: 32, 64, 128, 256, then capped at 256 *)
  reopen
    ~clock:Admission.breaker_cooldown_base
    (2 * Admission.breaker_cooldown_base)
    6

let test_breaker_saturation_opens () =
  let t =
    Admission.create (cfg ~max_queued_loads:1 ~breaker_threshold:5 ())
  in
  let clock = ref 0 in
  let saturated_batch () =
    let c = !clock in
    Admission.batch_begin t;
    ignore
      (admit t ~clock:c ~key:"a" ~would_load:true ~label:"fills the queue");
    ignore (shed t ~clock:(c + 1) ~key:"b" ~would_load:true ~label:"sat");
    Admission.note_load_result t ~clock:(c + 1) ~ok:true;
    Admission.batch_end t ~clock:(c + 2);
    clock := c + 3
  in
  (* one batch short of the streak *)
  let almost () =
    for _ = 2 to Admission.breaker_saturation do
      saturated_batch ()
    done
  in
  almost ();
  Alcotest.(check bool)
    "one batch short is not enough" true
    (breaker_state t ~clock:!clock = `Closed);
  (* an unsaturated batch resets the streak *)
  Admission.batch_begin t;
  ignore (admit t ~clock:!clock ~key:"a" ~would_load:false ~label:"calm batch");
  Admission.batch_end t ~clock:(!clock + 1);
  clock := !clock + 2;
  almost ();
  Alcotest.(check bool)
    "streak was reset" true
    (breaker_state t ~clock:!clock = `Closed);
  saturated_batch ();
  Alcotest.(check bool)
    "breaker_saturation consecutive saturated batches open" true
    (breaker_state t ~clock:!clock = `Open)

(* ------------------------------------------------------------------ *)
(* Provability (the prefetch planner's worst-case gate).               *)

let test_provable_worst_case () =
  let t =
    Admission.create (cfg ~deadline:32 ~max_queued_loads:3
                        ~breaker_threshold:4 ())
  in
  Admission.batch_begin t;
  (* budget 32, load 8: group 0 provable with up to 3 earlier groups
     spending a full load each... *)
  Alcotest.(check bool) "0 before" true (Admission.provable t ~groups_before:0);
  Alcotest.(check bool) "2 before" true (Admission.provable t ~groups_before:2);
  (* ...but the queue bound (3) refuses 3 earlier loads *)
  Alcotest.(check bool)
    "3 before hits the queue bound" false
    (Admission.provable t ~groups_before:3);
  (* spend one admitted load: both budget and queue tighten *)
  ignore (admit t ~clock:0 ~key:"a" ~would_load:true);
  Alcotest.(check bool) "1 before after a load" true
    (Admission.provable t ~groups_before:1);
  Alcotest.(check bool)
    "2 before after a load" false
    (Admission.provable t ~groups_before:2);
  (* failures ahead of the group could trip the breaker *)
  feed_failures t ~clock:1 2;
  Alcotest.(check bool)
    "2 failures + 1 before stays under threshold 4" true
    (Admission.provable t ~groups_before:1);
  feed_failures t ~clock:3 1;
  Alcotest.(check bool)
    "3 failures + 1 before could open the breaker" false
    (Admission.provable t ~groups_before:1);
  Alcotest.(check bool)
    "inactive controller proves everything" true
    (Admission.provable (Admission.create Admission.unlimited)
       ~groups_before:1000)

let test_provable_never_lies () =
  (* Exhaustive cross-check on a grid: whenever [provable ~groups_before:g]
     says yes, committing g worst-case groups (cold load, failing) and
     then the group itself must in fact admit it.  This is the exact
     property the planner's bit-identity argument rests on. *)
  List.iter
    (fun (deadline, queue, threshold) ->
      for g = 0 to 5 do
        let t =
          Admission.create
            (cfg ?deadline ?max_queued_loads:queue
               ?breaker_threshold:threshold ())
        in
        Admission.batch_begin t;
        if Admission.provable t ~groups_before:g then begin
          let clock = ref 0 in
          for i = 1 to g do
            (match
               Admission.decide t ~clock:!clock
                 ~key:(Printf.sprintf "ahead%d" i) ~would_load:true
             with
            | Admission.Admit _ -> ()
            | Admission.Shed e ->
                Alcotest.failf
                  "deadline=%s queue=%s k=%s: worst-case group %d/%d shed \
                   (%s) though provable said yes"
                  (match deadline with Some d -> string_of_int d | None -> "-")
                  (match queue with Some q -> string_of_int q | None -> "-")
                  (match threshold with
                  | Some k -> string_of_int k
                  | None -> "-")
                  i g (E.to_string e));
            Admission.note_load_result t ~clock:!clock ~ok:false;
            incr clock
          done;
          match
            Admission.decide t ~clock:!clock ~key:"the-group" ~would_load:true
          with
          | Admission.Admit _ -> ()
          | Admission.Shed e ->
              Alcotest.failf "provable group shed after worst case: %s"
                (E.to_string e)
        end
      done)
    [
      (Some 64, None, None);
      (Some 64, Some 3, None);
      (Some 64, Some 3, Some 4);
      (None, Some 2, Some 2);
      (None, None, Some 6);
      (Some 8, None, Some 1);
    ]

(* ------------------------------------------------------------------ *)
(* Persistence snapshot.                                               *)

let test_breaker_view_restore_reanchors () =
  let t = Admission.create (cfg ~breaker_threshold:2 ()) in
  Admission.batch_begin t;
  feed_failures t ~clock:100 2;
  let v = Admission.breaker t ~clock:102 in
  Alcotest.(check bool) "open at save" true (v.Admission.state = `Open);
  (* restore into a fresh controller whose clock starts at 0: the
     remaining ticks carry over, not the absolute deadline *)
  let t2 = Admission.create (cfg ~breaker_threshold:2 ()) in
  Admission.restore_breaker t2 ~clock:0 v;
  let v2 = Admission.breaker t2 ~clock:0 in
  Alcotest.(check bool) "still open" true (v2.Admission.state = `Open);
  Alcotest.(check int)
    "remaining re-anchored" v.Admission.remaining_ticks
    v2.Admission.remaining_ticks;
  Alcotest.(check int)
    "failure streak carried" v.Admission.consecutive_failures
    v2.Admission.consecutive_failures;
  (* the restored breaker still probes once the cooldown elapses *)
  Admission.batch_begin t2;
  let probe =
    admit t2 ~clock:v.Admission.remaining_ticks ~key:"a" ~would_load:true
      ~label:"restored probe"
  in
  Alcotest.(check bool) "probe after restore" true probe

let test_restore_clamps_cooldown () =
  let t = Admission.create (cfg ~breaker_threshold:1 ()) in
  Admission.restore_breaker t ~clock:0
    {
      Admission.state = `Open;
      remaining_ticks = 5;
      consecutive_failures = 3;
      cooldown = 100_000;
    };
  let v = Admission.breaker t ~clock:0 in
  Alcotest.(check int)
    "cooldown clamped to the cap" Admission.breaker_cooldown_max
    v.Admission.cooldown;
  Admission.restore_breaker t ~clock:0
    {
      Admission.state = `Closed;
      remaining_ticks = 0;
      consecutive_failures = 0;
      cooldown = 1;
    };
  let v = Admission.breaker t ~clock:0 in
  Alcotest.(check int)
    "cooldown clamped to the base" Admission.breaker_cooldown_base
    v.Admission.cooldown

let () =
  Alcotest.run "admission"
    [
      ( "config",
        [
          Alcotest.test_case "inactive admits everything" `Quick
            test_inactive_admits_everything;
          Alcotest.test_case "any limit activates" `Quick
            test_any_limit_activates;
          Alcotest.test_case "create validates" `Quick test_create_validates;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "budget spending and exact shortfall" `Quick
            test_deadline_budget_spending;
          Alcotest.test_case "sheds spend nothing" `Quick
            test_deadline_shed_spends_nothing;
          Alcotest.test_case "batch_begin resets the budget" `Quick
            test_batch_begin_resets_budget;
        ] );
      ( "queue",
        [
          Alcotest.test_case "cold-load bound" `Quick test_queue_bound;
          Alcotest.test_case "bound 0 means resident-only" `Quick
            test_queue_bound_zero_is_resident_only;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens on consecutive failures" `Quick
            test_breaker_opens_on_consecutive_failures;
          Alcotest.test_case "probe success closes" `Quick
            test_breaker_probe_success_closes;
          Alcotest.test_case "probe failure doubles the cooldown" `Quick
            test_breaker_probe_failure_doubles_cooldown;
          Alcotest.test_case "saturated batches open" `Quick
            test_breaker_saturation_opens;
        ] );
      ( "provable",
        [
          Alcotest.test_case "worst-case bounds" `Quick
            test_provable_worst_case;
          Alcotest.test_case "provable implies admitted" `Quick
            test_provable_never_lies;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "restore re-anchors on the clock" `Quick
            test_breaker_view_restore_reanchors;
          Alcotest.test_case "restore clamps the cooldown" `Quick
            test_restore_clamps_cooldown;
        ] );
    ]
