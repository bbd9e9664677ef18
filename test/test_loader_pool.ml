(* Unit tests for the loader-pool future seam underneath the serving
   pipeline: the blocking policy's lazy run-at-first-await semantics
   (the bit-identity anchor), the pool policy's completion and
   work-stealing, exception transparency through await, single-shot
   await (a consumed future raises typed, never replays), and the
   size-1 degradation that makes --load-domains 1 always safe. *)

module Loader_pool = Xpest_util.Loader_pool
module E = Xpest_util.Xpest_error

(* A second await of the same future must raise the typed single-shot
   error — never hang, never hand back a stale replay. *)
let check_consumed label fut =
  match Loader_pool.await fut with
  | _ -> Alcotest.failf "%s: consumed future returned a value" label
  | exception E.Error (E.Internal _) -> ()
  | exception e ->
      Alcotest.failf "%s: expected a typed Internal error, got %s" label
        (Printexc.to_string e)

let test_blocking_lazy_await_order () =
  let loads = Loader_pool.blocking in
  Alcotest.(check int) "blocking reports one domain" 1
    (Loader_pool.domains loads);
  Alcotest.(check bool) "blocking is not concurrent" false
    (Loader_pool.concurrent loads);
  let trace = ref [] in
  let mk tag = Loader_pool.submit loads (fun () -> trace := tag :: !trace; tag) in
  let fa = mk "a" and fb = mk "b" and fc = mk "c" in
  (* nothing runs at submission *)
  Alcotest.(check (list string)) "submit runs nothing" [] !trace;
  (* execution order is await order, not submission order *)
  Alcotest.(check string) "await c" "c" (Loader_pool.await fc);
  Alcotest.(check string) "await a" "a" (Loader_pool.await fa);
  Alcotest.(check string) "await b" "b" (Loader_pool.await fb);
  Alcotest.(check (list string))
    "thunks ran in await order" [ "c"; "a"; "b" ]
    (List.rev !trace);
  (* await is single-shot: a re-await raises typed and runs nothing *)
  check_consumed "re-await a" fa;
  Alcotest.(check int) "no re-execution" 3 (List.length !trace)

let test_blocking_exception_once () =
  let runs = ref 0 in
  let fut =
    Loader_pool.submit Loader_pool.blocking (fun () ->
        incr runs;
        failwith "load exploded")
  in
  (match Loader_pool.await fut with
  | _ -> Alcotest.fail "first await: exception was swallowed"
  | exception Failure msg ->
      Alcotest.(check string) "first await: the thunk's exception"
        "load exploded" msg);
  (* a raising thunk consumes the future too: the second await raises
     the single-shot error, not a replay of the original exception *)
  check_consumed "second await" fut;
  Alcotest.(check int) "thunk ran once" 1 !runs

let test_pool_completion () =
  Loader_pool.with_pool ~domains:4 (fun loads ->
      Alcotest.(check int) "domains is the pool size" 4
        (Loader_pool.domains loads);
      Alcotest.(check bool) "a pool of 4 is concurrent" true
        (Loader_pool.concurrent loads);
      let futs =
        Array.init 32 (fun i -> Loader_pool.submit loads (fun () -> i * i))
      in
      (* await in reverse order: completion must not depend on it *)
      for i = 31 downto 0 do
        Alcotest.(check int)
          (Printf.sprintf "future %d" i)
          (i * i)
          (Loader_pool.await futs.(i))
      done)

let test_pool_exception_per_future () =
  Loader_pool.with_pool ~domains:4 (fun loads ->
      let futs =
        Array.init 16 (fun i ->
            Loader_pool.submit loads (fun () ->
                if i mod 3 = 0 then failwith (Printf.sprintf "boom %d" i)
                else i))
      in
      (* each future carries exactly its own outcome: raises stay with
         the raising load, neighbours are untouched *)
      Array.iteri
        (fun i fut ->
          if i mod 3 = 0 then
            match Loader_pool.await fut with
            | _ -> Alcotest.failf "future %d: exception was swallowed" i
            | exception Failure msg ->
                Alcotest.(check string)
                  (Printf.sprintf "future %d re-raises its own failure" i)
                  (Printf.sprintf "boom %d" i)
                  msg
          else
            Alcotest.(check int)
              (Printf.sprintf "future %d unaffected" i)
              i (Loader_pool.await fut))
        futs;
      (* the pool survives raising loads *)
      Alcotest.(check int) "pool still serves" 7
        (Loader_pool.await (Loader_pool.submit loads (fun () -> 7))))

let test_await_steals_queued_work () =
  (* a pool of 2 has one worker domain; submit more jobs than it can
     have started, then await the last one — the awaiting domain must
     work-steal the queue dry rather than park behind it *)
  Loader_pool.with_pool ~domains:2 (fun loads ->
      let ran = Atomic.make 0 in
      let futs =
        Array.init 24 (fun i ->
            Loader_pool.submit loads (fun () ->
                ignore (Atomic.fetch_and_add ran 1);
                i))
      in
      Alcotest.(check int) "await of the last future" 23
        (Loader_pool.await futs.(23));
      (* the steal loop only guarantees the awaited future's outcome;
         drain the rest normally (each exactly once: await is
         single-shot) *)
      Array.iteri
        (fun i fut ->
          if i <> 23 then
            Alcotest.(check int) (Printf.sprintf "future %d" i) i
              (Loader_pool.await fut))
        futs;
      Alcotest.(check int) "every thunk ran exactly once" 24 (Atomic.get ran);
      check_consumed "re-await of the stolen future" futs.(23))

let test_size1_pool_is_blocking () =
  Loader_pool.with_pool ~domains:1 (fun loads ->
      Alcotest.(check bool) "a size-1 pool is not concurrent" false
        (Loader_pool.concurrent loads);
      let trace = ref [] in
      let mk tag =
        Loader_pool.submit loads (fun () -> trace := tag :: !trace; tag)
      in
      let fa = mk "a" and fb = mk "b" in
      Alcotest.(check (list string)) "submit runs nothing" [] !trace;
      Alcotest.(check string) "await b" "b" (Loader_pool.await fb);
      Alcotest.(check string) "await a" "a" (Loader_pool.await fa);
      (* degraded to the blocking policy: lazy, await-ordered *)
      Alcotest.(check (list string))
        "await order, like blocking" [ "b"; "a" ]
        (List.rev !trace))

let test_submit_after_shutdown_is_typed () =
  (* the pool escapes its [with_pool], which has joined its domains *)
  let loads = Loader_pool.with_pool ~domains:2 Fun.id in
  Alcotest.(check bool) "the escaped pool is still a pool" true
    (Loader_pool.concurrent loads);
  (* submit itself must not raise: the refusal is typed and surfaces
     at the commit point, through await *)
  let fut = Loader_pool.submit loads (fun () -> 0) in
  (match Loader_pool.await fut with
  | _ -> Alcotest.fail "await of a poisoned future should raise"
  | exception E.Error (E.Overloaded _) -> ()
  | exception e ->
      Alcotest.failf "expected a typed Overloaded error, got %s"
        (Printexc.to_string e));
  (* poisoning is a property of the future, not a consumed outcome:
     every await raises the same typed refusal *)
  match Loader_pool.await fut with
  | _ -> Alcotest.fail "second await of a poisoned future should raise"
  | exception E.Error (E.Overloaded _) -> ()
  | exception e ->
      Alcotest.failf "poisoned futures stay Overloaded, got %s"
        (Printexc.to_string e)

let test_double_await_is_typed () =
  Loader_pool.with_pool ~domains:4 (fun loads ->
      let fut = Loader_pool.submit loads (fun () -> 41) in
      Alcotest.(check int) "first await" 41 (Loader_pool.await fut);
      check_consumed "queued future, second await" fut;
      (* consumption is permanent, not a one-time trip *)
      check_consumed "queued future, third await" fut)

let test_await_after_shutdown_consumed_is_typed () =
  let fut =
    Loader_pool.with_pool ~domains:2 (fun loads ->
        let fut = Loader_pool.submit loads (fun () -> 5) in
        Alcotest.(check int) "await before shutdown" 5 (Loader_pool.await fut);
        fut)
  in
  (* the workers are gone: a re-await of the consumed future must
     raise the typed single-shot error immediately — not park in the
     steal loop, and not hand back the stale 5 *)
  check_consumed "consumed future awaited after shutdown" fut

let test_pending_futures_survive_shutdown () =
  (* futures still pending when the pool shuts down must complete —
     shutdown drains the queue — and await must return their real
     outcomes afterwards, values and exceptions alike *)
  let loads, futs =
    Loader_pool.with_pool ~domains:2 (fun loads ->
        ( loads,
          Array.init 16 (fun i ->
              Loader_pool.submit loads (fun () ->
                  if i mod 5 = 4 then failwith (Printf.sprintf "late boom %d" i)
                  else i * 3)) ))
  in
  Alcotest.(check int) "no job left pending" 0 (Loader_pool.pending loads);
  Array.iteri
    (fun i fut ->
      if i mod 5 = 4 then
        match Loader_pool.await fut with
        | _ -> Alcotest.failf "future %d: exception was swallowed" i
        | exception Failure msg ->
            Alcotest.(check string)
              (Printf.sprintf "future %d kept its own failure" i)
              (Printf.sprintf "late boom %d" i)
              msg
      else
        Alcotest.(check int)
          (Printf.sprintf "future %d completed across shutdown" i)
          (i * 3)
          (Loader_pool.await fut))
    futs

let test_pending_accounting () =
  Alcotest.(check int) "blocking has no queue" 0
    (Loader_pool.pending Loader_pool.blocking);
  Loader_pool.with_pool ~domains:2 (fun loads ->
      let futs =
        Array.init 8 (fun i -> Loader_pool.submit loads (fun () -> i))
      in
      Array.iter (fun fut -> ignore (Loader_pool.await fut)) futs;
      (* every await returned, so every job completed and decremented *)
      Alcotest.(check int) "queue drains back to zero" 0
        (Loader_pool.pending loads))

let () =
  Alcotest.run "loader_pool"
    [
      ( "blocking",
        [
          Alcotest.test_case "lazy, await-ordered, single-shot" `Quick
            test_blocking_lazy_await_order;
          Alcotest.test_case "exception propagates exactly once" `Quick
            test_blocking_exception_once;
        ] );
      ( "pool",
        [
          Alcotest.test_case "completion at any await order" `Quick
            test_pool_completion;
          Alcotest.test_case "exceptions stay per-future" `Quick
            test_pool_exception_per_future;
          Alcotest.test_case "await work-steals the queue" `Quick
            test_await_steals_queued_work;
          Alcotest.test_case "size-1 pool degrades to blocking" `Quick
            test_size1_pool_is_blocking;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "submit after shutdown is typed" `Quick
            test_submit_after_shutdown_is_typed;
          Alcotest.test_case "double await is typed" `Quick
            test_double_await_is_typed;
          Alcotest.test_case "await after shutdown is typed" `Quick
            test_await_after_shutdown_consumed_is_typed;
          Alcotest.test_case "pending futures survive shutdown" `Quick
            test_pending_futures_survive_shutdown;
          Alcotest.test_case "pending accounting drains to zero" `Quick
            test_pending_accounting;
        ] );
    ]
