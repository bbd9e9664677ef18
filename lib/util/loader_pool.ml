(* Futures for the catalog's load stage.

   The serving pipeline wants to start summary loads before their
   acquire turn comes up, without giving up the acquire state machine's
   single-owner ordering.  A [Loader_pool.t] is the seam: [submit]
   hands a load thunk to the pool and returns a future, [await]
   produces its outcome at the commit point.

   Two shapes, one API:

   - [blocking]: the thunk is stored and runs at the *first [await]*,
     on the awaiting domain.  Submission order is irrelevant; execution
     order is exactly await order — i.e. exactly the order the
     sequential serving loop would have run the loads in.  This is the
     bit-identity anchor: any loader, even one drawing from a shared
     order-sensitive PRNG stream, behaves as if no pipeline existed.

   - a pool of [n > 1] domains: [n - 1] spawned workers and the
     awaiting domain share one job queue.  The thunk is enqueued at
     submission, so distinct loads overlap each other and whatever the
     submitter does next.  Awaiting a still-pending future steals other
     queued jobs ([try_run_one]) before parking on the cell's condition
     variable, so the caller is never idle while work exists.  A pool
     of one domain is [blocking] (it has no spare domain to overlap
     on).

   Outcome capture: the job wraps the thunk and stores [Done v] or
   [Raised e] in the cell, so workers never raise (a raise would kill
   the worker domain) and [await] re-raises exactly what the thunk
   raised — a raising loader is observationally identical to the
   blocking path.

   Shutdown discipline: [shutdown] lets the workers drain the queue
   before they exit, so a future pending at shutdown still completes
   and awaits normally.  Submitting to a pool already shut down yields
   a poisoned future whose await raises a typed [Overloaded] error —
   callers see the same error taxonomy the admission layer speaks,
   never a hang or a bare Invalid_argument from deep inside the pool.

   Await is single-shot: a future is consumed by its first [await],
   and a second [await] raises a typed [Internal] error instead of
   replaying a memoized outcome.  The pipeline awaits each prefetched
   load exactly once at its commit point; a double await is a caller
   bug (two owners for one load), and silently replaying the first
   outcome would mask it — in particular a replayed loader result
   would not re-draw from a keyed fault injector, so the replay could
   diverge from what a real second load would have seen.  ([Poisoned]
   futures stay repeatable: poisoning is a property of the future, not
   an outcome that can go stale.) *)

type pool = {
  size : int;
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;  (* guarded by [mutex] *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  mutable stopping : bool;  (* guarded by [mutex] *)
  mutable terminated : bool;  (* guarded by [mutex]: workers joined *)
  pending : int Atomic.t;  (* submitted, not yet completed *)
}

type t = Blocking | Pool of pool

type 'a outcome = Pending | Done of 'a | Raised of exn

type 'a cell = {
  m : Mutex.t;
  cond : Condition.t;
  mutable state : 'a outcome;  (* guarded by [m] *)
}

type 'a deferred = {
  mutable thunk : (unit -> 'a) option;
      (* single-owner: no lock needed; [None] = consumed *)
}

type 'a future =
  | Deferred of 'a deferred
  | Queued of { pool : pool; cell : 'a cell; mutable consumed : bool }
  | Poisoned of exn

let max_domains = 64
let blocking = Blocking

let c_submit = Counters.create "loader_pool.submits"
let c_stolen = Counters.create "loader_pool.steals"
let c_poisoned = Counters.create "loader_pool.poisoned"

(* ------------------------------------------------------------------ *)
(* The domains.                                                        *)

(* Jobs are wrapped by [submit] and never raise. *)
let worker_loop p () =
  let rec next () =
    Mutex.lock p.mutex;
    let rec take () =
      match Queue.take_opt p.queue with
      | Some job ->
          Mutex.unlock p.mutex;
          Some job
      | None ->
          if p.stopping then begin
            Mutex.unlock p.mutex;
            None
          end
          else begin
            Condition.wait p.work_ready p.mutex;
            take ()
          end
    in
    match take () with
    | None -> ()
    | Some job ->
        job ();
        next ()
  in
  next ()

(* Dequeue one pending job, if any, and run it on the calling domain:
   how an awaiting caller makes progress instead of idling. *)
let try_run_one p =
  Mutex.lock p.mutex;
  let job = Queue.take_opt p.queue in
  Mutex.unlock p.mutex;
  match job with
  | Some job ->
      job ();
      true
  | None -> false

let stopped p =
  Mutex.lock p.mutex;
  let s = p.terminated in
  Mutex.unlock p.mutex;
  s

(* Workers drain the queue before exiting, so no queued job is
   abandoned. *)
let shutdown p =
  Mutex.lock p.mutex;
  p.stopping <- true;
  Condition.broadcast p.work_ready;
  Mutex.unlock p.mutex;
  Array.iter Domain.join p.workers;
  p.workers <- [||];
  Mutex.lock p.mutex;
  p.terminated <- true;
  Mutex.unlock p.mutex

let with_pool ~domains f =
  if domains < 1 || domains > max_domains then
    invalid_arg
      (Printf.sprintf "Loader_pool.with_pool: domains must be in [1, %d]"
         max_domains);
  if domains = 1 then f Blocking
  else begin
    let p =
      {
        size = domains;
        workers = [||];
        queue = Queue.create ();
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        stopping = false;
        terminated = false;
        pending = Atomic.make 0;
      }
    in
    p.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (worker_loop p));
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f (Pool p))
  end

(* ------------------------------------------------------------------ *)
(* Futures.                                                            *)

let domains = function Blocking -> 1 | Pool p -> p.size
let concurrent t = domains t > 1

let pending = function
  | Blocking -> 0
  | Pool p -> Atomic.get p.pending

let shutdown_error () =
  Xpest_error.Error (Xpest_error.Overloaded "loader pool is shut down")

let submit t f =
  match t with
  | Blocking -> Deferred { thunk = Some f }
  | Pool p ->
      let cell = { m = Mutex.create (); cond = Condition.create (); state = Pending } in
      let job () =
        let st = try Done (f ()) with e -> Raised e in
        Mutex.lock cell.m;
        cell.state <- st;
        Condition.broadcast cell.cond;
        Mutex.unlock cell.m;
        Atomic.decr p.pending
      in
      Mutex.lock p.mutex;
      if p.stopping then begin
        (* the pool refuses the job: it is never queued *)
        Mutex.unlock p.mutex;
        Counters.incr c_poisoned;
        Poisoned (shutdown_error ())
      end
      else begin
        Atomic.incr p.pending;
        Queue.add job p.queue;
        Condition.signal p.work_ready;
        Mutex.unlock p.mutex;
        Counters.incr c_submit;
        Queued { pool = p; cell; consumed = false }
      end

let of_outcome = function
  | Done v -> v
  | Raised e -> raise e
  | Pending -> assert false

let consumed_error () =
  Xpest_error.Error
    (Xpest_error.Internal
       "Loader_pool.await: future already consumed (await is single-shot)")

let await fut =
  match fut with
  | Poisoned e -> raise e
  | Deferred d -> (
      match d.thunk with
      | None -> raise (consumed_error ())
      | Some f ->
          (* the single await runs the load, right here, right now —
             the exact moment the sequential path would have; whatever
             [f] raises propagates as-is *)
          d.thunk <- None;
          f ())
  | Queued q ->
      if q.consumed then raise (consumed_error ());
      let cell = q.cell in
      let pending () =
        Mutex.lock cell.m;
        let p = match cell.state with Pending -> true | _ -> false in
        Mutex.unlock cell.m;
        p
      in
      let rec help () =
        if pending () then
          if try_run_one q.pool then begin
            Counters.incr c_stolen;
            help ()
          end
          else if stopped q.pool then begin
            (* workers joined and the queue is dry: nothing can ever
               complete this future.  Shutdown drains the queue, so
               this is unreachable unless a job was lost — turn that
               would-be hang into a typed error. *)
            if pending () then raise (shutdown_error ())
          end
          else begin
            (* queue empty: the job is in flight on another domain *)
            Mutex.lock cell.m;
            while (match cell.state with Pending -> true | _ -> false) do
              Condition.wait cell.cond cell.m
            done;
            Mutex.unlock cell.m
          end
      in
      help ();
      q.consumed <- true;
      of_outcome cell.state
