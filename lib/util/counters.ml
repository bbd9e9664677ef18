(* Process-wide named counters and wall-clock timers.

   Instrumentation sites create their counters once at module
   initialization and bump them unconditionally cheaply: a bump is a
   single flag test plus an atomic fetch-and-add, so leaving the
   counters disabled (the default) costs one predictable branch per
   site.  The harness enables them around a run and reads a snapshot
   after.

   Domain safety: counts are [Atomic.t]s and timers accumulate under a
   per-timer mutex, so increments racing in from the catalog's loader
   domains (a load's timer, decode counters) are never lost or torn.
   The registries themselves are only mutated by
   [create]/[create_timer], which run at module initialization —
   before any loader domain exists. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type t = { cname : string; count : int Atomic.t }

type timer = {
  tname : string;
  tlock : Mutex.t;
  mutable calls : int;  (* guarded by [tlock] *)
  mutable seconds : float;  (* guarded by [tlock] *)
}

(* Registries, in creation order; snapshots sort by name. *)
let all_counters : t list ref = ref []
let all_timers : timer list ref = ref []

let create name =
  let c = { cname = name; count = Atomic.make 0 } in
  all_counters := c :: !all_counters;
  c

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.count 1)
let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.count n)
let name c = c.cname
let value c = Atomic.get c.count

let create_timer name =
  let t = { tname = name; tlock = Mutex.create (); calls = 0; seconds = 0.0 } in
  all_timers := t :: !all_timers;
  t

let record t seconds =
  if Atomic.get enabled_flag then begin
    Mutex.lock t.tlock;
    t.calls <- t.calls + 1;
    t.seconds <- t.seconds +. seconds;
    Mutex.unlock t.tlock
  end

let time t f =
  if Atomic.get enabled_flag then begin
    let start = Unix.gettimeofday () in
    let finish () = record t (Unix.gettimeofday () -. start) in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
  else f ()

let timer_name t = t.tname
let timer_calls t = t.calls
let timer_seconds t = t.seconds

let reset () =
  List.iter (fun c -> Atomic.set c.count 0) !all_counters;
  List.iter
    (fun t ->
      Mutex.lock t.tlock;
      t.calls <- 0;
      t.seconds <- 0.0;
      Mutex.unlock t.tlock)
    !all_timers

(* Snapshots capture every registered counter (zeroes included) so a
   later diff can attribute increments to the work done in between.
   Counters are process-global: the diff is only meaningful when the
   measured work ran sequentially between the two snapshots.  Both
   snapshots list the registry in its order, and [create] only ever
   prepends, so a later snapshot is the earlier one's counters behind
   those created in between: the diff walks the two in lockstep. *)
type snapshot = (string * int) list

let snapshot () = List.map (fun c -> (c.cname, Atomic.get c.count)) !all_counters

let delta_between before after =
  let keep name d acc = if d <> 0 then (name, d) :: acc else acc in
  let rec walk acc before after =
    match (before, after) with
    | (_, v_before) :: before, (name, v_after) :: after ->
        walk (keep name (v_after - v_before) acc) before after
    | _, [] | [], _ -> acc
  in
  (* counters created in between head [after]; a [before] taken after
     [after] heads it the same way, and its extra counters are in no
     diff *)
  let rec created acc extra after =
    match after with
    | (name, v) :: rest when extra > 0 -> created (keep name v acc) (extra - 1) rest
    | _ -> (acc, after)
  in
  let rec drop n l = match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l in
  let extra = List.length after - List.length before in
  let acc, after = created [] extra after in
  walk acc (drop (-extra) before) after |> List.sort compare

let counters () =
  List.filter_map
    (fun c ->
      let v = Atomic.get c.count in
      if v > 0 then Some (c.cname, v) else None)
    !all_counters
  |> List.sort compare

let timers () =
  List.filter_map
    (fun t ->
      if t.calls > 0 then Some (t.tname, t.calls, t.seconds) else None)
    !all_timers
  |> List.sort compare

let with_enabled f =
  let previous = Atomic.get enabled_flag in
  Atomic.set enabled_flag true;
  reset ();
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag previous) f
