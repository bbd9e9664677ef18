(* Admission control for the serving catalog: deadline budgets, load
   shedding, and a circuit breaker on the loader seam.

   Everything here is deliberately *deterministic*: decisions are a
   pure function of the configuration, the catalog's logical clock,
   and the order in which the single-owner commit path consults the
   controller.  No wall time, no live queue depths, no scheduler
   state — so a shed schedule reproduces bit-for-bit at any
   load-domain count, and the differential twins can compare an
   admission-controlled run against an uncontrolled one outcome by
   outcome.

   The cost model mirrors the catalog's logical clock: serving a
   resident key costs 1 tick, a cold load costs [load_cost] (8) modeled
   ticks.  A batch gets [deadline] ticks of budget; a query whose
   modeled cost no longer fits the remaining budget is shed before any
   I/O happens.  [max_queued_loads] bounds the cold loads one batch
   may admit (which also bounds the prefetch fan-in, since the planner
   only prefetches provably-admittable groups).

   The circuit breaker watches the loader seam: [breaker_threshold]
   consecutive load failures — or [breaker_saturation] (4) consecutive
   batches that hit the queue bound — open it.  While open, cold
   loads are shed immediately; after a cooldown measured on the
   logical clock a single half-open probe load is admitted, closing
   the breaker on success and reopening it with a doubled (capped)
   cooldown on failure.  The cooldown constants deliberately mirror
   the per-key quarantine backoff (base 16, cap 256): one mental model
   for both layers, except the breaker guards the loader as a whole
   where quarantine guards one key. *)

module E = Xpest_util.Xpest_error

type config = {
  deadline : int option;
  max_queued_loads : int option;
  breaker_threshold : int option;
}

let load_cost = 8
let breaker_saturation = 4
let breaker_cooldown_base = 16
let breaker_cooldown_max = 256

let unlimited =
  { deadline = None; max_queued_loads = None; breaker_threshold = None }

type breaker_state = Closed | Open of { until : int } | Half_open

type t = {
  config : config;
  (* breaker: survives across batches (and the health file) *)
  mutable breaker : breaker_state;
  mutable failures : int;  (* consecutive loader failures *)
  mutable cooldown : int;  (* next open's cooldown, doubling, capped *)
  mutable breaker_idle : int;
      (* breaker-refused load attempts since the breaker opened.  Shed
         groups never advance the catalog's logical clock, so a
         workload the open breaker sheds entirely would freeze the
         clock and keep the breaker open forever; counting the
         refusals themselves as recovery time breaks that livelock
         while staying a pure function of the decision sequence. *)
  mutable saturated_batches : int;  (* consecutive batches at the queue bound *)
  (* per-batch ledger, reset by [batch_begin] *)
  mutable remaining : int;  (* deadline ticks left in this batch *)
  mutable loads_admitted : int;  (* cold loads admitted this batch *)
  mutable batch_saturated : bool;  (* this batch hit the queue bound *)
  (* lifetime stats *)
  mutable deadline_sheds : int;
  mutable overload_sheds : int;
  mutable breaker_sheds : int;
  mutable breaker_opens : int;
  mutable probes : int;
}

let validate config =
  let nonneg = function Some n when n < 0 -> true | _ -> false in
  if nonneg config.deadline || nonneg config.max_queued_loads then
    invalid_arg "Admission.create: budgets must be >= 0";
  (match config.breaker_threshold with
  | Some n when n < 1 -> invalid_arg "Admission.create: breaker_threshold must be >= 1"
  | _ -> ())

let create config =
  validate config;
  {
    config;
    breaker = Closed;
    failures = 0;
    cooldown = breaker_cooldown_base;
    breaker_idle = 0;
    saturated_batches = 0;
    remaining = max_int;
    loads_admitted = 0;
    batch_saturated = false;
    deadline_sheds = 0;
    overload_sheds = 0;
    breaker_sheds = 0;
    breaker_opens = 0;
    probes = 0;
  }

let active t =
  t.config.deadline <> None
  || t.config.max_queued_loads <> None
  || t.config.breaker_threshold <> None

let breaker_enabled t = t.config.breaker_threshold <> None

let batch_begin t =
  if active t then begin
    t.remaining <- (match t.config.deadline with Some d -> d | None -> max_int);
    t.loads_admitted <- 0;
    t.batch_saturated <- false
  end

let open_breaker t ~clock =
  t.breaker <- Open { until = clock + t.cooldown };
  t.breaker_idle <- 0;
  t.breaker_opens <- t.breaker_opens + 1

type decision = Admit of { probe : bool } | Shed of E.t

let shed t e =
  (match e with
  | E.Deadline_exceeded _ -> t.deadline_sheds <- t.deadline_sheds + 1
  | _ -> ());
  Shed e

let decide t ~clock ~key ~would_load =
  if not (active t) then Admit { probe = false }
  else begin
    let cost = if would_load then load_cost else 1 in
    (* deadline first: a query that no longer fits the batch budget is
       refused outright, breaker state untouched (no probe wasted on a
       query we could not afford anyway) *)
    if cost > t.remaining then
      shed t (E.Deadline_exceeded { key; needed = cost; remaining = t.remaining })
    else if
      (* queue bound: only cold loads occupy the load queue *)
      would_load
      && (match t.config.max_queued_loads with
         | Some m -> t.loads_admitted >= m
         | None -> false)
    then begin
      t.batch_saturated <- true;
      t.overload_sheds <- t.overload_sheds + 1;
      shed t (E.Overloaded (Printf.sprintf "load queue saturated for %s" key))
    end
    else begin
      (* breaker: gates cold loads only — resident keys keep serving
         while the loader seam is suspect *)
      let gate =
        if not (would_load && breaker_enabled t) then `Pass
        else
          match t.breaker with
          | Closed -> `Pass
          | Half_open -> `Refuse
          (* cooldown elapses on the logical clock plus the refusals
             themselves: shed groups don't tick the clock, so without
             the idle term a fully-shed workload could never probe *)
          | Open { until } when clock + t.breaker_idle >= until -> `Probe
          | Open _ -> `Refuse
      in
      match gate with
      | `Refuse ->
          t.breaker_idle <- t.breaker_idle + 1;
          t.breaker_sheds <- t.breaker_sheds + 1;
          shed t
            (E.Overloaded
               (Printf.sprintf "circuit breaker open, load refused for %s" key))
      | (`Pass | `Probe) as gate ->
          let probe = gate = `Probe in
          if probe then begin
            (* cooldown elapsed: this load is the half-open probe *)
            t.breaker <- Half_open;
            t.probes <- t.probes + 1
          end;
          t.remaining <- t.remaining - cost;
          if would_load then t.loads_admitted <- t.loads_admitted + 1;
          Admit { probe }
    end
  end

(* A sketch-tier answer costs what a resident hit costs: one budget
   tick.  It never occupies the load queue and never consults the
   breaker, so the last rung of the degradation ladder can itself
   never be shed — the budget may go (deterministically) negative,
   which only makes later decides refuse sooner. *)
let charge_sketch_answer t =
  if active t then t.remaining <- t.remaining - 1

let note_load_result t ~clock ~ok =
  if active t && breaker_enabled t then
    if ok then begin
      (match t.breaker with
      | Half_open ->
          (* probe succeeded: close and forgive the cooldown *)
          t.breaker <- Closed;
          t.cooldown <- breaker_cooldown_base
      | Closed | Open _ -> ());
      t.failures <- 0
    end
    else begin
      t.failures <- t.failures + 1;
      match t.breaker with
      | Half_open ->
          (* probe failed: reopen, back off harder *)
          t.cooldown <- min (2 * t.cooldown) breaker_cooldown_max;
          open_breaker t ~clock
      | Closed ->
          (match t.config.breaker_threshold with
          | Some k when t.failures >= k -> open_breaker t ~clock
          | Some _ | None -> ())
      | Open _ -> ()
    end

let batch_end t ~clock =
  if active t && breaker_enabled t then begin
    if t.batch_saturated then
      t.saturated_batches <- t.saturated_batches + 1
    else t.saturated_batches <- 0;
    if t.saturated_batches >= breaker_saturation then begin
      (match t.breaker with Closed -> open_breaker t ~clock | Open _ | Half_open -> ());
      t.saturated_batches <- 0
    end
  end

(* Worst-case admissibility for the prefetch planner.  A prefetched
   load whose group is later shed would have consumed keyed-injector
   attempts for a result nobody uses — breaking bit-identity across
   load-domain counts.  So the planner only prefetches groups whose
   admission is *provable* against the worst case of the
   [groups_before] groups ordered ahead of it: each could cost a full
   load, each could occupy a queue slot, and each could fail and push
   the breaker toward its threshold.  Conservative by design — a
   group that is not provable is simply loaded inline at commit (same
   outcomes, no overlap). *)
let provable t ~groups_before =
  if not (active t) then true
  else
    groups_before >= 0
    && t.remaining - (groups_before * load_cost) >= load_cost
    && (match t.config.max_queued_loads with
       | Some m -> t.loads_admitted + groups_before < m
       | None -> true)
    && (match t.config.breaker_threshold with
       | None -> true
       | Some k -> (
           match t.breaker with
           | Closed -> t.failures + groups_before < k
           | Open _ | Half_open -> false))

(* Observability and persistence *)

type breaker_view = {
  state : [ `Closed | `Open | `Half_open ];
  remaining_ticks : int;
  consecutive_failures : int;
  cooldown : int;
}

let breaker t ~clock =
  let state, remaining_ticks =
    match t.breaker with
    | Closed -> (`Closed, 0)
    | Half_open -> (`Half_open, 0)
    | Open { until } -> (`Open, max 0 (until - clock - t.breaker_idle))
  in
  { state; remaining_ticks; consecutive_failures = t.failures; cooldown = t.cooldown }

let restore_breaker t ~clock view =
  t.breaker_idle <- 0;
  (match view.state with
  | `Closed -> t.breaker <- Closed
  | `Half_open -> t.breaker <- Half_open
  | `Open ->
      (* re-anchor on the restoring catalog's clock, the same way
         quarantine deadlines are re-anchored on load *)
      t.breaker <-
        (if view.remaining_ticks > 0 then Open { until = clock + view.remaining_ticks }
         else Open { until = clock }));
  t.failures <- max 0 view.consecutive_failures;
  t.cooldown <-
    min breaker_cooldown_max (max breaker_cooldown_base view.cooldown)

type stats = {
  s_deadline_sheds : int;
  s_overload_sheds : int;
  s_breaker_sheds : int;
  s_breaker_opens : int;
  s_probes : int;
}

let stats t =
  {
    s_deadline_sheds = t.deadline_sheds;
    s_overload_sheds = t.overload_sheds;
    s_breaker_sheds = t.breaker_sheds;
    s_breaker_opens = t.breaker_opens;
    s_probes = t.probes;
  }

let total_sheds s = s.s_deadline_sheds + s.s_overload_sheds + s.s_breaker_sheds
