(* The performance ledger: one closed-loop client drives a named
   workload through the library's public entry points and prints every
   end-to-end metric (untraced run) or every per-layer metric (traced
   run) as the last line of standard output, as one JSON object.

     ledger.exe --workload xmark-cold --seed 1 --seconds 20 --trace 0
     ledger.exe --smoke          # tiny sizes, every workload, both modes

   The metric names and units are the ones BENCHMARK.json declares
   ([--benchmark]); a run whose metrics differ from them fails.

   Steadiness by construction: a run sets up once, then times
   identical passes of one request schedule, each in a measuring
   process of its own, for about [--seconds].  Throughput is the
   median over passes; latency percentiles pool the per-request
   samples of all passes.  Which keys are asked, in which order, and
   which queries each key asks in a pass, are fixed; the seed only
   shuffles a key's queries over its turns, so loads, hits and
   evictions are the same for every seed.  Counts
   (loads, joins, GC collections, allocation) are per pass, and every
   pass starts from the same state, so they repeat exactly.  Every
   time is normalised by a fixed reference kernel timed next to the
   library (module [Speed]), because a shared host's speed for this
   kind of code moves by up to 2x within minutes.

   Tracing never touches lib/: spans are recorded here, around the
   calls this file makes into each module, and the layers inside a
   call are read from the library's own timers ([Counters.timers])
   and a timing [Fault.Io.t].  Traced and untraced passes alternate
   within a traced run, so tracing overhead compares like with like. *)

module Registry = Xpest_datasets.Registry
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Sketch = Xpest_synopsis.Sketch
module Plan = Xpest_plan.Plan
module Cache_config = Xpest_plan.Cache_config
module Estimator = Xpest_estimator.Estimator
module Catalog = Xpest_catalog.Catalog
module Pipeline = Xpest_catalog.Pipeline
module Counters = Xpest_util.Counters
module Fault = Xpest_util.Fault
module Prng = Xpest_util.Prng
module Pattern = Xpest_xpath.Pattern
module Workload = Xpest_workload.Workload

(* Counters' timers read this clock too, so spans and timer deltas
   nest consistently. *)
let now = Unix.gettimeofday

exception Check of string

let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check s)) fmt

(* ------------------------------------------------------------------ *)
(* The declared metrics: BENCHMARK.json's [end_to_end] and [per_layer]
   lists, read with a JSON reader just large enough for that file.   *)

module Json = struct
  type t = Obj of (string * t) list | Arr of t list | Str of string | Num of float | Lit of string

  let parse s =
    let n = String.length s and i = ref 0 in
    let fail () = raise (Check (Printf.sprintf "BENCHMARK.json: malformed JSON at byte %d" !i)) in
    let rec skip () =
      if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; skip ())
    in
    let expect c = skip (); if !i < n && s.[!i] = c then incr i else fail () in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      while !i < n && s.[!i] <> '"' do
        if s.[!i] = '\\' then incr i;
        if !i < n then Buffer.add_char b s.[!i];
        incr i
      done;
      expect '"';
      Buffer.contents b
    in
    let rec items close item =
      skip ();
      if !i < n && s.[!i] = close then (incr i; [])
      else
        let x = item () in
        skip ();
        if !i < n && s.[!i] = ',' then (incr i; x :: items close item)
        else (expect close; [ x ])
    in
    let rec value () =
      skip ();
      if !i >= n then fail ();
      match s.[!i] with
      | '{' -> incr i; Obj (items '}' (fun () -> let k = str () in expect ':'; (k, value ())))
      | '[' -> incr i; Arr (items ']' value)
      | '"' -> Str (str ())
      | _ ->
          let j = !i in
          while !i < n && not (String.contains " \t\r\n,]}" s.[!i]) do incr i done;
          let tok = String.sub s j (!i - j) in
          (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
    in
    let v = value () in
    skip ();
    if !i <> n then fail ();
    v

  let field k = function
    | Obj kvs -> (match List.assoc_opt k kvs with Some v -> v | None -> raise (Check ("BENCHMARK.json: no " ^ k)))
    | _ -> raise (Check ("BENCHMARK.json: no object holding " ^ k))

  let str = function Str s -> s | _ -> raise (Check "BENCHMARK.json: expected a string")
end

(* [(end_to_end, per_layer)], each a list of (name, unit). *)
let declared_metrics path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let bench = Json.parse text in
  let metrics key =
    match Json.field key bench with
    | Json.Arr ms -> List.map (fun m -> (Json.str (Json.field "name" m), Json.str (Json.field "unit" m))) ms
    | _ -> raise (Check ("BENCHMARK.json: " ^ key ^ " is not a list"))
  in
  (metrics "end_to_end", metrics "per_layer")

(* ------------------------------------------------------------------ *)
(* Small statistics.                                                   *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Quartiles by the exclusive method of Python's
   [statistics.quantiles(xs, n=4)], the rule bounds are derived by. *)
let quartiles xs =
  let a = sorted_copy xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* ------------------------------------------------------------------ *)
(* Span recording.  Spans live in growable parallel arrays and are
   written out when the run ends.  Kinds: [call] wraps a call this
   file makes; [derived] is a layer inside a call whose duration comes
   from a library timer (or the timing Io), laid out from its parent's
   start; [shadow] re-runs a pure public function the call runs
   internally, on the same input, outside the request tree. *)

module Trace = struct
  type t = {
    mutable n : int;
    mutable name : string array;
    mutable kind : string array;
    mutable parent : int array;
    mutable rid : int array;
    mutable start : float array;
    mutable stop : float array;
  }

  let create () =
    let cap = 1024 in
    {
      n = 0;
      name = Array.make cap "";
      kind = Array.make cap "";
      parent = Array.make cap (-1);
      rid = Array.make cap 0;
      start = Array.make cap 0.0;
      stop = Array.make cap 0.0;
    }

  let grow t =
    let cap = 2 * Array.length t.name in
    let ext a d =
      let b = Array.make cap d in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- ext t.name "";
    t.kind <- ext t.kind "";
    t.parent <- ext t.parent (-1);
    t.rid <- ext t.rid 0;
    t.start <- ext t.start 0.0;
    t.stop <- ext t.stop 0.0

  let add t ~name ~kind ~parent ~rid start stop =
    if t.n = Array.length t.name then grow t;
    let id = t.n in
    t.name.(id) <- name;
    t.kind.(id) <- kind;
    t.parent.(id) <- parent;
    t.rid.(id) <- rid;
    t.start.(id) <- start;
    t.stop.(id) <- stop;
    t.n <- id + 1;
    id

  (* A layer read from a timer delta, laid out from [start]; layers
     that did no work in this call leave no span. *)
  let derived t ~name ~parent ~rid start seconds =
    if seconds > 0.0 then ignore (add t ~name ~kind:"derived" ~parent ~rid start (start +. seconds))

  let set_stop t id stop = t.stop.(id) <- stop
  let dur t i = t.stop.(i) -. t.start.(i)

  (* Each span's self time: its duration minus its children's, never
     below zero. *)
  let self_times t =
    let self = Array.init t.n (dur t) in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then self.(p) <- self.(p) -. dur t i
    done;
    Array.map (Float.max 0.0) self

  (* Per-name (calls, total duration, total self time) of the spans
     from index [from] on. *)
  let layers t ~from =
    let self = self_times t in
    let tbl = Hashtbl.create 16 in
    for i = from to t.n - 1 do
      let c, d, s =
        Option.value (Hashtbl.find_opt tbl t.name.(i)) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl t.name.(i) (c + 1, d +. dur t i, s +. self.(i))
    done;
    tbl

  (* Summed request durations against the summed self times of every
     span in the request trees from index [from] on (shadow spans sit
     outside them).  Self times are defined to add up, so this is a
     check on the spans, not a coverage measure: the two differ only
     when a child outlasts its parent, as when a library timer double
     counts or overlaps another, and the parent's self time clips at
     zero. *)
  let accounting t ~from =
    let self = self_times t in
    let total = ref 0.0 and sum = ref 0.0 in
    for i = from to t.n - 1 do
      if t.name.(i) = "request" then total := !total +. dur t i;
      if t.kind.(i) <> "shadow" then sum := !sum +. self.(i)
    done;
    (!total, !sum)

  let write t path =
    let t0 = if t.n = 0 then 0.0 else t.start.(0) in
    let oc = open_out path in
    output_string oc "id\tparent\trequest\tname\tkind\tstart_us\tend_us\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.3f\t%.3f\n" i t.parent.(i)
        t.rid.(i) t.name.(i) t.kind.(i)
        ((t.start.(i) -. t0) *. 1e6)
        ((t.stop.(i) -. t0) *. 1e6)
    done;
    close_out oc
end

let timer name =
  match List.find_opt (fun (n, _, _) -> n = name) (Counters.timers ()) with
  | Some (_, calls, secs) -> (calls, secs)
  | None -> (0, 0.0)

let timer_s name = snd (timer name)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Counters.counters ()))

(* Reads through the catalog's storage seam, timed only while tracing. *)
let tracing = ref false
let read_seconds = ref 0.0

let timing_io =
  {
    Fault.Io.default with
    read_file =
      (fun path ->
        if !tracing then begin
          let t0 = now () in
          let data = Fault.Io.default.read_file path in
          read_seconds := !read_seconds +. (now () -. t0);
          data
        end
        else Fault.Io.default.read_file path);
  }

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)

type kind = Xmark_cold | Serve_hot | Serve_churn

let kind_of_string = function
  | "xmark-cold" -> Some Xmark_cold
  | "serve-hot" -> Some Serve_hot
  | "serve-churn" -> Some Serve_churn
  | _ -> None

let kind_name = function
  | Xmark_cold -> "xmark-cold"
  | Serve_hot -> "serve-hot"
  | Serve_churn -> "serve-churn"

type sizes = {
  scale : float;  (** dataset scale of every generated document *)
  attempts : int;  (** simple and branch generation attempts per dataset *)
  pass_requests : int;  (** serve workloads: requests per pass *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  heap_every : int;  (** the heap probe samples every [heap_every]th request *)
  min_samples : int;
      (** latency samples a run takes at least, so that p99 has ten
          samples beyond it *)
}

let sizes ~smoke kind =
  match (smoke, kind) with
  | false, Xmark_cold ->
      { scale = 0.05; attempts = 800; pass_requests = 0; setups = 9; heap_every = 25; min_samples = 1000 }
  | false, Serve_hot ->
      { scale = 0.05; attempts = 100; pass_requests = 800; setups = 3; heap_every = 20; min_samples = 1000 }
  | false, Serve_churn ->
      { scale = 0.05; attempts = 100; pass_requests = 100; setups = 3; heap_every = 5; min_samples = 1000 }
  | true, _ ->
      { scale = 0.01; attempts = 20; pass_requests = 6; setups = 1; heap_every = 2; min_samples = 0 }

(* Catalog key order is the Zipf rank order: fixed, so the seed never
   moves which key is hottest. *)
let datasets = [| Registry.Ssplays; Registry.Dblp; Registry.Xmark |]

(* Serve-churn's resident byte budget as a share of all wire bytes. *)
let churn_budget_share = 1.0 /. 3.0

(* A dataset's query pool.  Its document is kept apart, so nothing the
   timed passes hold keeps it alive. *)
type pool = {
  ds : Registry.name;
  strings : string array;  (** the queries as a client sends them *)
  actual : float array;  (** exact selectivities (Truth) *)
}

(* Pools come from the paper's workload recipe at its fixed generation
   seed, so every run seed sees the same queries and the same truths.
   A run seed that also regenerated the pools would move qps and
   mean_rel_error by more than any bound worth having. *)
let make_pool ~sizes ds =
  let doc = Registry.generate ~scale:sizes.scale ds in
  let config =
    {
      Workload.default_config with
      num_simple = sizes.attempts;
      num_branch = sizes.attempts;
    }
  in
  let items = Array.of_list (Workload.all_items (Workload.generate ~config doc)) in
  let strings = Array.map (fun (it : Workload.item) -> Pattern.to_string it.pattern) items in
  Array.iteri
    (fun i s ->
      check
        (Pattern.equal (Pattern.of_string s) items.(i).pattern)
        "query %S does not parse back to its pattern" s)
    strings;
  ( doc,
    {
      ds;
      strings;
      actual = Array.map (fun (it : Workload.item) -> float_of_int it.actual) items;
    } )

(* Zipf(1) request counts per rank summing to [n], rounded by largest
   remainder. *)
let zipf_counts nkeys n =
  let w = Array.init nkeys (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> x /. total *. float_of_int n) w in
  let counts = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let by_remainder = Array.init nkeys Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (exact.(b) -. Float.floor exact.(b)) (exact.(a) -. Float.floor exact.(a)))
    by_remainder;
  let short = n - Array.fold_left ( + ) 0 counts in
  for i = 0 to short - 1 do
    let k = by_remainder.(i mod nkeys) in
    counts.(k) <- counts.(k) + 1
  done;
  counts

(* The key of each turn: [counts.(k)] turns of key [k], each turn going
   to the key furthest behind its share so far (ties to the hotter
   key).  Every stretch of the sequence is close to the Zipf mix, and
   the sequence takes nothing from the seed, so the loads, hits and
   evictions it causes are the same for every seed. *)
let interleave counts =
  let total = Array.fold_left ( + ) 0 counts in
  let given = Array.make (Array.length counts) 0 in
  Array.init total (fun i ->
      let behind k = (float_of_int counts.(k) *. float_of_int (i + 1) /. float_of_int total) -. float_of_int given.(k) in
      let best = ref 0 in
      Array.iteri (fun k _ -> if behind k > behind !best then best := k) counts;
      given.(!best) <- given.(!best) + 1;
      !best)

let rel_error ~actual est = Float.abs (est -. actual) /. actual

(* ------------------------------------------------------------------ *)
(* Measurement state shared by every workload.                         *)

(* A measured value: (name, unit, value, per-pass (q1, median, q3)
   when it has one). *)
type metric = string * string * float * (float * float * float) option

type run = {
  trace : Trace.t;
  mutable rid : int;
  mutable untraced_qps : float list;
  mutable traced_qps : float list;
  mutable pass_p50 : float list;
  mutable pass_p99 : float list;
  mutable raw_qps : float list;  (** untraced passes' qps before normalising *)
  mutable chunk_us : float list;  (** every timed pass's mean kernel chunk, us *)
  mutable latencies : float array list;  (** untraced passes' request latencies, us *)
  mutable heap_peak_words : int;
  mutable attempted : int;
  mutable failed : int;
  mutable untraced_queries : int;  (** the next three: over the untraced pass *)
  mutable alloc_words : float;
  mutable major_collections : int;
  mutable shadows : (unit -> unit) list;
      (** shadow work the traced pass under way has queued, newest first *)
  mutable layer_passes : (string * string * float) list list;
      (** per traced pass, its per-layer (name, unit, value)s *)
}

let new_run () =
  {
    trace = Trace.create ();
    rid = 0;
    untraced_qps = [];
    traced_qps = [];
    pass_p50 = [];
    pass_p99 = [];
    raw_qps = [];
    chunk_us = [];
    latencies = [];
    heap_peak_words = 0;
    attempted = 0;
    failed = 0;
    untraced_queries = 0;
    alloc_words = 0.0;
    major_collections = 0;
    shadows = [];
    layer_passes = [];
  }

(* Per-pass progress lines; the smoke test keeps quiet. *)
let verbose = ref true

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Host speed.  On a shared host the speed this process gets for
   allocation-heavy OCaml code moves by up to 2x, from one second to
   the next and over minutes, as other tenants load the same cores'
   caches and ports; a register-only loop moves by 3% meanwhile.  No
   run length averages that out.  So the ledger times a fixed
   reference kernel next to the library and reports every time as it
   would read on a host where one chunk of the kernel takes
   [reference_chunk_s]: a time [t] measured while the chunks took [k]
   is reported as [t *. reference_chunk_s /. k].

   The kernel does the kind of work the library does (hash-table
   probes, short lists, an array sort, all allocating) and uses
   nothing of the library, so a change to the library moves the
   figures in full.  Side by side in one process, the kernel's chunk
   time tracked xmark-cold's, serve-hot's and serve-churn's pass times
   with an exponent of 0.8-1.0: normalised, the per-pass spread of qps
   fell from 0.11-0.22 to 0.015-0.05.                                *)

module Speed = struct
  let table = Hashtbl.create 4096
  let () = for i = 0 to 4095 do Hashtbl.replace table (i * 7919) (string_of_int i) done

  (* An LCG state carried from chunk to chunk, so no two chunks probe
     the same keys; every measuring process inherits the same state. *)
  let state = ref 1

  (* One chunk of the kernel, fixed work; returns its seconds. *)
  let chunk () =
    let t0 = now () in
    let acc = ref 0 in
    for _ = 1 to 3 do
      let st = ref !state in
      let l = ref [] in
      for _ = 1 to 64 do
        st := ((!st * 1103515245) + 12345) land 0x3fffffff;
        match Hashtbl.find_opt table (!st mod 4096 * 7919) with
        | Some s -> l := (String.length s + (!st land 7)) :: !l
        | None -> ()
      done;
      let a = Array.of_list !l in
      Array.sort compare a;
      acc := !acc + a.(0) + List.length (List.filter (fun x -> x land 1 = 0) !l);
      state := !st
    done;
    ignore (Sys.opaque_identity !acc);
    now () -. t0

  (* Any fixed value would do.  This one is near the fastest chunk
     times seen on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, so there
     the normalised figures read close to the raw ones when the host
     is quiet.  Changing it rescales every time figure. *)
  let reference_chunk_s = 50e-6

  (* Words the chunks allocated, so the pass's allocation figure can
     leave them out; the kernel allocates in the minor heap only. *)
  let words = ref 0.0

  let sample () =
    let w0 = Gc.minor_words () in
    let s = chunk () in
    words := !words +. (Gc.minor_words () -. w0);
    s

  (* The mean chunk time over [n] chunks. *)
  let meter n =
    let total = ref 0.0 in
    for _ = 1 to n do total := !total +. sample () done;
    !total /. float_of_int n

  (* Each request's own factor, [reference_chunk_s] over the mean of
     the chunks within [half] requests of it. *)
  let local_factors chunks ~half =
    let n = Array.length chunks in
    let prefix = Array.make (n + 1) 0.0 in
    Array.iteri (fun i c -> prefix.(i + 1) <- prefix.(i) +. c) chunks;
    Array.init n (fun i ->
        let lo = max 0 (i - half) and hi = min n (i + half + 1) in
        reference_chunk_s /. ((prefix.(hi) -. prefix.(lo)) /. float_of_int (hi - lo)))
end

(* The layer metrics of one traced pass, from its spans (index [from]
   on) and from the counters and timers, which were reset when the
   pass began.  Times are per query, per request, per load, or per
   pass, as their names say. *)
let pass_layers run ~from ~queries ~requests =
  let tbl = Trace.layers run.trace ~from in
  let self name = match Hashtbl.find_opt tbl name with Some (_, _, s) -> s | None -> 0.0 in
  let dur name = match Hashtbl.find_opt tbl name with Some (_, d, _) -> d | None -> 0.0 in
  let c name = float_of_int (counter name) in
  let hit_rate cache =
    let h = c ("path_join." ^ cache ^ ".hit") in
    ratio h (h +. c ("path_join." ^ cache ^ ".miss"))
  in
  let queries = float_of_int queries and requests = float_of_int requests in
  let loads = float_of_int (fst (timer "catalog.summary.load")) in
  let total, selfsum = Trace.accounting run.trace ~from in
  [
    ("xpath.parse_us", "us", ratio (self "xpath.parse") queries *. 1e6);
    ("plan.compile_us", "us", ratio (dur "plan.compile") queries *. 1e6);
    ("plan.cache_hit_rate", "ratio", 1.0 -. ratio (c "estimator.plan_cache.miss") queries);
    ("join.self_ms", "ms", self "path_join.run_uncached" *. 1e3);
    ("join.calls", "count", float_of_int (fst (timer "path_join.run_uncached")));
    ( "join.rows_pruned",
      "count",
      c "path_join.pruned.chain_rows" +. c "path_join.pruned.anchor_rows" +. c "path_join.pruned.fixpoint_rows" );
    ("join.chain_cache.hit_rate", "ratio", hit_rate "chain_cache");
    ("join.chain_cache.evictions", "count", c "path_join.chain_cache.evict");
    ("join.rel_cache.hit_rate", "ratio", hit_rate "rel_cache");
    ("join.run_cache.hit_rate", "ratio", hit_rate "run_cache");
    ("estimator.self_ms", "ms", self "estimator.estimate" *. 1e3);
    ("load.read_us", "us", ratio (dur "io.read") loads *. 1e6);
    ("load.total_us", "us", ratio (dur "catalog.summary.load") loads *. 1e6);
    ("load.decode_us", "us", ratio (self "catalog.summary.load") loads *. 1e6);
    ("catalog.route_us", "us", ratio (dur "catalog.route") requests *. 1e6);
    ("catalog.self_us", "us", ratio (self "catalog.estimate_batch_r") requests *. 1e6);
    ("trace.unaccounted_share", "ratio", ratio (Float.abs (total -. selfsum)) total);
    ("trace.spans", "count", float_of_int (run.trace.Trace.n - from));
  ]

type pass =
  | Untraced  (** timed, counters off: the end-to-end figures *)
  | Traced  (** timed, spans and counters on: the per-layer figures *)
  | Heap_probe
      (** untimed replay, a full major GC every [heap_every] requests:
          the largest live heap over the schedule *)

(* One pass of [n] requests.  [request i ~traced] serves request [i]
   and returns its query count; the latency window is the request
   alone, the pass wall includes the loop's bookkeeping.  A chunk of
   the reference kernel follows every request, outside both; the
   pass's figures are normalised by the chunks' mean time (qps, layer
   times) or by the chunks near each request (latency).  A traced
   pass runs its queued shadow work after its timed window, then
   records its layers, [catalog_layers ()] among them. *)
let run_pass run pass ~heap_every ~n ~catalog_layers request =
  Gc.compact ();
  let traced = pass = Traced in
  let from = run.trace.Trace.n in
  if traced then Counters.reset ();
  tracing := traced;
  Counters.set_enabled traced;
  if pass = Heap_probe then
    for i = 0 to n - 1 do
      ignore (request i ~traced);
      if (i + 1) mod heap_every = 0 || i = n - 1 then begin
        Gc.full_major ();
        run.heap_peak_words <- max run.heap_peak_words (Gc.quick_stat ()).Gc.live_words
      end
    done
  else begin
    let lat = Array.make n 0.0 in
    let chunks = Array.make n 0.0 in
    let queries = ref 0 in
    let words0 = allocated_words () in
    let kernel_words0 = !Speed.words in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let cpu0 = Sys.time () in
    let t0 = now () in
    for i = 0 to n - 1 do
      let s = now () in
      queries := !queries + request i ~traced;
      lat.(i) <- (now () -. s) *. 1e6;
      chunks.(i) <- Speed.sample ()
    done;
    let kernel = Array.fold_left ( +. ) 0.0 chunks in
    let wall = now () -. t0 -. kernel in
    let cpu = Sys.time () -. cpu0 -. kernel in
    let words = allocated_words () -. words0 -. (!Speed.words -. kernel_words0) in
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
    tracing := false;
    Counters.set_enabled false;
    List.iter (fun shadow -> shadow ()) (List.rev run.shadows);
    run.shadows <- [];
    let chunk = kernel /. float_of_int n in
    let factor = Speed.reference_chunk_s /. chunk in
    let raw_qps = float_of_int !queries /. wall in
    let qps = raw_qps /. factor in
    if !verbose then
      Printf.printf "  %-8s pass %10.2f qps (raw %10.2f)  chunk %6.1f us  wall %.3f s  cpu %.3f s  majors %d\n%!"
        (if traced then "traced" else "untraced")
        qps raw_qps (chunk *. 1e6) wall cpu majors;
    run.chunk_us <- (chunk *. 1e6) :: run.chunk_us;
    if traced then begin
      let normalise (name, unit, v) =
        (name, unit, if List.mem unit [ "s"; "ms"; "us" ] then v *. factor else v)
      in
      run.traced_qps <- qps :: run.traced_qps;
      run.layer_passes <-
        (List.map normalise (pass_layers run ~from ~queries:!queries ~requests:n) @ catalog_layers ())
        :: run.layer_passes
    end
    else begin
      let local = Speed.local_factors chunks ~half:8 in
      let lat = Array.mapi (fun i l -> l *. local.(i)) lat in
      let sorted = sorted_copy lat in
      run.untraced_qps <- qps :: run.untraced_qps;
      run.raw_qps <- raw_qps :: run.raw_qps;
      run.pass_p50 <- percentile sorted 0.50 :: run.pass_p50;
      run.pass_p99 <- percentile sorted 0.99 :: run.pass_p99;
      run.latencies <- lat :: run.latencies;
      run.untraced_queries <- !queries;
      run.alloc_words <- words;
      run.major_collections <- majors
    end
  end;
  tracing := false;
  Counters.set_enabled false

type setup_times = {
  collect : float;
  assemble : float;
  encode : float;
  sketch : float;
  open_ : float;
  warm : float;
}

let zero_times = { collect = 0.0; assemble = 0.0; encode = 0.0; sketch = 0.0; open_ = 0.0; warm = 0.0 }

let total_setup t = t.collect +. t.assemble +. t.encode +. t.sketch +. t.open_ +. t.warm

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A set-up step's time, normalised by chunks of the reference kernel
   metered just before and just after it. *)
let timed_setup f =
  let before = Speed.meter 16 in
  let r, s = timed f in
  let after = Speed.meter 16 in
  (r, s *. Speed.reference_chunk_s /. ((before +. after) /. 2.0))

(* Wall time of each phase of the run, printed above the table. *)
let phases = ref []

let phase name f =
  let r, s = timed f in
  phases := (name, s) :: !phases;
  r

(* Set up [k] times, each from a compacted heap; keep the last
   set-up's artifacts (the earlier ones are garbage before the passes
   start) and every set-up's times. *)
let repeat_setup k setup =
  let rec go i times =
    Gc.compact ();
    let r, t = setup () in
    if i = k then (r, List.rev (t :: times)) else go (i + 1) (t :: times)
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* Measuring processes.  On a shared host the physical pages a
   process happens to get move its speed by 10-20% for its whole life,
   while passes within one process agree to a few per cent.  So the
   run sets up once, then forks measuring processes one after another,
   each timing one pass from the same inherited state, until
   [--seconds] is used up, and pools what they measured.  The pass's
   opening full major GC writes the header of every live block, so
   each process copies the whole live heap onto pages of its own.    *)

(* What one measuring process hands back. *)
type measured = {
  run : run;
  answers : float array;  (** xmark-cold: each query's answer, nan if not asked *)
}

(* Run [f] in a child process and return its result; a failed check
   in the child fails the run. *)
let in_child (f : unit -> measured) : measured =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = try Ok (f ()) with Check msg -> Error msg | e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (r : (measured, string) result) [];
      close_out oc;
      flush_all ();
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try (Marshal.from_channel ic : (measured, string) result) with End_of_file -> Error "no result" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match r with Ok m -> m | Error msg -> raise (Check ("measuring process: " ^ msg)))

(* The processes' runs as one: passes and samples pooled, spans
   renumbered after each other, the allocation and GC counts taken
   from the first process, whose untraced pass starts from the same
   state in every run. *)
let merge_runs runs =
  let into = new_run () in
  List.iteri
    (fun c (r : run) ->
      let t = r.trace and base = into.trace.Trace.n in
      for i = 0 to t.Trace.n - 1 do
        let p = t.Trace.parent.(i) in
        ignore
          (Trace.add into.trace ~name:t.Trace.name.(i) ~kind:t.Trace.kind.(i)
             ~parent:(if p < 0 then p else p + base)
             ~rid:(t.Trace.rid.(i) + into.rid) t.Trace.start.(i) t.Trace.stop.(i))
      done;
      into.rid <- into.rid + r.rid;
      into.untraced_qps <- r.untraced_qps @ into.untraced_qps;
      into.traced_qps <- r.traced_qps @ into.traced_qps;
      into.pass_p50 <- r.pass_p50 @ into.pass_p50;
      into.pass_p99 <- r.pass_p99 @ into.pass_p99;
      into.raw_qps <- r.raw_qps @ into.raw_qps;
      into.chunk_us <- r.chunk_us @ into.chunk_us;
      into.latencies <- r.latencies @ into.latencies;
      into.heap_peak_words <- max into.heap_peak_words r.heap_peak_words;
      into.attempted <- into.attempted + r.attempted;
      into.failed <- into.failed + r.failed;
      into.layer_passes <- r.layer_passes @ into.layer_passes;
      if c = 0 then begin
        into.untraced_queries <- r.untraced_queries;
        into.alloc_words <- r.alloc_words;
        into.major_collections <- r.major_collections
      end)
    runs;
  into

(* A workload, once generated and set up: [pass kind] runs a
   measuring process's one pass; [min_passes] untraced passes take at
   least [min_samples] latency samples; [mean_rel_error] scores the
   pooled answers. *)
type workload = {
  times : setup_times list;
  synopsis_bytes : int;
  info : (string * int) list;
  min_passes : int;
  pass : pass -> measured;
  mean_rel_error : float array -> float;
}

let passes_for samples per_pass = max 1 ((samples + per_pass - 1) / per_pass)

(* ------------------------------------------------------------------ *)
(* xmark-cold: a fresh estimator over the v=0 XMark summary per pass;
   a request is one query string, parsed then estimated.             *)

let no_catalog_layers () =
  List.map
    (fun (n, u) -> (n, u, 0.0))
    [
      ("catalog.loads", "count");
      ("catalog.hits", "count");
      ("catalog.evictions", "count");
      ("catalog.load_share", "ratio");
      ("catalog.resident_bytes", "bytes");
    ]

(* One fixed arrival order for the pool.  xmark-cold takes nothing
   from the run seed: it has one key and asks every query, so the seed
   could only reorder the queries, and the order moves the chain
   cache's hits and evictions, i.e. the join work measured. *)
let xmark_order_seed = 7001

let xmark_cold ~sizes =
  let doc, pool = make_pool ~sizes Registry.Xmark in
  let n = Array.length pool.strings in
  let order = Array.init n Fun.id in
  Prng.shuffle (Prng.create xmark_order_seed) order;
  let setup () =
    let base, collect = timed_setup (fun () -> Summary.collect doc) in
    let s, assemble =
      timed_setup (fun () -> Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base)
    in
    (s, { zero_times with collect; assemble })
  in
  let summary, times = phase "set-ups" (fun () -> repeat_setup sizes.setups setup) in
  let pass kind =
    let run = new_run () in
    let answers = Array.make n Float.nan in
    let estimator = Estimator.create summary in
    let tr = run.trace in
    let request r ~traced =
      run.attempted <- run.attempted + 1;
      let i = order.(r) in
      let str = pool.strings.(i) in
      let result =
        if not traced then Estimator.try_estimate estimator (Pattern.of_string str)
        else begin
          let rid = run.rid in
          run.rid <- rid + 1;
          let t0 = now () in
          let rq = Trace.add tr ~name:"request" ~kind:"call" ~parent:(-1) ~rid t0 t0 in
          let p = Pattern.of_string str in
          let t1 = now () in
          ignore (Trace.add tr ~name:"xpath.parse" ~kind:"call" ~parent:rq ~rid t0 t1);
          let j0 = timer_s "path_join.run_uncached" in
          let t2 = now () in
          let r = Estimator.try_estimate estimator p in
          let t3 = now () in
          let j = timer_s "path_join.run_uncached" -. j0 in
          let es = Trace.add tr ~name:"estimator.estimate" ~kind:"call" ~parent:rq ~rid t2 t3 in
          Trace.derived tr ~name:"path_join.run_uncached" ~parent:es ~rid t2 j;
          Trace.set_stop tr rq (now ());
          run.shadows <-
            (fun () ->
              let s = now () in
              ignore (Plan.compile p);
              ignore (Trace.add tr ~name:"plan.compile" ~kind:"shadow" ~parent:(-1) ~rid s (now ())))
            :: run.shadows;
          r
        end
      in
      (match result with Ok v -> answers.(i) <- v | Error _ -> run.failed <- run.failed + 1);
      1
    in
    run_pass run kind ~heap_every:sizes.heap_every ~n
      ~catalog_layers:no_catalog_layers request;
    { run; answers }
  in
  let mean_rel_error answers =
    let errors = Array.mapi (fun i v -> rel_error ~actual:pool.actual.(i) v) answers in
    Array.fold_left ( +. ) 0.0 errors /. float_of_int n
  in
  let bytes = Summary.size_bytes summary in
  {
    times;
    synopsis_bytes = bytes;
    info = [ ("keys", 1); ("queries", n); ("wire_bytes", bytes) ];
    min_passes = passes_for sizes.min_samples n;
    pass;
    mean_rel_error;
  }

(* ------------------------------------------------------------------ *)
(* serve-hot / serve-churn: a file-backed catalog behind
   [Catalog.estimate_batch_r]; a request is one batch of routed query
   strings, parsed then estimated, for Zipf-drawn keys.             *)

let key_of ds v = { Catalog.dataset = String.lowercase_ascii (Registry.to_string ds); variance = v }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let serve ~churn ~sizes ~seed ~dir =
  let docs, pools = Array.split (Array.map (make_pool ~sizes) datasets) in
  let vs = if churn then [| 0.0; 1.0; 2.0; 4.0 |] else [| 0.0; 2.0 |] in
  (* keys in Zipf rank order: {ssplays, dblp, xmark} x variances,
     dataset-major, so the small summaries are the hot ones and the
     large XMark ones the cold tail *)
  let keys =
    Array.concat
      (Array.to_list (Array.mapi (fun d ds -> Array.map (fun v -> (d, key_of ds v)) vs) datasets))
  in
  let nkeys = Array.length keys in
  (* The request schedule, replayed identically by every pass.  Keys
     take their Zipf share of the turns in the fixed [interleave]
     order: one turn is a whole request on serve-churn, one query slot
     of a request on serve-hot.  Which queries a key asks in a pass is
     fixed too: its turns' worth, taken in turn from one fixed shuffle
     of its dataset's pool.  The seed only shuffles which of the key's
     turns asks which of them.  When the seed drew the queries
     themselves, serve-churn's latency moved by about 10% from seed to
     seed, as each cold key asks a tenth of its pool in a pass. *)
  let bsize = if churn then 8 else 32 in
  let turns = interleave (zipf_counts nkeys (sizes.pass_requests * if churn then 1 else bsize)) in
  let slot_key s = if churn then turns.(s / bsize) else turns.(s) in
  let slots = sizes.pass_requests * bsize in
  let asked =
    let fixed = Prng.create 0x5eed and rng = Prng.create (seed lxor 0x5eed) in
    Array.mapi
      (fun k (d, _) ->
        let pool = Array.init (Array.length pools.(d).strings) Fun.id in
        Prng.shuffle fixed pool;
        let n = ref 0 in
        for s = 0 to slots - 1 do
          if slot_key s = k then incr n
        done;
        let a = Array.init !n (fun i -> pool.(i mod Array.length pool)) in
        Prng.shuffle rng a;
        a)
      keys
  in
  let cursor = Array.make nkeys 0 in
  let schedule =
    Array.init sizes.pass_requests (fun r ->
        Array.init bsize (fun j ->
            let k = slot_key ((r * bsize) + j) in
            let q = asked.(k).(cursor.(k)) in
            cursor.(k) <- cursor.(k) + 1;
            (k, q)))
  in
  (* The oracle: a fresh single-summary estimator per key, over every
     (key, query) pair the workload can send.  Served answers are
     checked bit-identical to it, so its error over every pair is the
     catalog's error on this workload, the same for every seed. *)
  let reference =
    let bases = Array.map Summary.collect docs in
    Array.map
      (fun (d, (k : Catalog.key)) ->
        let s = Summary.assemble ~p_variance:k.Catalog.variance ~o_variance:k.Catalog.variance bases.(d) in
        let e = Estimator.create s in
        Array.map (fun q -> Estimator.estimate e (Pattern.of_string q)) pools.(d).strings)
      keys
  in
  let err_sum = ref 0.0 and err_n = ref 0 in
  Array.iteri
    (fun k (d, _) ->
      Array.iteri
        (fun q v ->
          err_sum := !err_sum +. rel_error ~actual:pools.(d).actual.(q) v;
          incr err_n)
        reference.(k))
    keys;
  let mean_err = ratio !err_sum (float_of_int !err_n) in
  let build () =
    rm_rf dir;
    mkdir_p dir;
    let bases, collect =
      timed_setup (fun () -> Array.map Summary.collect docs)
    in
    let summaries, assemble =
      timed_setup (fun () ->
          Array.map
            (fun (d, (k : Catalog.key)) ->
              Summary.assemble ~p_variance:k.Catalog.variance
                ~o_variance:k.Catalog.variance bases.(d))
            keys)
    in
    let manifest, encode =
      timed_setup (fun () ->
          let m = ref Manifest.empty in
          Array.iteri (fun i (_, k) -> m := Catalog.save_entry ~dir !m k summaries.(i)) keys;
          !m)
    in
    let manifest, sketch =
      timed_setup (fun () ->
          let m =
            Array.fold_left
              (fun m (doc, p) ->
                Catalog.save_sketch ~dir m
                  (key_of p.ds 0.0).Catalog.dataset
                  (Sketch.build doc))
              manifest
              (Array.combine docs pools)
          in
          Manifest.save m (Filename.concat dir Catalog.manifest_filename);
          m)
    in
    (manifest, { zero_times with collect; assemble; encode; sketch })
  in
  let wire_bytes manifest =
    List.fold_left (fun acc (e : Manifest.entry) -> acc + e.Manifest.bytes) 0 manifest.Manifest.entries
  in
  let open_catalog manifest =
    let config =
      if churn then
        let budget = int_of_float (float_of_int (wire_bytes manifest) *. churn_budget_share) in
        { Cache_config.default with resident_bytes = Some budget }
      else Cache_config.default
    in
    let cat = Catalog.of_manifest ~config ~io:timing_io ~dir manifest in
    check
      ((Catalog.stats cat).Catalog.sketch_resident = Array.length datasets)
      "catalog opened without its fallback sketches";
    cat
  in
  let serve cat pairs =
    let results = Catalog.estimate_batch_r cat pairs in
    Array.iter
      (function
        | Ok _ -> ()
        | Error e -> raise (Check ("warm-up failed: " ^ Xpest_util.Xpest_error.to_string e)))
      results
  in
  let warm cat =
    if churn then
      (* every key once, coldest rank first, so the budget ends up
         holding the hottest keys, as in steady serving *)
      let rev = Array.of_list (List.rev (Array.to_list keys)) in
      serve cat (Array.map (fun (d, k) -> (k, Pattern.of_string pools.(d).strings.(0))) rev)
    else
      (* every (key, query) pair, one batch per key *)
      Array.iter
        (fun (d, k) -> serve cat (Array.map (fun s -> (k, Pattern.of_string s)) pools.(d).strings))
        keys
  in
  let setup () =
    let manifest, times = build () in
    let cat, open_ = timed_setup (fun () -> open_catalog manifest) in
    let (), warm_s = timed_setup (fun () -> warm cat) in
    ((manifest, cat), { times with open_; warm = warm_s })
  in
  let (manifest, cat), times = phase "set-ups" (fun () -> repeat_setup sizes.setups setup) in
  let pass kind =
    let run = new_run () in
    (* serve-churn's passes start from a freshly opened catalog, warmed
       untimed; serve-hot's catalog stays fully resident and warm *)
    let cat =
      if churn then begin
        let c = open_catalog manifest in
        warm c;
        c
      end
      else cat
    in
    let results = Array.make (Array.length schedule) [||] in
    let tr = run.trace in
    let request i ~traced =
      let batch = schedule.(i) in
      let out =
        if not traced then
          Catalog.estimate_batch_r cat
            (Array.map (fun (k, q) -> (snd keys.(k), Pattern.of_string pools.(fst keys.(k)).strings.(q))) batch)
        else begin
          let rid = run.rid in
          run.rid <- rid + 1;
          let t0 = now () in
          let rq = Trace.add tr ~name:"request" ~kind:"call" ~parent:(-1) ~rid t0 t0 in
          let pairs =
            Array.map (fun (k, q) -> (snd keys.(k), Pattern.of_string pools.(fst keys.(k)).strings.(q))) batch
          in
          let t1 = now () in
          ignore (Trace.add tr ~name:"xpath.parse" ~kind:"call" ~parent:rq ~rid t0 t1);
          let l0 = timer_s "catalog.summary.load" in
          let e0 = timer_s "estimator.estimate" in
          let j0 = timer_s "path_join.run_uncached" in
          let r0 = !read_seconds in
          let t2 = now () in
          let out = Catalog.estimate_batch_r cat pairs in
          let t3 = now () in
          let load = timer_s "catalog.summary.load" -. l0 in
          let est = timer_s "estimator.estimate" -. e0 in
          let join = timer_s "path_join.run_uncached" -. j0 in
          let read = !read_seconds -. r0 in
          let b = Trace.add tr ~name:"catalog.estimate_batch_r" ~kind:"call" ~parent:rq ~rid t2 t3 in
          if load > 0.0 then begin
            let l = Trace.add tr ~name:"catalog.summary.load" ~kind:"derived" ~parent:b ~rid t2 (t2 +. load) in
            Trace.derived tr ~name:"io.read" ~parent:l ~rid t2 read
          end;
          let es = t2 +. load in
          let e = Trace.add tr ~name:"estimator.estimate" ~kind:"derived" ~parent:b ~rid es (es +. est) in
          Trace.derived tr ~name:"path_join.run_uncached" ~parent:e ~rid es join;
          Trace.set_stop tr rq (now ());
          run.shadows <-
            (fun () ->
              let s = now () in
              ignore (Pipeline.route pairs);
              let m = now () in
              ignore (Trace.add tr ~name:"catalog.route" ~kind:"shadow" ~parent:(-1) ~rid s m);
              Array.iter (fun (_, p) -> ignore (Plan.compile p)) pairs;
              ignore (Trace.add tr ~name:"plan.compile" ~kind:"shadow" ~parent:(-1) ~rid m (now ())))
            :: run.shadows;
          out
        end
      in
      let statuses = Catalog.last_batch_statuses cat in
      Array.iteri
        (fun j r ->
          run.attempted <- run.attempted + 1;
          match (r, statuses.(j)) with
          | Ok _, Catalog.Served -> ()
          | _ -> run.failed <- run.failed + 1)
        out;
      results.(i) <- out;
      Array.length batch
    in
    let st0 = Catalog.stats cat in
    let requests = Array.length schedule in
    let catalog_layers () =
      let st = Catalog.stats cat in
      let loads = st.Catalog.loads - st0.Catalog.loads in
      [
        ("catalog.loads", "count", float_of_int loads);
        ("catalog.hits", "count", float_of_int (st.Catalog.hits - st0.Catalog.hits));
        ("catalog.evictions", "count", float_of_int (st.Catalog.evictions - st0.Catalog.evictions));
        ("catalog.load_share", "ratio", ratio (float_of_int loads) (float_of_int requests));
        ("catalog.resident_bytes", "bytes", float_of_int st.Catalog.resident_bytes);
      ]
    in
    run_pass run kind ~heap_every:sizes.heap_every ~n:requests ~catalog_layers request;
    Array.iteri
      (fun i batch ->
        Array.iteri
          (fun j (k, q) ->
            match results.(i).(j) with
            | Error _ -> ()
            | Ok v ->
                check
                  (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float reference.(k).(q)))
                  "served %h for %s %S, fresh estimator gives %h" v
                  (Catalog.key_to_string (snd keys.(k)))
                  pools.(fst keys.(k)).strings.(q)
                  reference.(k).(q))
          batch)
      schedule;
    { run; answers = [||] }
  in
  let wire = wire_bytes manifest in
  {
    times;
    synopsis_bytes = wire;
    info =
      [
        ("keys", nkeys);
        ("queries_xmark", Array.length pools.(2).strings);
        ("queries_dblp", Array.length pools.(1).strings);
        ("queries_ssplays", Array.length pools.(0).strings);
        ("batch_size", bsize);
        ("requests_per_pass", sizes.pass_requests);
        ("wire_bytes", wire);
        ( "resident_budget_bytes",
          if churn then int_of_float (float_of_int wire *. churn_budget_share) else wire );
      ];
    min_passes = passes_for sizes.min_samples sizes.pass_requests;
    pass;
    mean_rel_error = (fun _ -> mean_err);
  }

(* ------------------------------------------------------------------ *)
(* One run: measure, check, report.                                    *)

type report = {
  metrics : metric list;  (** in BENCHMARK.json's order *)
  info : (string * int) list;  (** sizes and counts printed above the table *)
  spans : string list;  (** traced runs: the layer self-time table *)
  correct : bool;
  attempted : int;
  failed : int;
}

(* Traced runs print where the request time went, layer by layer. *)
let span_table tr =
  let tbl = Trace.layers tr ~from:0 in
  let total, _ = Trace.accounting tr ~from:0 in
  let rows = List.of_seq (Hashtbl.to_seq tbl) in
  let rows = List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a) rows in
  Printf.sprintf "  %-28s %10s %14s %14s %8s" "span" "calls" "total ms" "self ms" "self %"
  :: List.map
       (fun (name, (calls, d, s)) ->
         Printf.sprintf "  %-28s %10d %14.3f %14.3f %8.2f" name calls (d *. 1e3) (s *. 1e3)
           (100.0 *. ratio s total))
       rows

(* A metric's median over [xs] with their quartiles. *)
let spread_metric name unit xs =
  let (_, m, _) as q = quartiles xs in
  (name, unit, m, Some q)

(* Every process's answers, checked to agree bit for bit. *)
let merge_answers (ms : measured list) =
  let into = Array.copy (List.hd ms).answers in
  List.iter
    (fun m ->
      Array.iteri
        (fun i v ->
          if Float.is_nan into.(i) then into.(i) <- v
          else if not (Float.is_nan v) then
            check
              (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float into.(i)))
              "query %d: measuring processes disagree (%h against %h)" i v into.(i))
        m.answers)
    ms;
  into

let measure kind ~declared ~smoke ~seed ~seconds ~trace ~out =
  let sizes = sizes ~smoke kind in
  Counters.set_enabled false;
  Counters.reset ();
  let dir = Filename.concat out ("catalog-" ^ kind_name kind) in
  let w =
    phase "prepare" (fun () ->
        match kind with
        | Xmark_cold -> xmark_cold ~sizes
        | Serve_hot -> serve ~churn:false ~sizes ~seed ~dir
        | Serve_churn -> serve ~churn:true ~sizes ~seed ~dir)
  in
  (* An untraced run probes the heap first, while the run holds no
     results yet, so the probe sees the same heap in every run.  Then
     one measuring process per pass, until the next one would end past
     [seconds], after at least [min_passes] passes (two in a traced
     run).  A traced run alternates untraced and traced passes,
     untraced first. *)
  let probe = if trace then [] else [ in_child (fun () -> w.pass Heap_probe) ] in
  let t0 = now () in
  let rec go i last acc =
    let kind = if trace && i mod 2 = 1 then Traced else Untraced in
    let enough = i >= if trace then 2 else w.min_passes in
    if enough && now () -. t0 +. last > seconds then List.rev acc
    else begin
      let s = now () in
      let m = in_child (fun () -> w.pass kind) in
      go (i + 1) (now () -. s) (m :: acc)
    end
  in
  let measured = phase "measure" (fun () -> go 0 0.0 []) @ probe in
  rm_rf dir;
  let run = merge_runs (List.map (fun (m : measured) -> m.run) measured) in
  let times = w.times in
  let answers = merge_answers measured in
  check (trace || Array.for_all (fun v -> not (Float.is_nan v)) answers)
    "a query of the pool was never answered";
  let mean_err = w.mean_rel_error answers in
  let per_setup f = Array.of_list (List.map f times) in
  let untraced = Array.of_list run.untraced_qps in
  let lat = sorted_copy (Array.concat run.latencies) in
  let with_pass_spread (name, unit, v) xs =
    let _, _, _, q = spread_metric name unit (Array.of_list xs) in
    (name, unit, v, q)
  in
  let e2e () =
    [
      spread_metric "setup_s" "s" (per_setup total_setup);
      spread_metric "qps" "1/s" untraced;
      with_pass_spread ("latency_p50_us", "us", percentile lat 0.50) run.pass_p50;
      with_pass_spread ("latency_p99_us", "us", percentile lat 0.99) run.pass_p99;
      ("mean_rel_error", "ratio", mean_err, None);
      ("exact_share", "ratio", 1.0 -. ratio (float_of_int run.failed) (float_of_int run.attempted), None);
      ("synopsis_bytes", "bytes", float_of_int w.synopsis_bytes, None);
      ("heap_peak_mb", "MB", float_of_int (run.heap_peak_words * (Sys.word_size / 8)) /. 1048576.0, None);
    ]
  in
  let layers () =
    (* every traced pass records the same names in the same order *)
    let passes = List.rev run.layer_passes in
    let per_pass =
      List.mapi
        (fun i (name, unit, _) ->
          spread_metric name unit
            (Array.of_list (List.map (fun l -> let _, _, v = List.nth l i in v) passes)))
        (List.hd passes)
    in
    let untraced_median = median untraced in
    per_pass
    @ [
        ( "alloc.mb_per_kquery",
          "MB",
          ratio (run.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6)
            (float_of_int run.untraced_queries /. 1000.0),
          None );
        ("gc.major_collections", "count", float_of_int run.major_collections, None);
        spread_metric "build.collect_s" "s" (per_setup (fun t -> t.collect));
        spread_metric "build.assemble_s" "s" (per_setup (fun t -> t.assemble));
        spread_metric "build.encode_s" "s" (per_setup (fun t -> t.encode));
        spread_metric "build.sketch_s" "s" (per_setup (fun t -> t.sketch));
        spread_metric "catalog.open_s" "s" (per_setup (fun t -> t.open_));
        spread_metric "host.chunk_us" "us" (Array.of_list run.chunk_us);
        spread_metric "trace.qps_ratio" "ratio"
          (Array.of_list (List.map (fun q -> ratio q untraced_median) run.traced_qps));
      ]
  in
  let rows = if trace then layers () else e2e () in
  let want = if trace then snd declared else fst declared in
  let got = List.map (fun (n, u, _, _) -> (n, u)) rows in
  let missing a b =
    String.concat ", " (List.filter_map (fun (n, u) -> if List.mem (n, u) b then None else Some (n ^ " " ^ u)) a)
  in
  check (List.sort compare got = List.sort compare want)
    "measured but not in BENCHMARK.json: [%s]; in BENCHMARK.json but not measured: [%s]"
    (missing got want) (missing want got);
  List.iter (fun (n, _, v, _) -> check (Float.is_finite v) "metric %s is not a finite number" n) rows;
  let correct = ref (run.failed = 0) in
  if trace then begin
    mkdir_p out;
    Trace.write run.trace (Filename.concat out ("spans-" ^ kind_name kind ^ ".tsv"));
    let total, selfsum = Trace.accounting run.trace ~from:0 in
    (* the stated tolerance: layer self times sum to the traced request
       total within 1% *)
    if ratio (Float.abs (total -. selfsum)) total > 0.01 then begin
      Printf.printf "check failed: layer self times sum to %.6fs, requests total %.6fs\n" selfsum total;
      correct := false
    end
  end;
  {
    metrics = List.map (fun (n, _) -> List.find (fun (m, _, _, _) -> m = n) rows) want;
    info =
      w.info
      @ [
          ("seed", seed);
          ("timed_passes", List.length run.traced_qps + List.length run.untraced_qps);
          ("traced_passes", List.length run.traced_qps);
          ("setups", List.length times);
          ("latency_samples", Array.length lat);
          ("raw_qps_median", int_of_float (Float.round (median (Array.of_list run.raw_qps))));
          ("chunk_ns_median", int_of_float (Float.round (median (Array.of_list run.chunk_us) *. 1e3)));
        ];
    spans = (if trace then span_table run.trace else []);
    correct = !correct;
    attempted = run.attempted;
    failed = run.failed;
  }

let json_number v = Printf.sprintf "%.17g" v

let render_report kind ~trace r =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "workload %s (%s run)" (kind_name kind) (if trace then "traced" else "untraced");
  List.iter (fun (k, v) -> line "  %-24s %d" k v) r.info;
  List.iter (fun (k, s) -> line "  %-24s %.2f s" (k ^ " wall") s) (List.rev !phases);
  phases := [];
  List.iter (line "%s") r.spans;
  line "  %-28s %18s %-6s %14s %14s %14s" "metric" "value" "unit" "pass q1" "pass median" "pass q3";
  List.iter
    (fun (n, u, v, s) ->
      match s with
      | Some (q1, m, q3) -> line "  %-28s %18.6f %-6s %14.6f %14.6f %14.6f" n v u q1 m q3
      | None -> line "  %-28s %18.6f %-6s" n v u)
    r.metrics;
  line "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v, _) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          r.metrics));
  Buffer.contents b

(* Smoke mode: every workload, both modes, tiny sizes.  [measure]
   itself checks that the metrics are exactly BENCHMARK.json's, by
   name and unit, with finite values; every correctness check must
   pass too. *)
let smoke ~declared ~out =
  verbose := false;
  List.iter
    (fun kind ->
      List.iter
        (fun trace ->
          let r = measure kind ~declared ~smoke:true ~seed:1 ~seconds:1.0 ~trace ~out in
          if not r.correct then begin
            print_string (render_report kind ~trace r);
            exit 1
          end)
        [ false; true ])
    [ Xmark_cold; Serve_hot; Serve_churn ];
  print_endline "smoke: ok"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let smoke_mode = ref false and out = ref "perfbench/out" and benchmark = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME xmark-cold | serve-hot | serve-churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR scratch catalogs and span files");
      ("--benchmark", Arg.Set_string benchmark, "FILE the BENCHMARK.json declaring the metrics");
      ("--smoke", Arg.Set smoke_mode, " tiny sizes, every workload and mode");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe --workload NAME --seed N --seconds S --trace 0|1";
  try
    let declared = declared_metrics !benchmark in
    if !smoke_mode then smoke ~declared ~out:!out
    else
      match kind_of_string !workload with
      | None ->
          prerr_endline ("ledger: unknown workload " ^ !workload);
          exit 2
      | Some kind ->
          let trace = !trace = 1 in
          let r = measure kind ~declared ~smoke:false ~seed:!seed ~seconds:!seconds ~trace ~out:!out in
          print_string (render_report kind ~trace r);
          flush stdout;
          if not r.correct then exit 1
  with Check msg ->
    prerr_endline ("ledger: check failed: " ^ msg);
    exit 1
