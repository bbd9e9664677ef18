module Counters = Xpest_util.Counters
module Fault = Xpest_util.Fault
module Loader_pool = Xpest_util.Loader_pool
module E = Xpest_util.Xpest_error
module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Synopsis_io = Xpest_synopsis.Synopsis_io
module Sketch = Xpest_synopsis.Sketch
module Pattern = Xpest_xpath.Pattern
module Plan = Xpest_plan.Plan
module Bounded_cache = Xpest_util.Bounded_cache
module Cache_config = Xpest_plan.Cache_config
module Estimator = Xpest_estimator.Estimator
module Sketch_exec = Xpest_estimator.Sketch_exec

(* The catalog counts its own events in [t] ([stats], [health]); its
   one process-global instrument is the load timer, a layer time. *)
let t_load = Counters.create_timer "catalog.summary.load"

(* ------------------------------------------------------------------ *)
(* Keys.                                                               *)

type key = { dataset : string; variance : float }

(* Shortest decimal that parses back to the same float: "%g" when it
   round-trips (the common case: 0, 2, 2.5), "%.17g" otherwise — so
   key strings and file names never silently merge two variances. *)
let fmt_variance v =
  let s = Printf.sprintf "%g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let key_to_string k = Printf.sprintf "%s@%s" k.dataset (fmt_variance k.variance)

let key_of_string s =
  let mk dataset variance =
    if String.length dataset = 0 then
      Error (Printf.sprintf "catalog key %S: empty dataset" s)
    else Ok { dataset; variance }
  in
  (* the LAST '@' splits off the variance, so dataset names may
     themselves contain '@' (their printed form always carries an
     explicit variance) *)
  match String.rindex_opt s '@' with
  | None -> mk s 0.0
  | Some i -> (
      let dataset = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt v with
      | Some variance when variance >= 0.0 && Float.is_finite variance ->
          mk dataset variance
      | Some _ | None ->
          Error
            (Printf.sprintf
               "catalog key %S: variance %S is not a finite non-negative \
                number" s v))

(* File names must be shell-safe, collision-free and invertible for any
   dataset string, so everything outside [A-Za-z0-9.-] is %XX-escaped —
   in particular '_' and '%', which makes the "_v" separator the only
   '_' in the name and the whole encoding unambiguous. *)
let safe_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '-'

let escape_dataset d =
  let buf = Buffer.create (String.length d + 8) in
  String.iter
    (fun c ->
      if safe_char c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    d;
  Buffer.contents buf

let unescape_dataset s =
  let n = String.length s in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 >= n then Error "truncated %-escape"
      else
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            go (i + 3)
        | _ -> Error (Printf.sprintf "bad %%-escape %S" (String.sub s i 3))
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let syn_suffix = ".syn"

let key_filename k =
  Printf.sprintf "%s_v%s%s" (escape_dataset k.dataset) (fmt_variance k.variance)
    syn_suffix

let key_of_filename name =
  let err reason = Error (Printf.sprintf "synopsis file name %S: %s" name reason) in
  let sn = String.length syn_suffix and n = String.length name in
  if n <= sn || String.sub name (n - sn) sn <> syn_suffix then
    err "missing .syn suffix"
  else
    let stem = String.sub name 0 (n - sn) in
    match String.index_opt stem '_' with
    | None -> err "missing _v separator"
    | Some i ->
        if i + 1 >= String.length stem || stem.[i + 1] <> 'v' then
          err "missing _v separator"
        else
          let enc = String.sub stem 0 i in
          let v = String.sub stem (i + 2) (String.length stem - i - 2) in
          let variance =
            match float_of_string_opt v with
            | Some f when f >= 0.0 && Float.is_finite f -> Ok f
            | Some _ | None ->
                Error
                  (Printf.sprintf "variance %S is not a finite non-negative \
                                   number" v)
          in
          (match unescape_dataset enc with
          | Error reason -> err reason
          | Ok "" -> err "empty dataset"
          | Ok dataset -> (
              match variance with
              | Error reason -> err reason
              | Ok variance -> Ok { dataset; variance }))

(* ------------------------------------------------------------------ *)
(* Resilience policy and per-key health.

   Time is a logical clock that advances one tick per acquire attempt
   (one resident-set probe), so the quarantine/backoff state machine is
   deterministic under test and independent of wall-clock jitter.

   The state machine per key:

     Healthy --load failure x failure_threshold--> Quarantined(backoff)
     Quarantined: acquire attempts are refused without I/O until the
       clock reaches [until]; the first attempt at/after [until] probes
       the loader.  Probe failure re-quarantines with doubled backoff
       (capped at backoff_max); probe success resets to Healthy and
       backoff_base.                                                   *)

type resilience = {
  max_retries : int;
  failure_threshold : int;
  backoff_base : int;
  backoff_max : int;
}

let default_resilience =
  { max_retries = 2; failure_threshold = 3; backoff_base = 4; backoff_max = 64 }

(* Bound on the per-key health table (see [prune_health]). *)
let max_tracked = 4096

type hstate = {
  mutable consecutive : int;
  mutable failures : int;
  mutable retries : int;
  mutable quarantines : int;
  mutable backoff : int;  (* length of the next quarantine, in ticks *)
  mutable until : int;  (* quarantined while clock < until *)
  mutable last_error : E.t option;
}

type health_state = Healthy | Quarantined of { until : int }

type key_health = {
  h_key : key;
  h_state : health_state;
  h_consecutive_failures : int;
  h_failures : int;
  h_retries : int;
  h_quarantines : int;
  h_next_backoff : int;
  h_last_error : E.t option;
}

(* ------------------------------------------------------------------ *)
(* The catalog: a bounded set of resident summaries, each paired with
   its pooled estimator.  The estimator pool shares one compiled-plan
   cache: plans are summary-independent, so a query compiled for one
   summary is a plan-cache hit when routed to any other.

   Residency runs on the segmented (scan-resistant) policy: a cyclic
   scan over more tenants than fit resident is LRU's worst case —
   every access evicts the summary it will need next round — while
   under the segmented policy the re-used (twice-touched) summaries
   sit in the protected segment and survive the scan (test_catalog's
   thrash trace pins the hit count).

   The bound is either the historical entry count
   ([resident_capacity]) or, when [config.resident_bytes] is set, a
   byte budget costed by the exact wire size of each resident summary
   ([Summary.size_bytes]) — tenants' summaries differ by an order of
   magnitude, so counting entries either wastes memory on small ones
   or blows the budget on big ones.  Hot keys can be pinned
   ([pin]/[unpin]): pinned summaries still count against the budget
   but are never evicted.  Which summaries are resident never affects
   estimates — values are pure functions of (summary, plan).           *)

type resident = { summary : Summary.t; estimator : Estimator.t }

(* One rung below the resident set: a pinned per-dataset fallback
   sketch paired with its executor (built once at install). *)
type sketch_resident = { sketch : Sketch.t; sexec : Sketch_exec.t }

(* How each query slot of the last batch was answered, parallel to the
   result array — the degradation ladder's rungs: served exactly
   (Served), served degraded from a resident sibling variance
   (Fallback), served coarsely from the dataset's fallback sketch
   (Sketch), or shed outright. *)
type slot_status = Served | Fallback of key | Sketch | Shed

(* What the execute stage runs a group against: the exact tier's
   pooled estimator, or the sketch tier's executor.  The pipeline is
   polymorphic in this type, so tiering never touches pipeline.ml. *)
type served = Exact of Estimator.t | Via_sketch of Sketch_exec.t

type t = {
  loader : key -> (Summary.t, E.t) result;
  known : key -> bool;
      (* false only for a key the loader cannot know (a file-backed
         catalog's manifest has no row for it) *)
  config : Cache_config.t;
  resilience : resilience;
  admission : Admission.t;
  plans : (Pattern.t, Plan.t) Bounded_cache.t;  (* pool-shared *)
  residents : (key, resident) Bounded_cache.t;
  (* the ladder's last rung: per-dataset fallback sketches, pinned in
     their own byte-budgeted region the resident evictor never sees *)
  sketches : (string, sketch_resident) Bounded_cache.t;
  health_tbl : (key, hstate) Hashtbl.t;
  mutable clock : int;
  mutable loads : int;
  mutable failures : int;
  mutable retries : int;
  mutable quarantines : int;
  mutable prefetches : int;
  mutable sheds : int;  (* queries refused by admission control *)
  mutable shed_served : int;  (* shed queries a ladder rung answered *)
  mutable fallbacks : int;
      (* shed or load-failed queries served by a resident sibling *)
  mutable sketch_served : int;  (* queries answered from the sketch tier *)
  mutable sketch_failures : int;
      (* sketches that could not be installed: over budget, unreadable,
         corrupt, or stale against the manifest *)
  mutable skipped_directives : int;
      (* unknown !directive lines skipped by health-state loads *)
  mutable last_metrics : (key * (string * int) list) list;
  mutable last_statuses : slot_status array;
}

let default_resident_capacity = 8

(* Sketches are hundreds of bytes to a few KiB each; 256 KiB pins a
   last-resort answer tier for hundreds of datasets. *)
let default_sketch_bytes = 262144

let make ~known ?(resident_capacity = default_resident_capacity) ?config
    ?(resilience = default_resilience) ?(admission = Admission.unlimited)
    ?(sketch_bytes = default_sketch_bytes) ~loader () =
  if resident_capacity < 1 then
    invalid_arg "Catalog.create_r: resident_capacity must be >= 1";
  if sketch_bytes < 1 then
    invalid_arg "Catalog.create_r: sketch_bytes must be >= 1";
  if
    resilience.max_retries < 0 || resilience.failure_threshold < 1
    || resilience.backoff_base < 1
    || resilience.backoff_max < resilience.backoff_base
  then invalid_arg "Catalog.create_r: malformed resilience policy";
  let config = match config with Some c -> c | None -> Cache_config.default in
  (* [config.resident_bytes] switches the resident bound from entry
     count to a byte budget: each resident costs its exact wire size. *)
  let resident_budget, resident_cost =
    match config.Cache_config.resident_bytes with
    | None -> (resident_capacity, None)
    | Some bytes ->
        if bytes < 1 then
          invalid_arg "Catalog.create_r: resident_bytes must be >= 1";
        (bytes, Some (fun _ r -> Summary.size_bytes r.summary))
  in
  (* a loader that raises still lands in retry/quarantine: escaped
     exceptions are classified into the typed taxonomy *)
  let loader k =
    match loader k with
    | r -> r
    | exception Sys_error reason ->
        Error (E.Io_failure { path = key_to_string k; reason })
    | exception E.Error e -> Error e
    | exception Invalid_argument reason | exception Failure reason ->
        Error (E.Internal reason)
  in
  {
    loader;
    known;
    config;
    resilience;
    admission = Admission.create admission;
    (* no cache here is synchronized: each is touched only on the
       calling domain (commit, execute, stats); loader domains run
       [load_job] alone, which reads none of them *)
    plans = Estimator.create_plan_cache ~capacity:config.Cache_config.plan ();
    residents =
      Bounded_cache.create ~capacity:resident_budget
        ~policy:Bounded_cache.segmented ?cost:resident_cost ();
    (* the sketch region is byte-budgeted by exact wire size; entries
       are pinned at install and admission is pre-checked, so it can
       neither evict nor overshoot *)
    sketches =
      Bounded_cache.create ~capacity:sketch_bytes
        ~cost:(fun _ sr -> Sketch.size_bytes sr.sketch) ();
    health_tbl = Hashtbl.create 16;
    clock = 0;
    loads = 0;
    failures = 0;
    retries = 0;
    quarantines = 0;
    prefetches = 0;
    sheds = 0;
    shed_served = 0;
    fallbacks = 0;
    sketch_served = 0;
    sketch_failures = 0;
    skipped_directives = 0;
    last_metrics = [];
    last_statuses = [||];
  }

let create_r = make ~known:(fun _ -> true)

(* Install one dataset's fallback sketch into the pinned region.
   Admission is pre-checked against the byte budget: [Bounded_cache]
   admits a pinned entry over budget when nothing is evictable (by
   design — see bounded_cache.mli), and a last-resort tier that could
   silently outgrow its budget would defeat the point of having one.
   Re-installing a dataset replaces its sketch.  The executor is built
   here, once, not per query. *)
let install_sketch t dataset sketch =
  Bounded_cache.remove t.sketches dataset;
  let size = max 1 (Sketch.size_bytes sketch) in
  let st = Bounded_cache.stats t.sketches in
  if st.Bounded_cache.s_cost + size > st.Bounded_cache.s_capacity then begin
    t.sketch_failures <- t.sketch_failures + 1;
    Error
      (E.Capacity
         (Printf.sprintf
            "catalog sketch region full (%d + %d > %d bytes); refusing \
             sketch for %s"
            st.Bounded_cache.s_cost size st.Bounded_cache.s_capacity dataset))
  end
  else begin
    Bounded_cache.pin t.sketches dataset;
    Bounded_cache.add t.sketches dataset
      { sketch; sexec = Sketch_exec.create sketch };
    Ok ()
  end

(* The ladder is armed by provisioning: a catalog holding at least one
   fallback sketch opts its failure paths into degraded answers. *)
let ladder_armed t = Bounded_cache.length t.sketches > 0

(* -------------------- health bookkeeping -------------------- *)

let fresh_hstate t =
  {
    consecutive = 0;
    failures = 0;
    retries = 0;
    quarantines = 0;
    backoff = t.resilience.backoff_base;
    until = 0;
    last_error = None;
  }

(* Drop fully-healthy entries when the table reaches its bound; the
   bound only bites under a storm of distinct failing keys. *)
let prune_health t =
  if Hashtbl.length t.health_tbl >= max_tracked then begin
    let victims =
      Hashtbl.fold
        (fun k h acc ->
          if h.consecutive = 0 && h.until <= t.clock then k :: acc else acc)
        t.health_tbl []
    in
    List.iter (Hashtbl.remove t.health_tbl) victims
  end

(* Hard-bounded tracking for cold keys: a flood of never-loadable keys
   must not grow the health table without limit. *)
let hstate_tracked t key =
  match Hashtbl.find_opt t.health_tbl key with
  | Some h -> Ok h
  | None ->
      prune_health t;
      if Hashtbl.length t.health_tbl >= max_tracked then
        Error
          (E.Capacity
             (Printf.sprintf
                "catalog health table full (%d unhealthy keys tracked); \
                 refusing to track %s"
                (Hashtbl.length t.health_tbl)
                (key_to_string key)))
      else begin
        let h = fresh_hstate t in
        Hashtbl.add t.health_tbl key h;
        Ok h
      end

let note_success t (h : hstate) =
  h.consecutive <- 0;
  h.until <- 0;
  h.backoff <- t.resilience.backoff_base;
  h.last_error <- None

let note_failure t (h : hstate) e =
  h.consecutive <- h.consecutive + 1;
  h.failures <- h.failures + 1;
  h.last_error <- Some e;
  t.failures <- t.failures + 1;
  if h.consecutive >= t.resilience.failure_threshold then begin
    h.until <- t.clock + h.backoff;
    h.backoff <- min (2 * h.backoff) t.resilience.backoff_max;
    h.quarantines <- h.quarantines + 1;
    t.quarantines <- t.quarantines + 1
  end

(* The retry loop, split from its bookkeeping so the loop itself is
   pure serving-state-wise: it only calls the loader.  That is what
   lets the pipeline run it on a loader domain ahead of the key's
   acquire turn — the consumed-retry count travels with the result and
   is booked at the single-owner commit point. *)
let load_with_policy t key =
  let rec go attempt retries =
    match t.loader key with
    | Ok s -> (Ok s, retries)
    | Error e when E.transient e && attempt < t.resilience.max_retries ->
        go (attempt + 1) (retries + 1)
    | Error e -> (Error e, retries)
  in
  go 0 0

(* One load, timed; safe on any domain (the timer is mutex-guarded). *)
let load_job t key () = Counters.time t_load (fun () -> load_with_policy t key)

let book_retries t (h : hstate) retries =
  if retries > 0 then begin
    h.retries <- h.retries + retries;
    t.retries <- t.retries + retries
  end

(* -------------------- acquisition -------------------- *)

(* One acquire step.  [prefetched] is the pipeline's seam: when the
   load stage already has this key's load in flight (or deferred), the
   commit awaits it here — at exactly the point the blocking path would
   have called the loader — and books the outcome; otherwise the load
   runs inline.  Everything else (clock, residency, health) is
   identical either way. *)
let acquire_with t ~prefetched key =
  t.clock <- t.clock + 1;
  match Bounded_cache.find_opt t.residents key with
  | Some r -> Ok r.estimator
  | None -> (
      match hstate_tracked t key with
      | Error e -> Error e
      | Ok h ->
          if t.clock < h.until then
            Error (E.Quarantined { key = key_to_string key; until = h.until })
          else begin
            let result, retries =
              match prefetched with
              | Some fut -> Loader_pool.await fut
              | None -> load_job t key ()
            in
            book_retries t h retries;
            match result with
            | Ok summary ->
                let estimator =
                  Estimator.create ~config:t.config ~plans:t.plans summary
                in
                t.loads <- t.loads + 1;
                note_success t h;
                Bounded_cache.add t.residents key { summary; estimator };
                Ok estimator
            | Error e ->
                note_failure t h e;
                Error e
          end)

let acquire_r t key = acquire_with t ~prefetched:None key

(* ------------------------------------------------------------------ *)
(* File-backed catalogs.                                               *)

let manifest_filename = "catalog.manifest"

let save_entry ~dir manifest key summary =
  let file = key_filename key in
  let path = Filename.concat dir file in
  Summary.save summary path;
  let i = Synopsis_io.info path in
  Manifest.add manifest
    {
      Manifest.dataset = key.dataset;
      variance = key.variance;
      file;
      bytes = i.Synopsis_io.total_bytes;
      checksum = i.Synopsis_io.checksum;
    }

let sketch_suffix = ".sketch"
let sketch_filename dataset = escape_dataset dataset ^ sketch_suffix

(* One fallback sketch per dataset, next to its summaries, registered
   in the manifest's sketch table with the same size+checksum
   discipline as synopsis entries. *)
let save_sketch ~dir manifest dataset sketch =
  let file = sketch_filename dataset in
  let path = Filename.concat dir file in
  Sketch.save sketch path;
  let i = Synopsis_io.info path in
  Manifest.add_sketch manifest
    {
      Manifest.s_dataset = dataset;
      s_file = file;
      s_bytes = i.Synopsis_io.total_bytes;
      s_checksum = i.Synopsis_io.checksum;
    }

(* Verification of one catalog file (synopsis or sketch) against its
   manifest record: shared by the eager sketch install and the CLI's
   info report.  The lazy loader checks and decodes on one read
   instead ([Synopsis_io.load_verified]). *)
let check_file ?io ~dir file ~bytes ~checksum =
  let path = Filename.concat dir file in
  Result.map (fun () -> path) (Synopsis_io.verify ?io ~bytes ~checksum path)

let manifest_entry manifest key =
  match
    Manifest.find manifest ~dataset:key.dataset ~variance:key.variance
  with
  | None -> Error (E.Unknown_key (key_to_string key))
  | Some e -> Ok e

let manifest_verify ?io ~dir manifest key =
  Result.bind (manifest_entry manifest key) (fun e ->
      Result.map ignore
        (check_file ?io ~dir e.Manifest.file ~bytes:e.Manifest.bytes
           ~checksum:e.Manifest.checksum))

let manifest_loader ?io ~dir manifest key =
  Result.bind (manifest_entry manifest key) (fun e ->
      Synopsis_io.load_verified ?io ~bytes:e.Manifest.bytes
        ~checksum:e.Manifest.checksum
        (Filename.concat dir e.Manifest.file))

let sketch_check ?io ~dir (e : Manifest.sketch_entry) =
  check_file ?io ~dir e.Manifest.s_file ~bytes:e.Manifest.s_bytes
    ~checksum:e.Manifest.s_checksum

let load_sketch ?io ~dir e =
  Result.bind (sketch_check ?io ~dir e) (Sketch.load_typed ?io)

let of_manifest ?resident_capacity ?config ?resilience ?admission
    ?sketch_bytes ?io ~dir manifest =
  let t =
    make
      ~known:(fun key ->
        Option.is_some (Manifest.find manifest ~dataset:key.dataset ~variance:key.variance))
      ?resident_capacity ?config ?resilience ?admission ?sketch_bytes
      ~loader:(manifest_loader ?io ~dir manifest)
      ()
  in
  (* The sketch tier is always-resident by construction: every
     manifest sketch is read eagerly here, while storage is presumed
     healthy, never lazily on the failure path it exists to cover.  A
     sketch that cannot be installed (unreadable, corrupt, stale, or
     over budget) is counted, not fatal — it only narrows the ladder
     back to PR-era behavior for its dataset. *)
  List.iter
    (fun (e : Manifest.sketch_entry) ->
      match load_sketch ?io ~dir e with
      | Error _ -> t.sketch_failures <- t.sketch_failures + 1
      | Ok sketch -> ignore (install_sketch t e.Manifest.s_dataset sketch))
    manifest.Manifest.sketches;
  t

(* ------------------------------------------------------------------ *)
(* Routing.                                                            *)

let estimate_r t key q =
  match acquire_r t key with
  | Ok est -> Estimator.try_estimate est q
  | Error e -> Error e

(* -------------------- admission support -------------------- *)

(* Exact prediction of whether acquiring [key] right now would call
   the loader — [acquire_with]'s decision tree evaluated one tick
   ahead (acquire ticks the clock before anything else).  Admission
   charges [Admission.load_cost] only when this is [true]; a quarantine
   or capacity refusal costs a plain tick like a hit.  Uses only
   non-mutating probes ([Bounded_cache.mem], table lookups), so a
   prediction for a group that ends up shed leaves no trace. *)
let would_load t key =
  (not (Bounded_cache.mem t.residents key))
  && (match Hashtbl.find_opt t.health_tbl key with
     | Some h -> t.clock + 1 >= h.until
     | None ->
         (* mirror [hstate_tracked]: room in the table, or the prune
            it triggers would free at least one fully-healthy slot *)
         Hashtbl.length t.health_tbl < max_tracked
         || Hashtbl.fold
              (fun _ h free ->
                free || (h.consecutive = 0 && h.until <= t.clock + 1))
              t.health_tbl false)

(* The degraded fallback tier: an already-resident summary of the same
   dataset, nearest by |Δvariance| (ties broken toward the smaller
   variance), chosen with a non-promoting fold so the probe neither
   touches recency nor depends on the fold's visit order — the
   comparator is a strict total order over the dataset's resident
   variances, so the winner is a pure function of the resident set. *)
let resident_sibling t key =
  Bounded_cache.fold
    (fun k r best ->
      if not (String.equal k.dataset key.dataset) then best
      else
        match best with
        | None -> Some (k, r)
        | Some (bk, _) ->
            let d = Float.abs (k.variance -. key.variance)
            and bd = Float.abs (bk.variance -. key.variance) in
            if d < bd || (d = bd && k.variance < bk.variance) then Some (k, r)
            else best)
    t.residents None

(* Which acquire failures the ladder may absorb: unhealthy-storage and
   pressure refusals.  [Unknown_key] stays an error (the query is
   malformed, not the storage) and so does [Internal] (a bug must
   surface, not be papered over with a coarse estimate). *)
let rung_eligible = function
  | E.Io_failure _ | E.Corrupt _ | E.Stale_manifest _ | E.Quarantined _
  | E.Capacity _ | E.Deadline_exceeded _ | E.Overloaded _ ->
      true
  | E.Unknown_key _ | E.Internal _ -> false

(* [find_opt] promotes and counts hits, but the sketch region is
   all-pinned so recency is inert — the lookup is effect-free on
   eviction order. *)
let sketch_of t dataset = Bounded_cache.find_opt t.sketches dataset

(* Routed batches run the staged pipeline (see pipeline.mli): route,
   then a single-owner acquire scan in route order, with loads fanned
   out ahead of their turn when a concurrent [Loader_pool] policy is
   given.  The acquire scan is [acquire_with] — the same state machine
   as [acquire_r] — so clock ticks, LRU probes and evictions, loader
   outcomes, retries and quarantine transitions happen in exactly the
   sequential order, and acquire-side [Error]s and {!stats} are
   identical to the blocking path at any load fan-out.  An acquired
   estimator stays valid even if a later acquire evicts its key: the
   resident set drops its reference, not the object. *)

(* Planning predicate for the load stage (concurrent loader policies
   only; route order).  [true] must {e prove} the key's acquire will
   call the loader with an outcome independent of the commits before
   it:

   - non-resident keys stay non-resident until their own commit
     (nothing else in the batch adds them), so a miss is certain;
   - quarantine is exactly predictable: the key's acquire runs at
     clock [t.clock + position + 1] (one tick per routed key), and only
     the key's own acquire mutates its health state — batch keys are
     distinct;
   - the health-table capacity guard over-counts possible additions
     (any key without an entry may add one, and re-additions of pruned
     entries never exceed their removals), so a [true] can never meet
     a [Capacity] refusal at commit.

   Resident keys are never prefetched: an earlier commit may evict
   them, in which case their own commit loads inline — still the exact
   sequential schedule for that key.  Under-approximation is the safe
   direction throughout: a skipped prefetch only costs overlap.

   Admission control adds two proof obligations.  First, a prefetched
   group must be provably admitted at its commit ([Admission.provable]
   against the worst case of every earlier group): a prefetched load
   whose group is then shed would consume keyed-injector attempts for
   a discarded result and break bit-identity across load-domain
   counts.  Second, shed groups do not tick the clock, so the exact
   clock-at-turn prediction degrades to a range; the quarantine check
   then uses the earliest possible clock (every earlier group shed) —
   conservative, never wrong. *)
let prefetch_planner t =
  let pos = ref 0 in
  let will_add = ref 0 in
  fun key ->
    incr pos;
    let clock_at_turn =
      if Admission.active t.admission then t.clock + 1 else t.clock + !pos
    in
    let has_entry = Hashtbl.mem t.health_tbl key in
    let decision =
      (not (Bounded_cache.mem t.residents key))
      && (match Hashtbl.find_opt t.health_tbl key with
         | Some h -> clock_at_turn >= h.until
         | None -> true)
      && Hashtbl.length t.health_tbl + !will_add < max_tracked
      && Admission.provable t.admission ~groups_before:(!pos - 1)
    in
    if not has_entry then incr will_add;
    if decision then t.prefetches <- t.prefetches + 1;
    decision

let estimate_batch_r ?loads t pairs =
  Admission.batch_begin t.admission;
  let out =
    Array.make (Array.length pairs)
      (Error (E.Internal "catalog: unrouted query slot") : (float, E.t) result)
  in
  let routed = Pipeline.route pairs in
  let loads = match loads with Some l -> l | None -> Loader_pool.blocking in
  (* Per-group counter attribution needs commit and execute inline, in
     order, with nothing else running (see counters.mli) — only the
     blocking-load shape qualifies; pipelined batches clear
     [last_metrics] instead of lying.  With counting off no counter
     moves, so no group is bracketed at all. *)
  let seq_metrics = Counters.enabled () && not (Loader_pool.concurrent loads) in
  let metrics = ref [] in
  let group_begin, group_end =
    if seq_metrics then (
      let before = ref (Counters.snapshot ()) in
      ( (fun _ -> before := Counters.snapshot ()),
        fun k ->
          (* bracket the whole group — load included — with counter
             snapshots, so the delta is attributable to this summary *)
          match Counters.delta_between !before (Counters.snapshot ()) with
          | [] -> ()
          | delta -> metrics := (k, delta) :: !metrics ))
    else ((fun _ -> ()), fun _ -> ())
  in
  (* Per-group statuses, recorded on the single-owner commit path and
     materialized per slot after the run (only exceptional statuses
     are stored; everything else is [Served]). *)
  let gstatus : (key, slot_status) Hashtbl.t = Hashtbl.create 4 in
  let group_size k = Array.length (Pipeline.group_indices routed k) in
  (* The ladder, the one way a group degrades.  An error of an
     eligible kind (unhealthy storage or pressure — never Unknown_key
     or Internal), whether a failed acquire or an admission shed,
     descends to a resident sibling variance first and the dataset's
     pinned sketch second — iff the catalog holds a sketch; a sketch-free
     catalog fails fast with the error.  Descent runs at the
     single-owner commit point, so rung choice is a pure function of
     sequential catalog state — deterministic at any fan-out. *)
  let descend k = function
    | Ok est -> Ok (Exact est)
    | Error e when not (ladder_armed t && rung_eligible e) -> Error e
    | Error e -> (
        let n = group_size k in
        match resident_sibling t k with
        | Some (sib, r) ->
            t.fallbacks <- t.fallbacks + n;
            Hashtbl.replace gstatus k (Fallback sib);
            Ok (Exact r.estimator)
        | None -> (
            match sketch_of t k.dataset with
            | Some sr ->
                t.sketch_served <- t.sketch_served + n;
                Hashtbl.replace gstatus k Sketch;
                Ok (Via_sketch sr.sexec)
            | None -> Error e))
  in
  (* The stage-boundary admission check wraps the acquire step.  A
     shed consults nothing downstream: no clock tick, no I/O, no
     per-key health mutation — the refusal is about the system, not
     the key.  Admitted cold loads report their final outcome to the
     breaker at this same single-owner point, in route order, which is
     what keeps breaker transitions deterministic at any fan-out.  A
     key the catalog cannot know is never charged: its acquire fails
     [Unknown_key], which does not descend, as without admission. *)
  let commit k ~prefetched =
    if not (Admission.active t.admission && t.known k) then
      descend k (acquire_with t ~prefetched k)
    else begin
      let wl = would_load t k in
      match
        Admission.decide t.admission ~clock:t.clock ~key:(key_to_string k)
          ~would_load:wl
      with
      | Admission.Admit { probe = _ } ->
          let r = acquire_with t ~prefetched k in
          if wl then
            Admission.note_load_result t.admission ~clock:t.clock
              ~ok:(Result.is_ok r);
          descend k r
      | Admission.Shed e ->
          let n = group_size k in
          t.sheds <- t.sheds + n;
          let r = descend k (Error e) in
          (match r with
          | Ok (Via_sketch _) ->
              (* a sketch answer costs what a resident hit costs, and
                 is never queued — the last rung cannot be shed *)
              Admission.charge_sketch_answer t.admission;
              t.shed_served <- t.shed_served + n
          | Ok (Exact _) -> t.shed_served <- t.shed_served + n
          | Error _ -> Hashtbl.replace gstatus k Shed);
          r
    end
  in
  let ops =
    {
      Pipeline.prefetchable = prefetch_planner t;
      load = (fun k -> load_job t k ());
      commit;
      group_begin;
      group_end;
    }
  in
  let slot idxs vs = Array.iteri (fun j i -> out.(i) <- vs.(j)) idxs in
  (* Sketch-tier execution reuses the pool-shared plan IR: the same
     compile (and cache entry) the exact tier would use, so routing
     and dedupe are tier-independent. *)
  let sketch_one sx q =
    match
      Sketch_exec.estimate_plan sx (Bounded_cache.find_or_add t.plans q Plan.compile)
    with
    | v -> Ok v
    | exception E.Error e -> Error e
    | exception exn -> Error (E.Internal (Printexc.to_string exn))
  in
  let execute est idxs =
    match est with
    | Exact est ->
        slot idxs
          (Estimator.try_estimate_many est
             (Array.map (fun i -> snd pairs.(i)) idxs))
    | Via_sketch sx ->
        slot idxs (Array.map (fun i -> sketch_one sx (snd pairs.(i))) idxs)
  in
  (* one poisoned key fails its own queries, nobody else's *)
  let fail e idxs = Array.iter (fun i -> out.(i) <- Error e) idxs in
  Pipeline.run ~loads ~ops ~fail ~execute routed;
  Admission.batch_end t.admission ~clock:t.clock;
  t.last_metrics <- (if seq_metrics then List.rev !metrics else []);
  let statuses = Array.make (Array.length pairs) Served in
  Hashtbl.iter
    (fun k st ->
      Array.iter (fun i -> statuses.(i) <- st) (Pipeline.group_indices routed k))
    gstatus;
  t.last_statuses <- statuses;
  out

(* ------------------------------------------------------------------ *)
(* Observability.                                                      *)

type stats = {
  resident : int;
  resident_capacity : int;
  resident_cost : int;
  resident_bytes : int;
  resident_probationary : int;
  resident_protected : int;
  resident_pinned : int;
  loads : int;
  hits : int;
  evictions : int;
  failures : int;
  retries : int;
  quarantines : int;
  prefetched_loads : int;
  shed_queries : int;
  shed_served_queries : int;
  fallback_queries : int;
  sketch_queries : int;
  sketch_resident : int;
  sketch_bytes : int;
  sketch_budget : int;
  sketch_failures : int;
  skipped_directives : int;
  plan_cache : Bounded_cache.stats;
}

let stats t =
  let rs = Bounded_cache.stats t.residents in
  {
    resident = rs.Bounded_cache.s_length;
    resident_capacity = rs.Bounded_cache.s_capacity;
    resident_cost = rs.Bounded_cache.s_cost;
    (* exact bytes regardless of the cost unit: under a byte budget
       this equals [resident_cost]; under the count bound it is still
       the honest memory figure (size_bytes is memoized, so the fold
       costs one encode per summary, once) *)
    resident_bytes =
      Bounded_cache.fold
        (fun _ r acc -> acc + Summary.size_bytes r.summary)
        t.residents 0;
    resident_probationary = rs.Bounded_cache.s_probationary;
    resident_protected = rs.Bounded_cache.s_protected;
    resident_pinned = rs.Bounded_cache.s_pinned;
    loads = t.loads;
    hits = rs.Bounded_cache.s_hits;
    evictions = rs.Bounded_cache.s_evictions;
    failures = t.failures;
    retries = t.retries;
    quarantines = t.quarantines;
    prefetched_loads = t.prefetches;
    shed_queries = t.sheds;
    shed_served_queries = t.shed_served;
    fallback_queries = t.fallbacks;
    sketch_queries = t.sketch_served;
    sketch_resident = Bounded_cache.length t.sketches;
    sketch_bytes = (Bounded_cache.stats t.sketches).Bounded_cache.s_cost;
    sketch_budget = Bounded_cache.capacity t.sketches;
    sketch_failures = t.sketch_failures;
    skipped_directives = t.skipped_directives;
    plan_cache = Bounded_cache.stats t.plans;
  }

let clock t = t.clock

let key_health_of_hstate t k (h : hstate) =
  {
    h_key = k;
    h_state =
      (if h.until > t.clock then Quarantined { until = h.until } else Healthy);
    h_consecutive_failures = h.consecutive;
    h_failures = h.failures;
    h_retries = h.retries;
    h_quarantines = h.quarantines;
    h_next_backoff = h.backoff;
    h_last_error = h.last_error;
  }

let health t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.health_tbl []
  |> List.map (fun (k, h) -> key_health_of_hstate t k h)
  |> List.sort (fun a b ->
         String.compare (key_to_string a.h_key) (key_to_string b.h_key))

(* Operator override: forget a key's accumulated failure history so
   the next acquire probes the loader immediately — quarantine
   deadline, doubled backoff, lifetime counts, everything.  Returns the
   state being discarded so the CLI can show what was cleared. *)
let clear_quarantine t key =
  match Hashtbl.find_opt t.health_tbl key with
  | None -> None
  | Some h ->
      let prior = key_health_of_hstate t key h in
      Hashtbl.remove t.health_tbl key;
      Some prior

(* The --all form: forget every tracked key at once.  Returns the
   discarded states (sorted, like [health]) so the CLI can show what
   was cleared.  The circuit breaker is deliberately left alone — it
   guards the loader seam, not any key, and has its own half-open
   recovery path. *)
let clear_all_quarantine t =
  let prior = health t in
  Hashtbl.reset t.health_tbl;
  prior

let last_batch_metrics t = t.last_metrics
let last_batch_statuses t = t.last_statuses
let admission_stats t = Admission.stats t.admission
let breaker t = Admission.breaker t.admission ~clock:t.clock
let keys_by_recency t = Bounded_cache.keys_by_recency t.residents

(* Pins are sticky on the key (they survive eviction and apply to the
   next load), so pinning never needs the summary resident yet. *)
let pin t key = Bounded_cache.pin t.residents key
let unpin t key = Bounded_cache.unpin t.residents key
let pinned t key = Bounded_cache.pinned t.residents key

(* ------------------------------------------------------------------ *)
(* Health persistence.

   The per-key failure history (quarantine deadlines, doubled
   backoffs, lifetime counts) is what makes the catalog skip known-bad
   storage without probing it — state worth carrying across process
   restarts.  The format is line-oriented: a magic header, then one
   row per tracked key.  Quarantine deadlines are stored as {e
   remaining} ticks (deadline minus the saving catalog's clock), so a
   loading catalog re-anchors them on its own clock: logical clocks
   are per-instance and absolute deadlines would not survive the
   restart.  [last_error] is not persisted — errors reference live
   paths and reasons that may no longer hold; a restart starts with
   the counts and the deadline, not the stale diagnosis. *)

let health_filename = "catalog.health"
let health_magic = "xpest-catalog-health/4"

(* Lines starting with '!' are directives; '!' cannot start a key row
   (escape_dataset %-encodes it), so the directive space is
   unambiguous.  "!breaker<TAB>state<TAB>remaining<TAB>failures<TAB>
   cooldown" carries the circuit breaker over the loader seam.  An
   unknown "!name..." directive is skipped (counted in the
   skipped_directives stat) instead of corrupting the whole file, so a
   binary at this version survives state written by a newer one.  A
   malformed "!breaker" is still corruption — a directive we do
   understand must parse. *)
let breaker_state_to_string = function
  | `Closed -> "closed"
  | `Open -> "open"
  | `Half_open -> "half-open"

let breaker_state_of_string = function
  | "closed" -> Some `Closed
  | "open" -> Some `Open
  | "half-open" -> Some `Half_open
  | _ -> None

let save_health ?io t path =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (health_magic ^ "\n");
  let bv = Admission.breaker t.admission ~clock:t.clock in
  Buffer.add_string buf
    (Printf.sprintf "!breaker\t%s\t%d\t%d\t%d\n"
       (breaker_state_to_string bv.Admission.state)
       bv.Admission.remaining_ticks bv.Admission.consecutive_failures
       bv.Admission.cooldown);
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.health_tbl []
  |> List.sort (fun (a, _) (b, _) ->
         String.compare (key_to_string a) (key_to_string b))
  |> List.iter (fun (k, (h : hstate)) ->
         Buffer.add_string buf
           (Printf.sprintf "%s\t%d\t%d\t%d\t%d\t%d\t%d\n"
              (escape_dataset (key_to_string k))
              h.consecutive h.failures h.retries h.quarantines h.backoff
              (max 0 (h.until - t.clock))));
  Fault.atomic_write ?io path (Buffer.contents buf)

let load_health t path =
  let corrupt reason = Error (E.Corrupt { path; section = "health"; reason }) in
  let parse_row line =
    match String.split_on_char '\t' line with
    | [ ek; consecutive; failures; retries; quarantines; backoff; remaining ]
      -> (
        let ints =
          List.map int_of_string_opt
            [ consecutive; failures; retries; quarantines; backoff; remaining ]
        in
        match (unescape_dataset ek, ints) with
        | ( Ok ks,
            [ Some consecutive; Some failures; Some retries; Some quarantines;
              Some backoff; Some remaining ] )
          when List.for_all (fun f -> f >= 0)
                 [ consecutive; failures; retries; quarantines; remaining ]
               && backoff >= 1 -> (
            match key_of_string ks with
            | Error reason -> Error reason
            | Ok key ->
                Ok
                  ( key,
                    {
                      consecutive;
                      failures;
                      retries;
                      quarantines;
                      backoff;
                      until = (if remaining > 0 then t.clock + remaining else 0);
                      last_error = None;
                    } ))
        | Error reason, _ -> Error reason
        | Ok _, _ -> Error "malformed counters")
    | _ -> Error "wrong field count"
  in
  let parse_breaker line =
    match String.split_on_char '\t' line with
    | [ "!breaker"; state; remaining; failures; cooldown ] -> (
        match
          ( breaker_state_of_string state,
            int_of_string_opt remaining,
            int_of_string_opt failures,
            int_of_string_opt cooldown )
        with
        | Some state, Some remaining, Some failures, Some cooldown
          when remaining >= 0 && failures >= 0 && cooldown >= 1 ->
            Ok
              {
                Admission.state;
                remaining_ticks = remaining;
                consecutive_failures = failures;
                cooldown;
              }
        | _ -> Error "malformed !breaker directive")
    | _ -> Error "malformed !breaker directive"
  in
  match open_in path with
  | exception Sys_error reason -> Error (E.Io_failure { path; reason })
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> corrupt "empty file"
          | magic when magic <> health_magic ->
              corrupt (Printf.sprintf "bad magic %S (want %S)" magic health_magic)
          | _ ->
              let is_breaker line =
                match String.index_opt line '\t' with
                | Some i -> String.sub line 0 i = "!breaker"
                | None -> line = "!breaker"
              in
              let breaker = ref None in
              let skipped = ref 0 in
              let rec rows acc lineno =
                match input_line ic with
                | exception End_of_file -> Ok (List.rev acc)
                | "" -> rows acc (lineno + 1)
                | line when line.[0] = '!' ->
                    if not (is_breaker line) then begin
                      incr skipped;
                      rows acc (lineno + 1)
                    end
                    else (
                      match parse_breaker line with
                      | Ok view ->
                          breaker := Some view;
                          rows acc (lineno + 1)
                      | Error reason ->
                          corrupt (Printf.sprintf "line %d: %s" lineno reason))
                | line -> (
                    match parse_row line with
                    | Ok row -> rows (row :: acc) (lineno + 1)
                    | Error reason ->
                        corrupt (Printf.sprintf "line %d: %s" lineno reason))
              in
              (* parse everything before touching the table: a corrupt
                 file must not half-apply *)
              (match rows [] 2 with
              | Error _ as e -> e
              | Ok rows ->
                  List.iter
                    (fun (key, h) -> Hashtbl.replace t.health_tbl key h)
                    rows;
                  Option.iter
                    (Admission.restore_breaker t.admission ~clock:t.clock)
                    !breaker;
                  t.skipped_directives <- t.skipped_directives + !skipped;
                  Ok (List.length rows)))
