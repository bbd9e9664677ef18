(** The serving layer: many summaries behind one estimation service.

    The engine's artifacts are two-tier — compiled plans depend only
    on the query, while summaries depend on the document — so serving
    many documents at once splits naturally into a {e synopsis
    catalog} (named summaries, lazily loaded, bounded resident set)
    and an {e estimator pool} (one estimator per resident summary, all
    sharing a single compiled-plan cache).  {!estimate_batch_r} routes
    a mixed batch: each distinct query is compiled once for the whole
    pool, each summary's group executes against that summary's
    estimator, and every result is bit-identical to a fresh
    single-summary [Estimator.estimate] — caching, pooling, eviction
    and reloading never change a float, only when it is recomputed.

    Summaries enter the resident set on first use and are evicted by a
    scan-resistant segmented LRU ({!Xpest_util.Bounded_cache}) when
    the set exceeds its budget; their estimators (and per-summary join
    caches) leave with them, but the pool-shared plan cache survives
    evictions, so a query estimated against one summary is already
    compiled when it hits the next.  The budget is an entry count by
    default ([resident_capacity]) or an exact byte budget when
    [config.resident_bytes] is set (each resident costs
    [Summary.size_bytes]); hot keys can be pinned against eviction
    ({!pin}).  Replacement policy, budget unit and pinning only decide
    {e which} summaries stay resident — never a value.  Loads, hits
    and evictions are counted unconditionally, per catalog ({!stats});
    the catalog bumps no process-global counter, and its one global
    instrument is the [catalog.summary.load] timer.

    {2 Fault tolerance}

    Storage is allowed to fail; the serving loop is not.  All load and
    verification failures flow through the typed taxonomy
    {!Xpest_util.Xpest_error.t}, and the entry points ({!estimate_r},
    {!estimate_batch_r}, {!acquire_r}) return [result]s instead of
    raising.  Per key, the catalog runs a deterministic
    health state machine on a logical clock (one tick per acquire
    attempt, see {!clock}):

    - {e retry}: a transient failure ([Io_failure], [Corrupt]) is
      retried up to [max_retries] extra times within the same attempt;
    - {e quarantine}: after [failure_threshold] consecutive failed
      attempts the key is quarantined — further attempts are refused
      {e without touching storage} until the clock reaches the
      quarantine deadline, at which point one probe load is allowed.
      A failed probe re-quarantines with doubled backoff (capped at
      [backoff_max]); a success resets the key to healthy.

    A summary's bytes are checked once, when it loads (size and body
    checksum against the manifest); a resident hit serves the
    in-memory copy without touching storage.

    {2 Overload protection}

    Batches can additionally run under admission control
    ({!Xpest_catalog.Admission}, configured per catalog with
    [?admission]): each routed group passes a stage-boundary check
    before its acquire — deadline budget (modeled ticks per batch),
    load-queue bound (cold loads admitted per batch), and a circuit
    breaker over the loader seam.  A query group that fails the check
    is {e shed}: refused with a typed [Deadline_exceeded] or
    [Overloaded] error before any I/O, without ticking the clock or
    touching per-key health.  A shed error then meets the same
    degradation ladder as a failed acquire (below).  A key that a
    file-backed catalog's manifest does not hold ({!of_manifest}) is
    never charged or shed: its group fails [Unknown_key] exactly as it
    does without admission.

    {2 The degradation ladder}

    Batch answers come from a three-rung ladder: {b Exact} (the key's
    own summary, as always) → {b Fallback} (a resident sibling
    variance of the same dataset) → {b Sketch} (the dataset's
    always-resident fallback sketch, {!Xpest_synopsis.Sketch}: order-1
    Markov path counts, a few hundred bytes, coarse but never
    unavailable).  Sketches live in their own tiny byte-budgeted
    region ([?sketch_bytes]), pinned so the resident-set evictor can
    never reclaim them, and are loaded eagerly at construction
    ({!of_manifest}) — never lazily on the failure path they exist to
    cover.

    One rule arms the lower rungs: {e the catalog holds at least one
    sketch}.  Then a group whose error is of an eligible kind
    (unhealthy storage or pressure: [Io_failure], [Corrupt],
    [Stale_manifest], [Quarantined], [Capacity], [Deadline_exceeded],
    [Overloaded]) descends, whichever path raised it — a failed
    acquire or an admission shed; a malformed query's [Unknown_key]
    and bugs' [Internal] still fail.  A catalog without sketches fails
    fast with the typed error on both paths, even when a sibling
    variance is resident.  Sketch answers cost one admission tick (a
    resident hit's price) and are never queued, so the last rung
    cannot itself be shed; rung choice happens at the single-owner
    commit point, so the ladder is deterministic at any load
    fan-out.  Each slot's rung ({!slot_status}) is reported in
    {!last_batch_statuses} and the per-tier totals in {!stats}.

    Admission decisions are a pure function of (configuration,
    logical clock, route order): shedding reproduces bit-identically
    at any load-domain count, and with admission inactive (the default
    {!Admission.unlimited}) — or any configuration whose limits never
    bind — results, errors, stats and clock are byte-identical to an
    uncontrolled catalog.

    {2 The serving pipeline}

    Routed batches run a four-stage pipeline (control flow in
    {!Xpest_catalog.Pipeline}): {b route} groups queries by key in
    first-appearance order; {b acquire} — clock ticks, eviction,
    retry/quarantine — stays single-owner in the calling domain,
    strictly in route order; {b load}, the only stage that touches
    I/O, fans distinct-key loads out on an optional
    {!Xpest_util.Loader_pool} ahead of their acquire turn; {b execute}
    runs each key's group on the calling domain right after its
    acquire, overlapping the loads still in flight.

    The ordering contract: every stateful decision — clock value, LRU
    probe and eviction, loader outcome and fault-injector draw, retry
    count, quarantine transition — happens in exactly the order the
    sequential loop makes it, at {e any} load fan-out.  Loads
    are only started early when the planner can prove the acquire will
    need them (non-resident keys cannot become resident mid-batch, and
    quarantine deadlines are exactly predictable from the logical
    clock); a prediction the planner cannot prove just loads inline at
    its turn, exactly like the blocking path.  Consequently results
    (values {e and} errors) and {!stats} are bit-identical to the
    sequential run; only {!last_batch_metrics} is unavailable
    (cleared) under a concurrent [loads] policy, because per-group
    counter attribution requires inline loads.

    Loader requirements: with a concurrent [loads] policy the loader
    runs on loader domains, so it must be thread-safe and per-key
    deterministic (its outcome must not depend on cross-key call
    order).  File-backed loaders ({!of_manifest}) qualify; a
    {!Xpest_util.Fault} injector must then be the keyed kind
    ([Fault.create_keyed]) — the stream kind is only deterministic
    under the blocking policy.

    Nothing else runs on a loader domain: the plan cache, the resident
    set and every estimator are touched only on the calling domain, so
    none of them is synchronized.  A catalog belongs to one caller at a
    time; driving it from several domains at once is not supported. *)

module Summary = Xpest_synopsis.Summary
module Manifest = Xpest_synopsis.Manifest
module Pattern = Xpest_xpath.Pattern
module Estimator = Xpest_estimator.Estimator
module E = Xpest_util.Xpest_error

(** {1 Keys} *)

type key = { dataset : string; variance : float }
(** One summary's name: the document (or dataset) it summarizes and
    the variance target both histogram families were built at. *)

val key_to_string : key -> string
(** ["dataset@variance"], e.g. ["dblp@0"] — the key syntax of routed
    query files and the CLI.  The variance is printed with the
    shortest decimal that parses back to the exact float, so distinct
    keys never print alike.  Round-trips through {!key_of_string} for
    every dataset string (the {e last} ['@'] separates the variance,
    and the printed form always carries one). *)

val key_of_string : string -> (key, string) result
(** Inverse of {!key_to_string}; a bare ["dataset"] (no ['@'])
    means variance 0.  Datasets containing ['@'] are supported — the
    split is at the last ['@'] — but their bare form would parse
    differently, so always use the full ["dataset@variance"] spelling
    for them.  Rejects empty datasets and non-finite or negative
    variances. *)

val key_filename : key -> string
(** Canonical synopsis file name of a key inside a catalog directory,
    e.g. ["dblp_v0.syn"].  Every dataset byte outside [A-Za-z0-9.-]
    (including ['_'], ['%'], ['/'] and ['@']) is %XX-escaped, so the
    name is flat, collision-free and invertible ({!key_of_filename})
    for arbitrary dataset strings. *)

val key_of_filename : string -> (key, string) result
(** Inverse of {!key_filename}: recover the key from a synopsis file
    name.  Errors on a missing [.syn] suffix, missing [_v] separator,
    malformed %-escape, empty dataset, or unparseable variance. *)

(** {1 Resilience policy} *)

type resilience = {
  max_retries : int;
      (** extra loader calls after a transient failure, per attempt
          (default 2) *)
  failure_threshold : int;
      (** consecutive failed attempts before quarantine (default 3) *)
  backoff_base : int;
      (** first quarantine length in clock ticks (default 4) *)
  backoff_max : int;  (** backoff doubling cap, in ticks (default 64) *)
}
(** The per-key health table itself is bounded at 4096 keys: at the
    bound, fully healthy entries are pruned, and if everything tracked
    is unhealthy a new cold key is refused with [Capacity] without a
    loader call. *)

val default_resilience : resilience

(** {1 Catalogs} *)

type t

val create_r :
  ?resident_capacity:int ->
  ?config:Xpest_plan.Cache_config.t ->
  ?resilience:resilience ->
  ?admission:Admission.config ->
  ?sketch_bytes:int ->
  loader:(key -> (Summary.t, E.t) result) ->
  unit ->
  t
(** A catalog over an arbitrary summary source.  [loader] is called
    once per non-resident key on demand and reports failures as
    values; a loader that raises anyway has its escape classified into
    the typed taxonomy ([Sys_error] → [Io_failure],
    [Xpest_error.Error e] → [e], [Invalid_argument] / [Failure] →
    [Internal]), so it flows through the same retry/quarantine
    machinery on any domain.  [resident_capacity] bounds how many
    summaries (and their estimators) stay in memory at once (default
    {!default_resident_capacity}) — unless [config.resident_bytes] is
    set, which replaces the count bound with a byte budget costed by
    each summary's exact wire size ({!Summary.size_bytes}).  The
    resident set is segmented LRU ({!Xpest_util.Bounded_cache.segmented}).
    [config] also sets the per-cache capacities of the shared plan
    cache ([config.plan]) and of every pooled estimator's join caches.
    [admission] (default {!Admission.unlimited}, a no-op) enables
    overload protection on the batch entry points — see the preamble.
    [sketch_bytes] (default {!default_sketch_bytes}) budgets the
    pinned fallback-sketch region; sketches are installed with
    {!install_sketch} (or automatically by {!of_manifest}).
    @raise Invalid_argument if [resident_capacity < 1],
    [sketch_bytes < 1], or the resilience policy is malformed
    ([max_retries < 0], [failure_threshold < 1], [backoff_base < 1],
    or [backoff_max < backoff_base]), or if
    [config.resident_bytes] is [Some b] with [b < 1], or if the
    [admission] configuration is malformed (see {!Admission.create}). *)

val default_resident_capacity : int
(** 8 resident summaries. *)

val default_sketch_bytes : int
(** 256 KiB — the fallback-sketch region's default byte budget.
    Sketches are hundreds of bytes to a few KiB each, so the default
    pins a last-resort tier for hundreds of datasets. *)

val install_sketch : t -> string -> Xpest_synopsis.Sketch.t -> (unit, E.t) result
(** Install (or replace) [dataset]'s fallback sketch in the pinned
    region, arming the degradation ladder (see the preamble).  The
    sketch executor is built here, once.  Fails with [Capacity] —
    without installing anything — when the sketch would push the
    region past its byte budget: the region's budget is a hard bound,
    pre-checked because pinned entries otherwise admit over budget.
    Counted in [stats.sketch_failures] on refusal. *)

val of_manifest :
  ?resident_capacity:int ->
  ?config:Xpest_plan.Cache_config.t ->
  ?resilience:resilience ->
  ?admission:Admission.config ->
  ?sketch_bytes:int ->
  ?io:Xpest_util.Fault.Io.t ->
  dir:string ->
  Manifest.t ->
  t
(** The file-backed instantiation: keys resolve through the manifest
    to synopsis files under [dir], loaded with
    {!Xpest_synopsis.Synopsis_io.load_verified}: one read, one body
    checksum.  The loader re-verifies each file's size and stored
    checksum against the manifest entry —
    a mismatch (a synopsis rebuilt behind the manifest's back) is
    [Stale_manifest], an absent manifest row is [Unknown_key], and
    file damage surfaces as [Io_failure] or [Corrupt].  [io]
    substitutes the storage interface (fault injection under test,
    see {!Xpest_util.Fault.io}); it is threaded through summary and
    sketch loading.

    Every sketch in the manifest's sketch table is loaded {e eagerly}
    here (verified against its recorded size and checksum, through the
    same [io]) and installed in the pinned region — the sketch tier
    must be resident before storage degrades, not fetched through the
    failing storage it exists to cover.  A sketch that cannot be
    installed is counted in [stats.sketch_failures], not fatal: it
    only narrows the ladder for its dataset. *)

val manifest_filename : string
(** ["catalog.manifest"] — the manifest's conventional file name
    inside a catalog directory (the CLI reads and writes this). *)

val save_entry : dir:string -> Manifest.t -> key -> Summary.t -> Manifest.t
(** Persist [summary] as [dir ^ "/" ^ key_filename key] and return the
    manifest with that entry added (replacing any previous entry of
    the key).  The caller decides when to {!Manifest.save} the result.
    @raise Sys_error on I/O failure. *)

val sketch_filename : string -> string
(** Canonical sketch file name of a dataset inside a catalog
    directory, e.g. ["dblp.sketch"] (dataset %XX-escaped like
    {!key_filename}). *)

val save_sketch :
  dir:string -> Manifest.t -> string -> Xpest_synopsis.Sketch.t -> Manifest.t
(** Persist [dataset]'s fallback sketch as
    [dir ^ "/" ^ sketch_filename dataset] and return the manifest with
    its sketch entry added (replacing any previous one) — the
    [catalog build] counterpart of {!save_entry} for the sketch tier.
    @raise Sys_error on I/O failure. *)

val sketch_check :
  ?io:Xpest_util.Fault.Io.t ->
  dir:string ->
  Manifest.sketch_entry ->
  (string, E.t) result
(** {!manifest_verify}'s analogue for one sketch entry: header parse +
    size + stored checksum against the manifest record, returning the
    sketch file's path on success (used by [catalog info --health]). *)

val manifest_verify :
  ?io:Xpest_util.Fault.Io.t ->
  dir:string ->
  Manifest.t ->
  key ->
  (unit, E.t) result
(** Check one manifest entry against its on-disk synopsis (header
    parse + size + stored checksum, without decoding the body): the
    verification {!of_manifest} wires in, also used by
    [catalog info --health]. *)

(** {1 Estimation} *)

val acquire_r : t -> key -> (Estimator.t, E.t) result
(** One acquire attempt (one clock tick): return [key]'s pooled
    estimator, loading the summary if it is not resident.  This is
    where the retry/quarantine machinery runs; see the
    module preamble.  The estimator is only guaranteed valid until
    the next acquire (eviction may retire it) — prefer
    {!estimate_r}/{!estimate_batch_r} unless batching manually. *)

val estimate_r : t -> key -> Pattern.t -> (float, E.t) result
(** Route one query: estimate against [key]'s summary, loading it if
    it is not resident.  [Ok] values are bit-identical to
    [Estimator.estimate] on a fresh estimator over the same summary. *)

val estimate_batch_r :
  ?loads:Xpest_util.Loader_pool.t ->
  t ->
  (key * Pattern.t) array ->
  (float, E.t) result array
(** Route a mixed batch with per-query fault isolation.  The batch is
    grouped by key (first-appearance order); each group runs through
    the pooled estimator's batched path — duplicate queries inside a
    group are deduped and every distinct query is compiled at most
    once across {e all} groups, because the plan cache is pool-shared.
    Results come back in input order: [Ok] floats are bit-identical
    to a fresh single-summary [Estimator.estimate] of their
    (key, query) pair, and a key that cannot be served fails only its
    own queries ([Error] rows) — never the rest of the batch, and
    never by raising.  One load per distinct key per batch at most —
    unless the batch has more distinct keys than the resident
    capacity, in which case summaries evict and reload mid-batch
    (results still do not change).

    With [loads] (a {!Xpest_util.Loader_pool} of more than one
    domain): loads the planner can prove necessary start before their
    acquire turn and are awaited at the in-order commit point; each
    group executes on the caller right after its commit, overlapping
    the remaining loads.  The loader must then be thread-safe and
    per-key deterministic (see the preamble).  A blocking [loads]
    policy (the default, or a pool of one domain) defers every load
    to its acquire turn — the exact sequential schedule for {e any}
    loader.

    {b Bit-identity holds} at any load fan-out: the returned array
    equals the sequential one result-for-result, including under
    mid-batch eviction and fault injection, and {!stats} (clock
    included) match field-for-field (only [prefetched_loads] counts
    pipeline planning).  {!last_batch_metrics} is cleared under a
    concurrent [loads] policy (see the preamble). *)

(** {1 Observability} *)

type stats = {
  resident : int;  (** summaries currently in memory *)
  resident_capacity : int;
      (** resident budget, in cost units: entries by default, bytes
          when [config.resident_bytes] set the budget *)
  resident_cost : int;
      (** used budget, in the same units as [resident_capacity] *)
  resident_bytes : int;
      (** exact wire bytes of the resident summaries (equals
          [resident_cost] under a byte budget) *)
  resident_probationary : int;
      (** residents in the probationary segment (touched once) *)
  resident_protected : int;
      (** residents promoted to the protected segment (touched at
          least twice; survive cold scans) *)
  resident_pinned : int;  (** residents currently pinned *)
  loads : int;
      (** successful loads (cold + reloads); failed attempts count in
          [failures], quarantine refusals in neither *)
  hits : int;  (** estimator-pool hits (summary already resident) *)
  evictions : int;
  failures : int;  (** failed acquire attempts (counted after retries) *)
  retries : int;  (** transient-failure retries across all keys *)
  quarantines : int;  (** quarantine entries across all keys *)
  prefetched_loads : int;
      (** loads the pipeline started ahead of their acquire turn
          (0 without a concurrent [loads] policy); counts submissions,
          including the rare prefetch a commit-side refusal then
          discards *)
  shed_queries : int;
      (** queries refused by admission control (deadline, queue bound
          or breaker) — each one got a typed error or a fallback
          answer, never silence *)
  shed_served_queries : int;
      (** shed queries a rung of the ladder answered, from a resident
          sibling or the sketch tier; acquire failures the ladder
          absorbed are not sheds and are not counted *)
  fallback_queries : int;
      (** queries served degraded from a resident sibling variance:
          sheds and acquire failures the ladder absorbed (sketch-armed
          catalogs only) *)
  sketch_queries : int;
      (** queries answered from the sketch tier (the ladder's last
          rung) *)
  sketch_resident : int;  (** fallback sketches installed *)
  sketch_bytes : int;
      (** exact wire bytes pinned in the sketch region; never exceeds
          [sketch_budget] (pre-checked at install) *)
  sketch_budget : int;  (** the region's byte budget ([?sketch_bytes]) *)
  sketch_failures : int;
      (** sketches that could not be installed: over budget,
          unreadable, corrupt, or stale against the manifest *)
  skipped_directives : int;
      (** unknown [!directive] lines skipped by {!load_health}
          (forward compatibility with newer writers) *)
  plan_cache : Xpest_util.Bounded_cache.stats;
      (** the pool-shared compiled-plan cache *)
}

val stats : t -> stats
(** This catalog's own counts, tracked unconditionally (no counter
    enablement needed): the one record of its loads, hits, failures,
    sheds and tiers.  Two catalogs in one process never share a
    count.  [hits] and [evictions] are the resident set's own
    lookup-hit and eviction totals. *)

type health_state =
  | Healthy
  | Quarantined of { until : int }
      (** refused without I/O while [clock t < until] *)

type key_health = {
  h_key : key;
  h_state : health_state;
  h_consecutive_failures : int;
  h_failures : int;  (** lifetime failed attempts *)
  h_retries : int;
  h_quarantines : int;
  h_next_backoff : int;  (** length of the next quarantine, in ticks *)
  h_last_error : E.t option;
}

val health : t -> key_health list
(** Health report over every tracked key (keys the catalog has
    attempted at least once and not pruned as healthy), sorted by
    {!key_to_string}.  Tracked unconditionally. *)

val clear_quarantine : t -> key -> key_health option
(** Operator override: discard [key]'s entire failure history —
    quarantine deadline, accumulated backoff, lifetime counts — so the
    next acquire probes the loader immediately with a fresh state.
    Returns the discarded state ([None] if the key was not tracked).
    Does not touch the resident set: a resident, serving summary stays
    resident. *)

val clear_all_quarantine : t -> key_health list
(** {!clear_quarantine} over every tracked key at once (the CLI's
    [clear-quarantine --all]).  Returns the discarded states, sorted
    like {!health}.  The circuit breaker is {e not} reset — it guards
    the loader seam, not any key, and recovers through its own
    half-open probe. *)

(** {1 Overload observability}

    See the preamble's overload-protection section and
    {!Xpest_catalog.Admission} for the model. *)

type slot_status =
  | Served  (** answered exactly, from the key's own summary *)
  | Fallback of key
      (** answered degraded from this resident sibling variance of the
          same dataset — after a shed or an eligible acquire failure
          on a sketch-armed catalog; the result array holds the
          sibling's estimate *)
  | Sketch
      (** answered coarsely from the dataset's pinned fallback sketch,
          the ladder's last rung; the result array holds the sketch
          estimate *)
  | Shed
      (** shed and not absorbed by the ladder (a sketch-free catalog,
          or no rung for the dataset); the result array holds the
          typed error *)

val last_batch_statuses : t -> slot_status array
(** How each query slot of the most recent {!estimate_batch_r} was
    answered, parallel to its result array (empty before any batch).
    All-[Served] whenever nothing was shed and the ladder never
    engaged.  A failed acquire the ladder does not absorb keeps
    [Served]; its row carries the typed error. *)

val admission_stats : t -> Admission.stats
(** Lifetime shed/breaker counters of the catalog's admission
    controller (all zero when admission is inactive). *)

val breaker : t -> Admission.breaker_view
(** The circuit breaker's current state, anchored on {!clock} (for
    stats output and [catalog info --health]). *)

(** {1 Health persistence}

    The failure history can outlive the process: {!save_health} writes
    every tracked key's state to a line-oriented file and
    {!load_health} folds one back in.  Quarantine deadlines are stored
    as {e remaining ticks} and re-anchored on the loading catalog's
    {!clock} — logical clocks are per-instance, absolute deadlines
    would not survive a restart.  [h_last_error] is deliberately not
    persisted (a stale diagnosis); counts, backoff and deadline are. *)

val health_filename : string
(** ["catalog.health"] — the conventional file name inside a catalog
    directory (next to {!manifest_filename}). *)

val save_health : ?io:Xpest_util.Fault.Io.t -> t -> string -> unit
(** Write the health table to [path], crash-safely
    ({!Xpest_util.Fault.atomic_write}: temp file + atomic rename, a
    killed process never leaves a torn file).  The format (v4) also
    carries the circuit breaker's state as a [!breaker] directive
    line, with its probe deadline stored as remaining ticks like
    quarantine deadlines.  [io] substitutes the write interface
    (write-abort injection under test).
    @raise Sys_error on I/O failure (the temp file is cleaned up). *)

val load_health : t -> string -> (int, E.t) result
(** Merge the health file at [path] into the catalog
    ([Hashtbl.replace] per key — on-file state wins; a persisted
    breaker state is re-anchored on this catalog's {!clock}) and
    return how many keys were loaded.  Only the current (v4) format is
    accepted; any other header is corrupt (a v3 file, written before
    the degraded-hit columns were dropped, must be deleted).  Forward
    compatibility: an unknown [!directive] line — one whose first
    tab-field is not [!breaker] — is skipped and counted in
    [stats.skipped_directives], so state written by a newer binary
    still loads; a malformed [!breaker] is still corruption.
    Otherwise all-or-nothing: a malformed file is
    [Error (Corrupt {section = "health"; _})] and changes nothing
    (skipped-directive counts included); an unreadable one is
    [Error (Io_failure _)]. *)

val clock : t -> int
(** The catalog's logical clock: one tick per acquire attempt (each
    routed group of {!estimate_batch_r} is one attempt).  Quarantine
    deadlines are expressed on this clock, which is what makes
    backoff deterministic under test. *)

val last_batch_metrics : t -> (key * (string * int) list) list
(** Per-key observability-counter deltas of the most recent
    {!estimate_batch_r} call, in the batch's
    group order: each group is bracketed by
    {!Xpest_util.Counters.snapshot}, so the rows are attributable per
    summary even though counters are process-global (see the caveat
    in [counters.mli]).  The brackets are taken only while counting is
    enabled ({!Xpest_util.Counters.enabled} at the batch's start):
    with counting off no counter moves, so a batch then takes no
    snapshot at all.  Empty when counters were disabled during the
    batch, or before any batch ran. *)

val keys_by_recency : t -> key list
(** Resident keys in retention order: the protected segment first
    (most-recent first), then probationary — the reverse of eviction
    order (test/debug aid). *)

(** {1 Pinning}

    A pinned key's summary is never evicted (it still counts against
    the resident budget).  Pins are sticky on the {e key}: pinning a
    key that is not resident yet takes effect when it is next loaded,
    and a pin survives [remove]/eviction of the entry.  The CLI's
    [catalog estimate --pin KEY] uses this to keep hot tenants'
    summaries resident across cold scans. *)

val pin : t -> key -> unit
val unpin : t -> key -> unit
val pinned : t -> key -> bool
