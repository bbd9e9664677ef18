(** Selectivity estimation for the full query fragment (paper
    Sections 4 and 5) — the execution half of the compile-then-execute
    engine.

    Every query is first compiled ({!Xpest_plan.Plan.compile}) into a
    summary-independent plan — decomposed chains, join spec, and the
    equation tag picked at compile time — then executed here against
    one summary.  Compiled plans are memoized per estimator in a
    bounded LRU ({!Xpest_util.Bounded_cache}).

    - [Theorem_4_1]: simple queries, and branch queries with a trunk
      target — the joined frequency is the selectivity.
    - [Equation_2]: branch/tail targets via the precompiled simple
      query Q' under the Node Independence Assumption.
    - [Equation_3] / [Equation_4]: sibling-axis order targets under
      the Node Order Uniformity and Node Containment Uniformity
      Assumptions, reading the o-histogram for the sibling heads.
    - [Equation_5]: trunk targets of order queries (a min over upper
      bounds).
    - [Conversion_5_3]: [following] / [preceding] axes, converted into
      sets of sibling-axis queries along the encoding-table gap
      between the trunk tag and the target head (paper Example 5.3),
      summing the per-conversion estimates. *)

type t

val create_plan_cache :
  ?capacity:int ->
  unit ->
  (Xpest_xpath.Pattern.t, Xpest_plan.Plan.t) Xpest_util.Bounded_cache.t
(** A compiled-plan cache wired to the estimator's plan-cache
    hit/miss/evict counters.  Plans are summary-independent, so one
    cache can be shared by many estimators ([create ~plans]): a pool
    serving several summaries then compiles each distinct query once
    (the catalog's router does exactly this).  The cache is not
    synchronized: use it from one domain at a time.  Default capacity
    {!Xpest_util.Bounded_cache.default_capacity}. *)

val create :
  ?chain_pruning:bool ->
  ?config:Xpest_plan.Cache_config.t ->
  ?plans:(Xpest_xpath.Pattern.t, Xpest_plan.Plan.t) Xpest_util.Bounded_cache.t ->
  Xpest_synopsis.Summary.t ->
  t
(** Estimation caches (compiled plans, tag relationships, chain
    feasibility, join results) persist across queries.
    [chain_pruning] is forwarded to {!Path_join.create}; [config]
    gives each cache its own capacity (default
    {!Xpest_plan.Cache_config.default}).  [plans] substitutes an
    externally owned compiled-plan cache (see {!create_plan_cache});
    when given, [config.plan] is ignored — capacity was fixed by the
    cache's owner. *)

val summary : t -> Xpest_synopsis.Summary.t


val plan_of : t -> Xpest_xpath.Pattern.t -> Xpest_plan.Plan.t
(** The compiled plan the estimator will execute for this query,
    memoized in the bounded plan cache. *)

val estimate : t -> Xpest_xpath.Pattern.t -> float
(** Estimated selectivity of the pattern's target node.  Always
    non-negative and finite; 0 when the join empties a required node
    or a ratio denominator vanishes.  Clamps of non-finite or negative
    intermediates are counted under [estimator.guard_clamped] and
    surfaced in {!explain} derivations.

    {b Invariant.}  The executor's internal [Invalid_argument] raises
    (equation dispatch on a shape the plan cannot carry, Conversion
    5.3 applied to a sibling axis, [Path_join] position lookups) are
    unreachable when executing a plan compiled from the same pattern —
    [Plan.compile] decides the equation from the shape that the
    executor then matches on.  They survive as IR-corruption guards;
    {!try_estimate} additionally demotes any such escape to
    [Error (Internal _)], so the serving path cannot crash even if
    the invariant is ever violated. *)

val estimate_position : t -> Xpest_xpath.Pattern.t -> Xpest_xpath.Pattern.position -> float
(** Estimate for an arbitrary node of the pattern (ignoring the
    pattern's own target designation).
    @raise Invalid_argument if the position is not in the pattern. *)

val estimate_many :
  t ->
  Xpest_xpath.Pattern.t array ->
  float array
(** Batched estimation: compile, dedupe structurally identical
    queries, execute each distinct plan once, and fan the result back
    out.  [estimate_many t qs.(i)] is bit-identical to
    [estimate t qs.(i)] for every [i]; duplicates reuse the already
    computed float, and distinct queries sharing sub-shapes share
    joins through the bounded run cache.

    An empty batch is a strict no-op — no counters bumped, [[||]]
    back — so serving-pipeline stages may re-enter
    with empty groups without leaving a trace (same for
    {!try_estimate_many}). *)

val try_estimate :
  t -> Xpest_xpath.Pattern.t -> (float, Xpest_util.Xpest_error.t) result
(** {!estimate} with the engine's exceptions demoted to
    [Error (Internal _)].  On [Ok] the float is bit-identical to
    {!estimate}.  The raising entry points treat an escape as a
    programmer error; the serving path treats it as a per-query
    failure to isolate — this is the isolating form. *)

val try_estimate_many :
  t ->
  Xpest_xpath.Pattern.t array ->
  (float, Xpest_util.Xpest_error.t) result array
(** Batched {!try_estimate}: the fast compile-dedupe-execute pass when
    every query is healthy, falling back to per-query isolation (same
    floats, by the {!estimate_many} contract) when one poisons the
    batch.  Never raises; results are in input order. *)

type explanation = {
  value : float;  (** same value [estimate] returns *)
  derivation : string list;
      (** one human-readable line per estimation step: which theorem /
          equation fired and with which intermediate quantities,
          including any guard clamps *)
}

val explain : t -> Xpest_xpath.Pattern.t -> explanation
(** Like {!estimate} but records the derivation.  Not reentrant: one
    [explain] at a time per estimator. *)
