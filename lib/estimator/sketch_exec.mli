(** Sketch-tier executor: answers a compiled plan from a fallback
    sketch ({!Xpest_synopsis.Sketch}) instead of a full summary.

    This is the serving side of the catalog's last degradation rung.
    [create] rebuilds the estimating label-split synopsis
    ({!Xpest_baseline.Xsketch.of_export}) once; estimation itself is
    pure, allocation-light, and deterministic, so a sketch-served
    group is bit-identical whatever the catalog loaded before it.

    The executor takes the same {!Xpest_plan.Plan.t} IR the exact tier
    compiles — the catalog's shared plan cache keeps routing and
    dedupe identical across tiers — but only the plan's normalized
    pattern carries information for a sketch: tag-level Markov
    statistics know nothing of the summary's join equations, so
    estimates are coarse upper-bound-flavored approximations, never
    refusals. *)

type t

val create : Xpest_synopsis.Sketch.t -> t
(** Rebuild the estimating synopsis from the sketch.  Cheap (linear in
    sketch size); intended to run once per install, not per query. *)

val estimate : t -> Xpest_xpath.Pattern.t -> float

val estimate_plan : t -> Xpest_plan.Plan.t -> float
(** [estimate] of the plan's normalized pattern. *)
