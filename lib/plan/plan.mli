(** Compiled query plans — the analysis half of the estimation engine.

    The paper's estimation procedure is two-phase: {e analyze} the
    XPath pattern (decompose it into root-to-leaf chains, determine
    the anchoring axis, pick which of Theorem 4.1 / Equations 2–5 /
    the Example 5.3 conversion applies to the target) and {e execute}
    joins against a synopsis.  [Plan.compile] performs the whole first
    phase once, independently of any {!Xpest_synopsis.Summary}: the
    resulting plan record is reusable across summaries, cacheable (see
    {!Xpest_util.Bounded_cache}) and batchable (identical plans share one
    execution in [Estimator.estimate_many]). *)

module Pattern = Xpest_xpath.Pattern

(** {1 Equation selection} *)

(** Which estimation formula the executor must apply to the target,
    decided purely from the pattern's shape and target position. *)
type equation =
  | Theorem_4_1  (** simple query, or branch query with a trunk target *)
  | Equation_2  (** branch/tail target via the simple query Q' *)
  | Equation_3  (** order-head target (first/second position 0) *)
  | Equation_4  (** deeper order target, scaled by the head's ratio *)
  | Equation_5  (** trunk target of an order query (min of bounds) *)
  | Conversion_5_3
      (** [following]/[preceding]: converted at execution time into
          sibling-axis queries along the encoding-table gaps *)

val equation_name : equation -> string
(** Stable lower-case tag, e.g. ["theorem_4_1"] — used by [pp], the
    CLI and the plan tests. *)

val equation_doc : equation -> string
(** One-line human description. *)

val equation_of : Pattern.shape -> Pattern.position -> equation
(** The compile-time dispatch.  @raise Invalid_argument on positions
    that cannot occur in the shape (excluded by {!Pattern.v}). *)

(** {1 Compiled join graph} *)

type jnode = { tag : string; position : Pattern.position }
type jedge = { parent : int; child : int; axis : Pattern.axis }

type chain = { anchored : bool; node_ids : int array }
(** One root-to-leaf chain of the query tree with its anchoring, as
    indices into its spec's nodes: the chain-feasibility pruning of
    the path join tests these against a pid's path types. *)

type join_spec = {
  shape : Pattern.shape;
  key : int;
      (** the path join's run-cache key, fixed at compile time: two
          live specs have the same key iff their shapes are equal *)
  nodes : jnode array;
  edges : jedge list;
  node_axes : Pattern.axis array;
      (** incoming axis per node; the head gets the anchoring axis *)
  first_axis : Pattern.axis;
  chains : chain list;
}
(** Everything the path join needs to execute, precomputed from the
    shape alone. *)

val join_of_shape : Pattern.shape -> join_spec
(** The spec of a shape.  Specs are hash-consed: while a spec of an
    equal shape is live (held by a plan or a caller), this returns
    that spec; otherwise it builds one under a key no other spec ever
    had.  Safe to call from several domains. *)

val chain_steps : join_spec -> chain -> (Pattern.axis * string) list
(** Each chain node's incoming axis and tag, head first. *)

(** {1 Equation-2 pre-compilation} *)

type eq2 = {
  q_prime : join_spec;  (** Q' = trunk/own, the other branch dropped *)
  pos_in_q' : Pattern.position;  (** the target spliced after the trunk *)
  ni : Pattern.position;  (** the last trunk node *)
}

(** {1 Order-equation pre-compilation}

    Equations 3–5 scale order-free estimates on the counterpart [Q]
    (the order axis dropped, {!Pattern.counterpart}) by each branch
    head's order survival ratio [S⃗_Q'(head) / S_Q'(head)], where [Q']
    is the counterpart with the {e other} branch cut to its head.  The
    compiler records every join spec this runs, so the executor only
    executes specs and never rebuilds a shape. *)

type region = Before | After
(** Where the own head must fall relative to the other branch head:
    [After] for the second head of [folls] and the first head of
    [pres], [Before] otherwise.  It names the o-histogram region the
    head's cells are read from. *)

type order_head = {
  head : Pattern.position;  (** [In_first 0] or [In_second 0] *)
  reduced : join_spec;
      (** [Q']: the counterpart with the other branch cut to its head *)
  reduced_head : Pattern.position;
      (** the head in [reduced]: [In_branch 0] or [In_tail 0] *)
  via : eq2;
      (** Equation 2 through trunk/own branch: on [reduced] it gives
          [S_Q'(head)], on the counterpart [S_Q(head)] *)
  own_tag : string;  (** the head's tag, whose o-histogram is read *)
  other_tag : string;  (** the other branch head's tag *)
  region : region;
}

type order_bound =
  | Off_trunk of { target : eq2; head : order_head }
      (** Equations 3 and 4: [S_Q(target)] through Equation 2 on the
          counterpart, scaled by its own head's ratio ([target] is
          [head.via] when the target is the head itself) *)
  | On_trunk of { first : order_head; second : order_head }
      (** Equation 5: the min of [S_Q(target)] (Theorem 4.1 on the
          counterpart) and both heads' order estimates *)

type order = {
  counterpart : join_spec;  (** [Q], the order axis dropped *)
  bound : order_bound;
}

val compile_order : Pattern.shape -> Pattern.position -> order
(** The order specs of a sibling-axis order query; Conversion 5.3
    calls it on each sibling-axis query it rewrites into.
    @raise Invalid_argument on any other shape or a branch position. *)

(** {1 Plans} *)

type t = {
  pattern : Pattern.t;
  equation : equation;
  join : join_spec;
  eq2 : eq2 option;  (** [Some] iff [equation = Equation_2] *)
  order : order option;
      (** [Some] iff [equation] is Equation 3, 4 or 5 *)
}

val compile : Pattern.t -> t
(** Summary-independent compilation, deterministic: two compiles of
    equal patterns give interchangeable plans, whose specs are the
    same hash-consed values while either is live
    ({!join_of_shape}).

    {b Invariant.}  Compilation can only raise on a shape/position
    pair that {!Pattern.v} would never produce (an order position in
    a branch shape or vice versa) — for any pattern built by
    [Pattern.v]/[Pattern.of_string] it is total.  The raises survive
    as guards against hand-assembled inconsistent IR, not as a
    reachable failure mode of the serving path. *)

val compile_position : Pattern.t -> Pattern.position -> t
(** Compile with the target overridden.  @raise Invalid_argument if
    the position is not in the pattern ({!Pattern.v}). *)

val pattern : t -> Pattern.t
val equation : t -> equation
val target : t -> Pattern.position

val key : t -> string
(** Canonical text of the normalized plan ({!Pattern.to_string} of the
    pattern); equal keys mean identical plans. *)

(** {1 Rendering} *)

val position_name : Pattern.position -> string
(** e.g. ["tail[1]"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line plan dump: pattern, equation tag, target, join graph
    (nodes, edges, anchoring), decomposed chains, the Equation-2
    pieces when present, and for Equations 3–5 the order specs: the
    counterpart, each head's cut counterpart [Q'] with the head's
    place in it, its tags and region and the simple query its
    Equation 2 runs through.  The CLI's [plan] command prints this. *)

val to_string : t -> string
