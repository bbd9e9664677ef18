(** One driver per table and figure of the paper's evaluation
    (Section 7).  Each driver returns both structured data (for tests
    and programmatic use) and a rendered ASCII artefact via
    {!render}. *)

(** {1 Structured results} *)

type table = {
  id : string; (** "T1" .. "T5", "F9" .. "F13" *)
  title : string;
  header : string list;
  rows : string list list;
}

type figure = {
  fid : string;
  ftitle : string;
  x_label : string;
  y_label : string;
  series : (string * (float * float) list) list;
}

type artefact = Table of table | Figures of figure list

val render : artefact -> string

(** {1 Drivers} *)

val table1 : Env.t list -> artefact
(** Dataset characteristics: size, #distinct tags, #elements. *)

val table2 : Env.t list -> artefact
(** Workload sizes: simple / branch / total without order; with
    order. *)

val table3 : Env.t list -> artefact
(** Path statistics: #distinct paths, pid bytes, #distinct pids;
    encoding-table / pid-table / compressed binary-tree bytes. *)

val table4 : Env.t list -> artefact
(** Construction for order-free estimation: path collection time,
    p-histogram size range over the variance sweep and build time —
    versus the XSketch baseline built at a matching budget. *)

val table5 : Env.t list -> artefact
(** Construction for order data: order collection time, o-histogram
    size range and build time. *)

val variance_sweep : float list
(** The intra-bucket variance values swept in Figure 9 and the error
    figures: [0; 1; 2; 4; 6; 8; 10; 12; 14]. *)

val figure9 : Env.t list -> artefact
(** P- and o-histogram memory vs intra-bucket variance, one figure per
    dataset. *)

val figure10 : Env.t list -> artefact
(** Relative error of simple / branch / all order-free queries vs
    p-histogram memory (swept through the p-variance). *)

val figure11 : Env.t list -> artefact
(** p-histogram vs XSketch at equal total memory. *)

val figure12 : Env.t list -> artefact
(** Order queries, target in a branch part: error vs o-histogram
    memory, one series per p-variance in {0, 1, 5, 10}. *)

val figure13 : Env.t list -> artefact
(** Same sweep with trunk targets (Equation 5). *)

(** {1 Ablations (beyond the paper)} *)

val ablation_order : Env.t list -> artefact
(** A1 — what the order statistics buy: error on the order-axis
    workloads for (a) the full estimator, (b) the order-blind estimate
    of the counterpart query (the upper bound a system without order
    summaries would use), (c) the XSketch baseline, (d) the position
    histogram of Wu et al. (containment-only). *)

val ablation_chain_pruning : Env.t list -> artefact
(** A2 — the chain-feasibility strengthening of the path join
    (DESIGN.md "known deviations"): order-free workload error with the
    paper's literal pairwise join vs the chain-pruned join. *)

(** {1 Serving (beyond the paper)} *)

val serving : Env.t list -> artefact
(** S1 — multi-dataset serving: the full workload of every dataset
    routed through one {!Xpest_catalog.Catalog} at two variance
    targets per dataset, with a resident capacity one short of the key
    count (so summaries evict and reload mid-run), versus a loop of
    fresh single-summary estimators.  Reports loads / pool hits /
    evictions, cross-summary plan-cache reuse, and the bit-identity of
    every routed result against the fresh-estimator reference. *)

val all_ids : string list

val run : Env.t list -> string -> artefact
(** Dispatch by id ("t1" ... "f13", "a1", "a2", "s1";
    case-insensitive).  @raise Invalid_argument on unknown ids. *)
