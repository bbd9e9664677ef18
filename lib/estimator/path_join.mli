(** The path (id) join (paper Section 4) — the execution half of the
    estimation engine.

    Given a compiled join spec ({!Xpest_plan.Plan.join_spec}), every
    query node starts with the full pid row of its tag from the
    p-histogram.  Pids are then pruned to a fixpoint: a pid survives
    an adjacent query edge (X, axis, Y) only if it has a partner on
    the other side such that (a) the partner relation [Pid_X ⊒ Pid_Y]
    holds (path-id containment, Section 2) and (b) the two tags stand
    in the axis's relation (parent-child adjacency for [/], ancestor
    order for [//]) on at least one shared root-to-leaf path.  Because
    [Pid_Y ⊆ Pid_X], the shared paths are exactly [Pid_Y]'s bits, so
    (b) only depends on the descendant-side pid.

    An anchored head step ([/n1] from the document node) keeps only
    the document root's pid on a matching tag.

    {b Path masks.}  A pid is a bitvector over the document's
    root-to-leaf paths, so every per-path test — does the chain embed
    into this path with node i on it, does the edge's tag relation
    hold on it — becomes a mask of the paths where it holds, computed
    bit-parallel over all paths at once from a read-only per-summary
    depth index: one packed word array holding, for each (tag, depth)
    that some path carries, the set of those paths, at an offset the
    index records per (tag, depth), and for each tag the depths where
    it occurs.  Path sets are a fixed number of words (XMark 0.05: 222
    paths, 4 words), and every mask is computed in place, with word
    AND, OR and zero-test kernels, into scratch words the join owns:
    the chain masks ({!chain_masks}) run the forward/backward
    embedding recurrence over the occurrence depths of the chain's
    tags, one path set per (node, depth); an edge mask ({!edge_mask})
    is one scan over the descendant tag's depths.  Chain pruning reads
    the mask words directly, so an uncached join allocates its result
    and no path set.  {!chain_masks} and {!edge_mask} copy the scratch
    out for the mask oracle.  Every edge (X, Y) lies on a chain in
    which X immediately precedes Y, and an embedding of the chain with
    Y on a path places X in the edge's relation to Y on the same path,
    so Y's chain mask lies inside the edge mask: the pids chain pruning
    keeps all meet it.  The join therefore computes edge masks only
    without chain pruning.

    {b Row sets over path slices.}  A tag's p-histogram row is its run
    of slots in the summary's flat arrays ({!Xpest_synopsis.Summary.flat}),
    read in place: its frequencies and its pids' paths are listed once
    per summary, on first use, and never copied.  Tag ids are the
    summary's tag codes, and the depth index is built from its coded
    paths.  With it come
    its slices: for each path the tag holds, the bitset of row entries
    whose pid holds the path.  A query node is a row set, a bitset over
    its tag's row.  Chain pruning ANDs the set with the OR of the
    slices of the mask's paths; the anchor keeps only the root's pid.
    The fixpoint does not test pid pairs: for an edge (X, Y), a Y pid's
    partners (the X pids containing it) are X's set ANDed with the
    slices of the Y pid's paths.  It survives iff they are not empty
    (and, without chain pruning, it meets the edge mask), and an X pid
    survives iff it is a partner of a surviving Y pid.  The word loops
    run over the non-zero words of X's set only, and a visit allocates
    nothing.  Join results hold row sets, not copies of rows.

    The chain/edge extraction lives in the compiler
    ({!Xpest_plan.Plan.join_of_shape}); this module only executes
    specs against a summary, memoizing results in a bounded run cache
    keyed on the spec's compiled key ({!Xpest_plan.Plan.join_spec}'s
    [key], one per distinct shape): a hit is one int lookup and
    allocates nothing.  The estimator's callers hand it compiled specs
    only. *)

type t
(** Join machinery for one summary: the read-only path-mask index and
    the bounded join-result (run) cache shared across queries. *)

val create :
  ?chain_pruning:bool ->
  ?config:Xpest_plan.Cache_config.t ->
  Xpest_synopsis.Summary.t ->
  t
(** Builds the path-mask index of the summary.  [chain_pruning]
    (default true) additionally prunes each node's pids by full-chain
    embeddability into the pid's path types before the pairwise
    fixpoint — see DESIGN.md "known deviations"; pass [false] to
    reproduce the paper's literal pairwise join (the A2 ablation).
    [config] bounds the run cache ([Cache_config.run]; default
    {!Xpest_plan.Cache_config.default}: 4096 entries); the run cache
    is plain LRU. *)

val chain_masks :
  t -> Xpest_plan.Plan.join_spec -> Xpest_plan.Plan.chain -> Xpest_util.Bitvec.t array
(** Per chain node i, the paths into which the whole chain embeds in
    order with node i somewhere on them (child steps adjacent,
    descendant steps later, an anchored head at the root).  Chain
    pruning keeps a pid of node i iff it intersects mask i.  A copy of
    the masks the join computes in place, for tests. *)

val edge_mask :
  t ->
  axis:Xpest_xpath.Pattern.axis ->
  anc:string ->
  desc:string ->
  Xpest_util.Bitvec.t
(** The paths on which [anc] stands in [axis]'s relation to [desc]
    (immediately above for [Child], anywhere above for [Descendant]).
    Without chain pruning, the fixpoint keeps a descendant-side pid
    only if it intersects this mask; with it, every kept pid does.  A
    copy of the mask the join computes in place, for tests. *)

type result

val exec : t -> Xpest_plan.Plan.join_spec -> result
(** Runs a precompiled join spec to fixpoint, memoized on the spec's
    key.  A spec of an [Ordered] shape joins its order-free
    counterpart (order axes do not constrain pids). *)

val pids :
  result -> Xpest_xpath.Pattern.position -> (Xpest_util.Bitvec.t * float) list
(** Surviving pids of a query node with their frequency estimates, in
    p-histogram order.  For [Ordered] shapes, use the original
    positions ([In_first] / [In_second]); they are translated
    internally.
    @raise Invalid_argument if the position is not in the shape. *)

val frequency : result -> Xpest_xpath.Pattern.position -> float
(** [f_Q(n)]: the summed frequency of the surviving pids. *)

val order_sum : result -> Xpest_xpath.Pattern.position -> (int -> float) -> float
(** [order_sum r n cell]: [cell] summed over the columns (positions in
    the tag's row, {!Xpest_synopsis.Summary.tag_pids}) of [n]'s
    surviving pids, in row order, from 0 — S⃗ of Equation 3 with [cell]
    a resolved {!Xpest_synopsis.Summary.order_lookup}.
    @raise Invalid_argument if the position is not in the shape. *)
