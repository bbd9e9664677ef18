(** The complete estimation synopsis for one document.

    Bundles everything the estimator reads: the encoding table, the
    path-id labeling, the p-histograms (path information) and the
    o-histograms (order information), built at given variance
    thresholds.  Construction is staged so the harness can time and
    size each stage separately (paper Tables 4 and 5):

    {[
      let base  = Summary.collect doc in          (* paths + order *)
      let s     = Summary.assemble ~p_variance:0. ~o_variance:0. base
    ]}

    [Summary.build] composes both stages. *)

type base
(** Variance-independent statistics: encoding table, labeling,
    pathId-frequency and path-order tables. *)

type t

val collect : Xpest_xml.Doc.t -> base
val collect_paths_only : Xpest_xml.Doc.t -> base
(** Like {!collect} but skips the path-order sweep; {!assemble} on the
    result supports only order-free estimation (order lookups return
    0).  Used when benchmarking path collection in isolation. *)

val assemble : ?p_variance:float -> ?o_variance:float -> base -> t
(** Variances default to 0 (exact summaries). *)

val without_order : base -> base
(** Drop the path-order statistics (subsequent {!assemble} calls skip
    o-histogram construction; order lookups return 0).  Shares the
    path-side components with the input. *)

val build :
  ?p_variance:float -> ?o_variance:float -> Xpest_xml.Doc.t -> t

(** {1 Accessors} *)

val doc : t -> Xpest_xml.Doc.t
(** @raise Invalid_argument on a synopsis loaded with {!load} (the
    document is not persisted — that is the point of a synopsis). *)

val base : t -> base
(** @raise Invalid_argument on a loaded synopsis. *)

val labeler : t -> Xpest_encoding.Labeler.t
(** @raise Invalid_argument on a loaded synopsis. *)

val root_pid : t -> Xpest_util.Bitvec.t
(** Path id of the document root (the all-paths vector); anchors
    absolute [/n1] steps in the path join. *)

val tags : t -> string array
(** All element tags the synopsis knows, by tag code. *)

val tag_code : t -> string -> int
(** A tag's code, [-1] for a tag the synopsis does not know: one probe
    of [by_hash], mostly. *)

val num_paths : t -> int
(** Distinct root-to-leaf paths: the encoding table's size, and the
    width of every path id. *)

val paths : t -> string list list
(** The encoding table's paths in encoding order (encoding 1 first),
    each root first: what {!Xpest_encoding.Encoding_table.paths} gives
    for the table the summary was built from. *)

val gap_tags : t -> encoding:int -> anc:string -> desc:string -> string list list
(** {!Xpest_encoding.Encoding_table.gap_tags} on the summary's path
    [encoding].  @raise Invalid_argument if the encoding is not in
    [1 .. num_paths]. *)

val pid : t -> int -> Xpest_util.Bitvec.t
(** [pid t i] is a copy of path id [i], the one a p-histogram slot
    names by [i]. *)

val pf_table : base -> Pf_table.t
val po_table : base -> Po_table.t option
val p_variance : t -> float
val o_variance : t -> float

val tag_pids : t -> string -> (Xpest_util.Bitvec.t * float) list
(** Distinct path ids carried by a tag with their p-histogram
    frequency estimates, in row order (the p-histogram's pid order) —
    the input rows of the path join.  Empty for unknown tags.  A pid's
    column is its position here. *)

val tag_total : t -> string -> float
(** Estimated total frequency of a tag (sum of its pid estimates). *)

val order_frequency :
  t ->
  tag:string ->
  pid:Xpest_util.Bitvec.t ->
  other:string ->
  region:Po_table.region ->
  float
(** o-histogram estimate of the path-order cell
    [g (pid, other, region)] in [tag]'s table (0 when uncovered or
    when order statistics were not collected). *)

val order_lookup :
  t -> tag:string -> other:string -> region:Po_table.region -> int -> float
(** [order_lookup t ~tag ~other ~region] resolves [tag]'s o-histogram
    and [other]'s row once; applied to a pid's column (its position in
    [tag]'s row, {!tag_pids}) it gives {!order_frequency} of that pid,
    scanning the tag's boxes in place. *)

val p_histogram_buckets : t -> (string * int) list
(** Bucket count of every tag's p-histogram, sorted by tag — the
    knob variance-target tuning turns ([xpest synopsis info] reports
    the distribution). *)

val o_histogram_boxes : t -> (string * int) list
(** Box count of every tag's o-histogram, sorted by tag; empty when
    order statistics were not collected. *)

(** {1 The flat core}

    What estimation reads, as one set of arrays per section rather than
    a structure per tag.  {!assemble} and {!decode} both build it, in
    the same layout, so a summary and its loaded copy have equal cores.
    Every array is shared: read it, never write it.

    Tags are named by their code (their slot in [tag_names]); anything
    kept per tag is an array indexed by code.  [by_name] lists the codes
    in name order (a tag's position there is its rank), and [by_hash]
    holds the ranks open-addressed on a hash of the names, at most half
    full, so a name, even one read in place from a file, finds its code
    by hashing and mostly one comparison.  Path [e - 1], the one
    with encoding [e], is [path_tag.(path_start.(e - 1) ..
    path_start.(e) - 1)], tag codes from the root down.  Path id [i]
    is the [stride] words of [pid_words] from [i * stride] in
    {!Xpest_util.Bitvec}'s layout (62 bits a word, bit [b] for the path
    with encoding [b + 1]); the root's path id follows the last one.

    The p-histograms: tag [c]'s buckets are [p_first.(c) .. p_stop.(c)
    - 1] ([-1] for both without a p-histogram); bucket [b]'s slots are
    [bucket_start.(b) .. bucket_start.(b + 1) - 1], each a pid index
    ([slot_pid]) and its exact frequency ([slot_count]); the bucket's
    estimate is [bucket_avg.(b)].  A tag's slots are contiguous: they
    are its row, and a pid's column is its slot less the row's first.
    The o-histograms: tag [c]'s boxes are [o_first.(c) .. o_stop.(c) -
    1] ([-1] without one), box [k] covering columns [box_x0.(k) ..
    box_x1.(k)] and rows [box_y0.(k) .. box_y1.(k)] (row [region *
    ntags + rank], [rank] the other tag's position in [by_name]) at the
    average [box_avg.(k)]. *)

type flat = private {
  p_variance : float;
  o_variance : float;
  tag_names : string array;  (** tag code -> name *)
  by_name : int array;  (** tag codes in name order *)
  by_hash : int array;  (** ranks hashed on the names, [-1] for empty *)
  path_start : int array;
  path_tag : int array;
  stride : int;
  pid_words : int array;
  p_first : int array;
  p_stop : int array;
  bucket_start : int array;
  slot_pid : int array;
  slot_count : int array;
  bucket_avg : float array;
  o_first : int array;
  o_stop : int array;
  box_x0 : int array;
  box_y0 : int array;
  box_x1 : int array;
  box_y1 : int array;
  box_avg : float array;
}

val flat : t -> flat

val same_pid : flat -> int -> int -> bool
(** [same_pid f i j]: pids [i] and [j] are equal (the root's is pid
    [Array.length f.pid_words / f.stride - 1]). *)

val row_start : flat -> int -> int
(** The first slot of a tag code's row; 0 for a tag without a
    p-histogram or a negative code. *)

val row_stop : flat -> int -> int
(** One past the last slot of a tag code's row; 0 as for
    {!row_start}. *)

(** {1 Memory accounting (modeled bytes, cf. Tables 3-5 and Fig. 9)} *)

val p_histogram_bytes : t -> int
val o_histogram_bytes : t -> int
val encoding_table_bytes : t -> int
val pid_tree_bytes : t -> int
(** Modeled bytes of the paper's compressed path-id binary tree
    ({!Xpest_encoding.Pid_tree.byte_size}) over the summary's distinct
    path ids.  Estimation never reads the tree, so neither {!build}
    nor {!decode} builds it: the first call does, and the result is
    memoized.  Equal for a built summary and its loaded copy. *)

val total_bytes : t -> int
(** encoding table + pid binary tree + p-histograms (the paper's
    "total memory usage" in Figure 11). *)

val size_bytes : t -> int
(** Exact wire size of the summary — [String.length (encode t)],
    derived from the codec rather than modeled, so it is the number a
    byte-budgeted resident set should charge.  Memoized: {!decode}
    records it for free, a built summary pays one {!encode} on first
    call.  (Contrast {!total_bytes}, which models the paper's
    in-memory structures for the Figure 11 replication.) *)

(** {1 Persistence}

    A synopsis file holds exactly the document-independent core —
    encoding table, distinct path ids, tag vocabulary and the two
    histogram families — as named sections inside {!Wire}'s versioned,
    checksummed container (no [Marshal], so files survive compiler
    upgrades; the checksum rejects corruption before any decoding).
    Saves are canonical — histogram sections are written in sorted tag
    order — so save→load→save is byte-identical.  A loaded synopsis
    estimates identically to the saved one but cannot answer
    document-level queries ({!doc}/{!base}/{!labeler} raise).

    {!Synopsis_io} adds file-level tooling (header inspection,
    per-section size reports) on top of this format. *)

val encode : t -> string
(** The synopsis file bytes ({!save} without the file system). *)

val decode : ?expect:(Wire.header -> unit) -> string -> t
(** Inverse of {!encode}.  The container header is read first
    ({!Wire.read_header}, as {!Synopsis_io.info} reads it) and passed
    to [expect], which may raise to reject the bytes before the version
    check and any section decoding; the body is hashed once.  The path
    ids must be non-empty and all of one non-zero width, the root's
    included.  Times the container (header, checksum, section table)
    and the sections under the [summary.decode.container] and
    [summary.decode.sections] timers.
    @raise Invalid_argument on malformed input. *)

val save : ?io:Xpest_util.Fault.Io.t -> t -> string -> unit
(** Crash-safe persistence: the bytes are written to a same-directory
    temp file and atomically renamed over [path]
    ({!Xpest_util.Fault.atomic_write}), so a killed process never
    leaves a torn synopsis — [path] is either absent, its previous
    complete contents, or the new complete contents.  [io] substitutes
    the write interface (write-abort injection under test).
    @raise Sys_error on I/O failure (the temp file is cleaned up). *)

val load : string -> t
(** @raise Invalid_argument on malformed input, [Sys_error] on I/O
    failure. *)
