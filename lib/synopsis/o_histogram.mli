(** O-histograms (paper Section 6, Algorithm 2).

    One histogram per element tag [X] summarizes [X]'s path-order
    table as a set of rectangular buckets
    [(x.start, y.start, x.end, y.end, frequency)] over a 2-D grid:

    - columns (x) are [X]'s path ids in p-histogram order;
    - rows (y) are [region * ntags + alphabetic tag rank] — the
      "+element" (Before) region first, then "element+" (After);
    - a bucket's [frequency] is the average over *all* cells of its
      box, empty cells counting 0, and the intra-box deviation is kept
      within the threshold [v] (so [v = 0] buckets never mix distinct
      values and lookups are exact).

    Construction scans non-empty cells row-wise; each uncovered cell is
    extended rightward along its row, then the row-box is extended
    downward while rows stay non-empty, unclaimed, and within
    variance. *)

type box = {
  x_start : int;
  y_start : int;
  x_end : int; (* inclusive *)
  y_end : int; (* inclusive *)
  frequency : float; (* average over the whole box *)
}

type t

val build :
  variance:float ->
  ntags:int ->
  tag_alpha_rank:(int -> int) ->
  pid_order:int array ->
  Po_table.cell list ->
  t
(** Histogram for one tag.  [pid_order] is the tag's p-histogram pid
    order (defines columns); [tag_alpha_rank] maps tag codes to their
    alphabetic rank (defines rows); cells with pid indices outside
    [pid_order] are impossible by construction and rejected.
    @raise Invalid_argument if [variance < 0].  Both raises are
    build-time validation: they run when a synopsis is constructed
    from a document, never on the load/serve path (a loaded synopsis
    holds its boxes in {!Summary}'s flat arrays). *)

val boxes : t -> box list

val lookup :
  t -> pid_index:int -> other_tag:int -> region:Po_table.region -> float
(** Estimated cell value: the containing box's average frequency, or 0
    if no box covers the cell. *)

val byte_size : t -> int
(** Modeled storage: 20 bytes per box (five 4-byte fields, the paper's
    bucket format). *)
