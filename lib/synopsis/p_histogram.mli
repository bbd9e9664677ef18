(** P-histograms (paper Section 6, Algorithm 1).

    One histogram per element tag summarizes that tag's
    pathId-frequency row.  The row is sorted by frequency and scanned
    greedily: path ids are added to the current bucket while the
    intra-bucket frequency variance (population standard deviation,
    the paper's definition) stays within the threshold [v].  Each
    bucket stores its path ids and their average frequency; [v = 0]
    therefore reproduces the exact table — equal frequencies can still
    share a bucket. *)

type bucket = {
  pid_indices : int array; (* in frequency-sorted scan order *)
  frequencies : int array; (* exact frequencies, for diagnostics/tests *)
  avg_frequency : float;
}

type t

val build : variance:float -> Pf_table.entry array -> t
(** Histogram for one tag's row.  @raise Invalid_argument if
    [variance < 0]. *)

val build_all : variance:float -> Pf_table.t -> (string * t) list
(** One histogram per tag of the table. *)

val buckets : t -> bucket list

val frequency : t -> int -> float option
(** Estimated frequency of a pid index: its bucket's average.  [None]
    if the pid is not in the histogram (the tag never carries it). *)

val pid_order : t -> int array
(** All pid indices in histogram (frequency-sorted) order — the column
    order the o-histogram uses ("path ids order in p-histogram",
    Algorithm 2). *)

val max_intra_variance : t -> float
(** Largest realized intra-bucket variance; always [<=] the build
    threshold (tests rely on this). *)

val byte_size : t -> int
(** Modeled storage: 6 bytes per bucket (4-byte average + 2-byte
    count) + 2 bytes per pid id. *)
