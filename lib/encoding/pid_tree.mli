(** The path-id binary tree index (paper Section 6).

    Distinct path ids are bit sequences; the tree is a binary trie over
    them (left edge = bit 0, right edge = 1).  Each leaf holds the
    integer id of one path id; leaves are numbered [1 .. n] left to
    right, i.e. in lexicographic bit-string order, and each internal
    node carries the largest leaf id of its left subtree (or one less
    than the smallest id of its right subtree when the left is empty),
    so that navigating "left if [id <= node id], else right" finds any
    leaf.

    The trie is then losslessly compressed: a subtree consisting only
    of left (resp. right) edges encodes an all-zero (resp. all-one) bit
    suffix, so it is replaced by a marker; lookups reconstruct the
    suffix by padding. *)

type node =
  | Leaf of int  (** uncompressed leaf: the pid with this integer id *)
  | Node of { id : int; left : node; right : node }
  | Absent  (** no pid below this edge *)
  | Zeros of int  (** compressed all-0 suffix leading to this leaf id *)
  | Ones of int  (** compressed all-1 suffix leading to this leaf id *)

type t

val build : Xpest_util.Bitvec.t list -> t
(** Build from the distinct path ids (duplicates ignored): one sort
    in lexicographic bit order, then one pass over index ranges.
    @raise Invalid_argument on empty input, zero-width vectors, or
    mixed widths. *)

val root : t -> node
(** The compressed tree. *)

val num_pids : t -> int
val bit_width : t -> int

val id_of_pid : t -> Xpest_util.Bitvec.t -> int option
(** The integer id of a path id ([1 .. num_pids]); [None] if the
    vector is not in the tree. *)

val pid_of_id : t -> int -> Xpest_util.Bitvec.t
(** Reconstruct the bit sequence by navigating the compressed tree.
    @raise Invalid_argument if the id is out of range. *)

val uncompressed_node_count : t -> int
val node_count : t -> int
(** Nodes remaining after compression. *)

val byte_size : t -> int
(** Modeled storage of the compressed tree: 5 bytes per remaining node
    (4-byte id + tag/pointer byte).  Table 3 accounting. *)

val uncompressed_byte_size : t -> int
