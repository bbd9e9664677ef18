(** Fixed-width bitvectors.

    Path ids in the encoding scheme of Li et al. are bit sequences with
    one bit per distinct root-to-leaf path of the document.  Real
    documents (e.g. XMark) have hundreds of distinct paths, so the ids
    do not fit in a native integer; this module provides immutable
    fixed-width bitvectors with the operations the estimator needs:
    bitwise or/and, containment, iteration over set bits.

    Bit positions are 0-based.  Position 0 corresponds to the paper's
    "leftmost bit", i.e. the root-to-leaf path with encoding value 1. *)

type t

val width : t -> int
(** Number of bits (set or not) in the vector. *)

val zero : int -> t
(** [zero w] is the all-zero vector of width [w].

    @raise Invalid_argument if [w < 0]. *)

val singleton : int -> int -> t
(** [singleton w i] has width [w] and only bit [i] set.

    @raise Invalid_argument if [i] is out of bounds. *)

val is_zero : t -> bool

val get : t -> int -> bool
(** [get v i] is the value of bit [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val set : t -> int -> t
(** [set v i] is [v] with bit [i] set (functional update). *)

val logor : t -> t -> t
(** Bitwise or.  @raise Invalid_argument on width mismatch. *)

val logand : t -> t -> t
(** Bitwise and.  @raise Invalid_argument on width mismatch. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order, suitable for [Map]/[Set] functors.  Vectors of
    different widths are ordered by width first. *)

val hash : t -> int

val lex_compare : t -> t -> int
(** Lexicographic order of the bit strings ({!to_string}): bit 0 is
    most significant and 0 sorts before 1.  One pass over the words.
    @raise Invalid_argument on width mismatch. *)

val contains : t -> t -> bool
(** [contains a b] is the paper's path-id containment: [a] strictly
    contains [b], i.e. [a <> b && (a land b) = b].  See Section 2,
    Case 2 of the paper. *)

val contains_or_equal : t -> t -> bool
(** [contains_or_equal a b] is [equal a b || contains a b]: every bit
    of [b] is set in [a].  One pass over the words, no allocation.
    @raise Invalid_argument on width mismatch. *)

val intersects : t -> t -> bool
(** [intersects a b] iff [a land b] is non-zero. *)

val popcount : t -> int
(** Number of set bits. *)

val popcount_word : int -> int
(** Number of set bits of a non-negative int, one step per set bit.
    For callers that keep their own word arrays. *)

val bit_index : int -> int
(** The index of the only set bit of a power of two below 2{^62}, in
    six steps: [bit_index (w land -w)] is the lowest set bit of a
    non-zero word [w].  For callers that keep their own word arrays. *)

val iter_set_bits : t -> (int -> unit) -> unit
(** [iter_set_bits v f] applies [f] to each set bit position in
    increasing order. *)

val set_bits : t -> int list
(** Set bit positions in increasing order. *)

val first_set_bit : t -> int option

val of_bits : bool array -> t
(** [of_bits a] has width [Array.length a] and bit [i] set iff [a.(i)]. *)

val of_string : string -> t
(** [of_string "1010"] parses the paper's bit-sequence notation: the
    first character is bit 0.  @raise Invalid_argument on characters
    other than ['0']/['1']. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val to_packed_string : t -> string
(** Bits packed 8-per-byte, LSB-first within each byte;
    [ceil (width / 8)] bytes (width itself is not encoded).  Used by
    the synopsis codec. *)

val of_packed_string : width:int -> string -> t
(** Inverse of {!to_packed_string}.
    @raise Invalid_argument if the string length is not
    [ceil (width / 8)] or padding bits are set. *)

(** {1 Flat arrays of vectors}

    A vector of width [w] is [words_for w] words of 62 bits, bit [i]
    at bit [i mod 62] of word [i / 62], with the bits past [w] clear.
    These functions read and write that layout in an int array the
    caller owns, so many vectors of one width can share one block. *)

val words_for : int -> int
(** [words_for w] is the number of words a vector of width [w] takes
    (at least 1): the stride of a flat array of such vectors. *)

val of_words : width:int -> int array -> int -> t
(** [of_words ~width words off] copies the vector whose words start at
    [words.(off)]. *)

val blit_words : t -> int array -> int -> unit
(** [blit_words v words off] writes [v]'s words to [words.(off ..)]. *)

val packed_of_words : width:int -> int array -> int -> string
(** {!to_packed_string} of the vector whose words start at
    [words.(off)]. *)

val packed_into : width:int -> string -> int -> int array -> int -> bool
(** [packed_into ~width s pos words off] ORs the [ceil (width / 8)]
    packed bytes of [s] from [pos] (as {!to_packed_string} writes them)
    into the zeroed words from [words.(off)].  False, writing nothing,
    if a padding bit is set.  The caller checks that the bytes and the
    words exist. *)

val byte_size : t -> int
(** Number of bytes needed to store the vector on disk:
    [ceil (width / 8)], with a 1-byte minimum.  Used for the memory
    accounting of Table 3. *)

val pp : Format.formatter -> t -> unit
