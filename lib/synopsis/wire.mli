(** Binary codec primitives and the versioned, checksummed container
    of the synopsis file format.

    The on-disk layout is

    {v
    bytes 0..7    magic "XPESTSYN"
    byte  8       format version (currently 3)
    bytes 9..16   FNV-1a 64 checksum of the body, big-endian
    body          section table (count; per section: name, length),
                  then the section payloads concatenated
    v}

    The checksum covers the whole body, so corruption and truncation
    are rejected with a clean [Invalid_argument] before any section is
    decoded.  Sections carry self-describing names so tooling
    ([xpest synopsis info]) can report per-component sizes without
    decoding payloads. *)

(** {1 Primitive writers (values append to a [Buffer.t])} *)

val put_int : Buffer.t -> int -> unit
(** Non-negative ints as LEB128 varints. *)

val put_float : Buffer.t -> float -> unit
(** 8 raw IEEE-754 bytes, big-endian. *)

val put_int64 : Buffer.t -> int64 -> unit
(** 8 raw bytes, big-endian (checksums in catalog manifests). *)

val put_string : Buffer.t -> string -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val put_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val put_bitvec : Buffer.t -> Xpest_util.Bitvec.t -> unit

(** {1 Primitive readers}

    All readers raise [Invalid_argument] with the reader's context and
    byte offset on malformed input. *)

type reader = { data : string; mutable pos : int; stop : int; base : int; context : string }
(** A reader of [data] from [pos] up to [stop] (exclusive); error
    messages give offsets from [base] ([0] for {!reader}, which reads
    the whole string). *)

val reader : ?context:string -> string -> reader
val fail : reader -> string -> 'a
val get_int : reader -> int

val get_count : reader -> int
(** A count of elements that take at least one byte each: fails
    when it exceeds the bytes left. *)

val get_float : reader -> float
val get_int64 : reader -> int64
val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list

val get_array : reader -> (reader -> 'a) -> 'a array
(** Like {!get_list}.  Both read a count, then that many elements;
    each element must take at least one byte, so a count above the
    bytes left fails before anything is allocated. *)

val get_bitvec : reader -> Xpest_util.Bitvec.t
val expect_end : reader -> unit

(** {1 Checksum} *)

val fnv1a64 : string -> int64
(** FNV-1a 64 of the whole string. *)

(** {1 Container} *)

val format_version : int
val header_bytes : int

val encode_container : (string * string) list -> string
(** Full file bytes for named section payloads, in the given order. *)

val decode_container : string -> (string * string) list
(** Parse file bytes back to named sections, copied out of the bytes.
    @raise Invalid_argument on bad magic, unsupported or legacy
    version, checksum mismatch, or a malformed section table. *)

type header = {
  version : int;
  checksum : int64;
  checksum_ok : bool;
  total_bytes : int;
  sections : (string * int) list;
      (** per-section payload sizes in bytes; empty when the checksum
          does not verify (the table itself is untrustworthy) *)
}

val read_header : string -> header
(** Header-only parse for [synopsis info]: tolerates an unsupported
    version and a failing checksum (reported in the result), but still
    raises [Invalid_argument] on bad magic, the legacy "XPESTSYN2"
    format, a truncated header, or (when the checksum verifies) a
    malformed section table.  Hashes the body in place, copying
    nothing. *)

val section_readers :
  context:(string -> string) -> header -> string -> (string * reader) list
(** The sections of bytes whose header {!read_header} already produced,
    without hashing the body a second time: for a caller that inspects
    the header before decoding.  Each is a reader over its payload in
    place, with nothing copied; its offsets count from the section's
    start, and [context name] names it in its errors.  The checks that
    {!read_header} tolerates (version, checksum) raise here.  The
    header must be the one read from the same bytes. *)
