(** File-level tooling over the synopsis persistence format.

    {!Summary.save}/{!Summary.load} do the encoding; this module adds
    what operators and the serving stack need around them: header
    inspection without decoding ([xpest synopsis info]), and
    typed-error verification and loading for the catalog's
    fault-tolerance layer.

    All reads go through a {!Xpest_util.Fault.Io.t}; pass [?io] to
    substitute the reader (the chaos suites inject faults there).
    Omitting it reads the real filesystem. *)

type info = {
  path : string;
  version : int;  (** format version byte from the header *)
  supported : bool;  (** [version = Wire.format_version] *)
  total_bytes : int;  (** on-disk file size *)
  checksum : int64;  (** stored FNV-1a 64 of the body *)
  checksum_ok : bool;  (** stored checksum matches the body *)
  sections : (string * int) list;
      (** per-component payload sizes in bytes (encoding table, path
          ids, tags, p-/o-histograms); empty if the checksum fails *)
}

val info : ?io:Xpest_util.Fault.Io.t -> string -> info
(** Parse only the container header and section table — constant work
    in the number of sections, no histogram decoding.
    @raise Invalid_argument if the file is not a synopsis file at all
    (bad magic, legacy format, truncated header); [Sys_error] on I/O
    failure. *)

val kind : info -> [ `Synopsis | `Catalog_manifest | `Sketch | `Unknown ]
(** What the file holds, judged from its section names alone:
    a synopsis, a catalog manifest ({!Manifest}), a fallback sketch
    ({!Sketch}), or — when the checksum failed and the section table
    is untrustworthy — [`Unknown]. *)

val overhead_bytes : info -> int
(** Container overhead: file size minus the summed section payloads
    (magic, version, checksum, section table). *)

(** {1 Typed-error loading}

    The serving stack's entry points: failures come back as
    {!Xpest_util.Xpest_error.t} values that callers can route on —
    [Io_failure] for unreadable files, [Corrupt] (with a best-effort
    wire-section attribution) for malformed bytes.  Never raises. *)

val info_typed :
  ?io:Xpest_util.Fault.Io.t -> string -> (info, Xpest_util.Xpest_error.t) result

val load_typed :
  ?io:Xpest_util.Fault.Io.t ->
  string ->
  (Summary.t, Xpest_util.Xpest_error.t) result
(** Any single flipped bit or truncation anywhere in the file yields
    [Error (Corrupt _)] — the container checksum vouches for every
    section before any payload is decoded, so a damaged file can never
    decode to a synopsis that estimates differently. *)

val verify :
  ?io:Xpest_util.Fault.Io.t ->
  bytes:int ->
  checksum:int64 ->
  string ->
  (unit, Xpest_util.Xpest_error.t) result
(** Check a file against the size and checksum a catalog manifest
    recorded for it, without decoding any section: the header errors
    of {!info_typed}; [Corrupt] (section ["body"]) when the read fails
    its own checksum, since a damaged read proves nothing about
    staleness; [Stale_manifest] when a sound file's size or checksum
    differs from the record. *)

val load_verified :
  ?io:Xpest_util.Fault.Io.t ->
  bytes:int ->
  checksum:int64 ->
  string ->
  (Summary.t, Xpest_util.Xpest_error.t) result
(** {!verify} then {!load_typed} on one read: the file is read once,
    its body hashed once, and the bytes that passed the check are the
    bytes decoded.  Errors are exactly those of {!verify} followed by
    {!load_typed}. *)
