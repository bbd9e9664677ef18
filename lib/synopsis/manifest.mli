(** Catalog manifests: the on-disk entry table of a synopsis catalog.

    A catalog directory holds one synopsis file per
    [(dataset, variance)] key plus a manifest naming them.  The
    manifest reuses {!Wire}'s versioned, checksummed container (same
    magic, same corruption rejection) with a single
    ["catalog_manifest"] section, so [xpest synopsis info] recognizes
    both kinds of file and the catalog can refuse corrupted manifests
    before touching any synopsis.

    Entries record the synopsis file's size and body checksum at save
    time; {!Xpest_catalog.Catalog} re-verifies them on lazy load, so a
    synopsis rebuilt behind the manifest's back is detected instead of
    silently served. *)

type entry = {
  dataset : string;
  variance : float;
      (** the variance target both histogram families were built at *)
  file : string;  (** synopsis file name, relative to the manifest *)
  bytes : int;  (** synopsis file size at save time *)
  checksum : int64;  (** the synopsis file's stored body checksum *)
}

type sketch_entry = {
  s_dataset : string;
  s_file : string;  (** sketch file name, relative to the manifest *)
  s_bytes : int;  (** sketch file size at save time *)
  s_checksum : int64;  (** the sketch file's stored body checksum *)
}
(** One fallback sketch ({!Sketch}) per dataset — the last rung of the
    catalog's degradation ladder.  Sketches are keyed by dataset
    alone: one sketch covers every variance of its dataset. *)

type t = { entries : entry list; sketches : sketch_entry list }

val empty : t

val add : t -> entry -> t
(** Append, replacing any entry with the same [(dataset, variance)]
    key (entry order is otherwise preserved). *)

val find : t -> dataset:string -> variance:float -> entry option

val add_sketch : t -> sketch_entry -> t
(** Append, replacing any sketch entry with the same dataset. *)

val find_sketch : t -> dataset:string -> sketch_entry option

val section_name : string
(** ["catalog_manifest"] — how {!Synopsis_io.kind} tells a manifest
    from a synopsis. *)

val sketch_section_name : string
(** ["catalog_sketches"] — the manifest's optional sketch table.  Only
    emitted when sketches exist, so a sketch-free manifest stays
    byte-identical to the pre-sketch wire format, and decoding a
    pre-sketch manifest yields an empty sketch table. *)

val encode : t -> string
val decode : string -> t
(** @raise Invalid_argument on malformed input (bad magic, version,
    checksum, or payload). *)

val save : t -> string -> unit
(** Crash-safe: temp file + atomic rename
    ({!Xpest_util.Fault.atomic_write}), so a manifest rewrite never
    leaves a torn index behind.
    @raise Sys_error on I/O failure. *)

val load : string -> t

val load_typed :
  ?io:Xpest_util.Fault.Io.t -> string -> (t, Xpest_util.Xpest_error.t) result
(** Typed-error load for the serving stack: [Io_failure] when the
    file cannot be read, [Corrupt] when it is not a well-formed
    manifest.  Reads through [?io] (fault-injectable); never raises. *)
