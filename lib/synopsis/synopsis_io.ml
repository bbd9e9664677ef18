module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error

type info = {
  path : string;
  version : int;
  supported : bool;
  total_bytes : int;
  checksum : int64;
  checksum_ok : bool;
  sections : (string * int) list;
}

let info ?(io = Fault.Io.default) path =
  let data = io.Fault.Io.read_file path in
  let h = Wire.read_header data in
  {
    path;
    version = h.Wire.version;
    supported = h.Wire.version = Wire.format_version;
    total_bytes = h.Wire.total_bytes;
    checksum = h.Wire.checksum;
    checksum_ok = h.Wire.checksum_ok;
    sections = h.Wire.sections;
  }

(* The three file kinds share Wire's container; the section names tell
   them apart without decoding any payload. *)
let kind i =
  if List.mem_assoc Manifest.section_name i.sections then `Catalog_manifest
  else if List.mem_assoc "encoding_table" i.sections then `Synopsis
  else if List.mem_assoc Sketch.section_name i.sections then `Sketch
  else `Unknown

let overhead_bytes i =
  i.total_bytes - List.fold_left (fun acc (_, n) -> acc + n) 0 i.sections

(* ------------------------------------------------------------------ *)
(* Typed loading: Invalid_argument leaks from the codec are classified
   into the error taxonomy.  The wire layer reports failures with a
   positional context string; [section_of_reason] maps that back to a
   wire section name, best-effort (a checksum mismatch proves damage
   without addressing it, so those attribute to "body").              *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let section_of_reason reason =
  (* wire section decoders fail with context "synopsis section "name"" *)
  let named_prefix = "synopsis section \"" in
  if
    String.length reason > String.length named_prefix
    && String.sub reason 0 (String.length named_prefix) = named_prefix
  then begin
    let rest =
      String.sub reason
        (String.length named_prefix)
        (String.length reason - String.length named_prefix)
    in
    match String.index_opt rest '"' with
    | Some i -> String.sub rest 0 i
    | None -> "body"
  end
  else if
    contains ~sub:"magic" reason || contains ~sub:"version" reason
    || contains ~sub:"legacy" reason
    || contains ~sub:"truncated header" reason
  then "header"
  else if contains ~sub:"checksum" reason then "body"
  else "container"

let classify path = function
  | Sys_error reason -> E.Io_failure { path; reason }
  | Invalid_argument reason ->
      E.Corrupt { path; section = section_of_reason reason; reason }
  | E.Error e -> e
  | exn -> E.Internal (Printexc.to_string exn)

let typed path f = match f () with v -> Ok v | exception exn -> Error (classify path exn)

let info_typed ?io path = typed path (fun () -> info ?io path)

let load_typed ?(io = Fault.Io.default) path =
  typed path (fun () -> Summary.decode (io.Fault.Io.read_file path))

(* A file against the size and checksum a catalog manifest recorded for
   it.  A read whose body fails its own checksum is damaged, so
   comparing it with the record would misdiagnose a transient fault as
   staleness: that is [Corrupt] (retryable).  A sound file that differs
   from its record is [Stale_manifest]. *)
let expect_record path ~bytes ~checksum (h : Wire.header) =
  if not h.Wire.checksum_ok then
    raise
      (E.Error
         (E.Corrupt
            {
              path;
              section = "body";
              reason = "checksum mismatch (corrupted or truncated read)";
            }))
  else if h.Wire.total_bytes <> bytes || not (Int64.equal h.Wire.checksum checksum)
  then
    raise
      (E.Error
         (E.Stale_manifest
            {
              path;
              reason =
                Printf.sprintf
                  "expected %d bytes, checksum %016Lx; found %d bytes, \
                   checksum %016Lx — rebuild the catalog"
                  bytes checksum h.Wire.total_bytes h.Wire.checksum;
            }))

let verify ?(io = Fault.Io.default) ~bytes ~checksum path =
  typed path (fun () ->
      expect_record path ~bytes ~checksum (Wire.read_header (io.Fault.Io.read_file path)))

let load_verified ?(io = Fault.Io.default) ~bytes ~checksum path =
  typed path (fun () ->
      Summary.decode
        ~expect:(expect_record path ~bytes ~checksum)
        (io.Fault.Io.read_file path))
