module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error

type entry = {
  dataset : string;
  variance : float;
  file : string;
  bytes : int;
  checksum : int64;
}

type sketch_entry = {
  s_dataset : string;
  s_file : string;
  s_bytes : int;
  s_checksum : int64;
}

type t = { entries : entry list; sketches : sketch_entry list }

let empty = { entries = []; sketches = [] }

let same_key a b = String.equal a.dataset b.dataset && a.variance = b.variance

let add t entry =
  if List.exists (same_key entry) t.entries then
    {
      t with
      entries =
        List.map (fun e -> if same_key entry e then entry else e) t.entries;
    }
  else { t with entries = t.entries @ [ entry ] }

let find t ~dataset ~variance =
  List.find_opt
    (fun e -> String.equal e.dataset dataset && e.variance = variance)
    t.entries

let add_sketch t entry =
  let same e = String.equal e.s_dataset entry.s_dataset in
  if List.exists same t.sketches then
    {
      t with
      sketches = List.map (fun e -> if same e then entry else e) t.sketches;
    }
  else { t with sketches = t.sketches @ [ entry ] }

let find_sketch t ~dataset =
  List.find_opt (fun e -> String.equal e.s_dataset dataset) t.sketches

let section_name = "catalog_manifest"
let sketch_section_name = "catalog_sketches"

let encode t =
  let open Wire in
  let buf = Buffer.create 256 in
  put_list buf
    (fun buf e ->
      put_string buf e.dataset;
      put_float buf e.variance;
      put_string buf e.file;
      put_int buf e.bytes;
      put_int64 buf e.checksum)
    t.entries;
  let sections = [ (section_name, Buffer.contents buf) ] in
  (* The sketch table rides in its own section, emitted only when
     non-empty: a sketch-free manifest stays byte-identical to the
     pre-sketch format, and older readers that look up sections by
     name skip the new one untouched. *)
  let sections =
    if t.sketches = [] then sections
    else begin
      let sbuf = Buffer.create 128 in
      put_list sbuf
        (fun buf e ->
          put_string buf e.s_dataset;
          put_string buf e.s_file;
          put_int buf e.s_bytes;
          put_int64 buf e.s_checksum)
        t.sketches;
      sections @ [ (sketch_section_name, Buffer.contents sbuf) ]
    end
  in
  encode_container sections

let decode data =
  let open Wire in
  let sections = decode_container data in
  match List.assoc_opt section_name sections with
  | None ->
      invalid_arg
        (Printf.sprintf "catalog manifest: missing section %S (is this a \
                         synopsis file?)"
           section_name)
  | Some payload ->
      let r = reader ~context:"catalog manifest" payload in
      let entries =
        get_list r (fun r ->
            let dataset = get_string r in
            let variance = get_float r in
            let file = get_string r in
            let bytes = get_int r in
            let checksum = get_int64 r in
            { dataset; variance; file; bytes; checksum })
      in
      expect_end r;
      let sketches =
        match List.assoc_opt sketch_section_name sections with
        | None -> []
        | Some payload ->
            let r = reader ~context:"catalog sketch table" payload in
            let sketches =
              get_list r (fun r ->
                  let s_dataset = get_string r in
                  let s_file = get_string r in
                  let s_bytes = get_int r in
                  let s_checksum = get_int64 r in
                  { s_dataset; s_file; s_bytes; s_checksum })
            in
            expect_end r;
            sketches
      in
      { entries; sketches }

(* Same crash-safety discipline as Summary.save: temp file + atomic
   rename, so a manifest rewrite can never tear the catalog's index. *)
let save t path = Fault.atomic_write path (encode t)

let load path = decode (Fault.Io.default.Fault.Io.read_file path)

let load_typed ?(io = Fault.Io.default) path =
  match decode (io.Fault.Io.read_file path) with
  | v -> Ok v
  | exception Sys_error reason -> Error (E.Io_failure { path; reason })
  | exception Invalid_argument reason ->
      Error (E.Corrupt { path; section = section_name; reason })
  | exception E.Error e -> Error e
