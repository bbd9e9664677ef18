module Bitvec = Xpest_util.Bitvec

(* ------------------------------------------------------------------ *)
(* Primitives.                                                         *)

(* non-negative ints as LEB128 varints: counts and ids are small, so
   this keeps synopsis files a few percent of the document *)
let rec put_int buf n =
  assert (n >= 0);
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    put_int buf (n lsr 7)
  end

(* floats as their 8 raw IEEE-754 bytes, big-endian *)
let put_float buf f =
  let bits = Int64.bits_of_float f in
  for byte = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical bits (8 * byte)) land 0xff))
  done

(* int64s (checksums in catalog manifests) as 8 raw bytes, big-endian *)
let put_int64 buf v =
  for byte = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * byte)) land 0xff))
  done

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_list buf put items =
  put_int buf (List.length items);
  List.iter (put buf) items

let put_array buf put items =
  put_int buf (Array.length items);
  Array.iter (put buf) items

let put_bitvec buf v =
  put_int buf (Bitvec.width v);
  put_string buf (Bitvec.to_packed_string v)

(* [pos] indexes [data]; errors report offsets from [base], so a
   reader over a container body in place reads like one over a copy. *)
type reader = { data : string; mutable pos : int; stop : int; base : int; context : string }

let reader ?(context = "synopsis") data =
  { data; pos = 0; stop = String.length data; base = 0; context }

let fail r msg =
  invalid_arg (Printf.sprintf "%s: %s at offset %d" r.context msg (r.pos - r.base))

(* Top-level, so that reading a varint allocates no closure: a summary
   load reads tens of thousands. *)
let rec get_varint r shift acc =
  if shift > 62 then fail r "varint too long";
  if r.pos >= r.stop then fail r "truncated int";
  let b = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_varint r (shift + 7) acc

(* Most ints are one byte: read those without the call. *)
let get_int r =
  let pos = r.pos in
  if pos < r.stop && Char.code (String.unsafe_get r.data pos) < 0x80 then begin
    r.pos <- pos + 1;
    Char.code (String.unsafe_get r.data pos)
  end
  else get_varint r 0 0

let get_float r =
  if r.pos + 8 > r.stop then fail r "truncated float";
  let f = Int64.float_of_bits (String.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  f

let get_int64 r =
  if r.pos + 8 > r.stop then fail r "truncated int64";
  let v = ref 0L in
  for _ = 1 to 8 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code r.data.[r.pos]));
    r.pos <- r.pos + 1
  done;
  !v

let get_string r =
  let n = get_int r in
  if n < 0 || r.pos + n > r.stop then fail r "truncated string";
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* Every element takes at least one byte, so a count above the bytes
   left is corrupt; checked before [Array.init] allocates the slots. *)
let get_count r =
  let n = get_int r in
  if n < 0 || n > r.stop - r.pos then fail r "count exceeds the bytes left";
  n

let get_list r get =
  let n = get_count r in
  List.init n (fun _ -> get r)

let get_array r get =
  let n = get_count r in
  Array.init n (fun _ -> get r)

let get_bitvec r =
  let width = get_int r in
  Bitvec.of_packed_string ~width (get_string r)

let expect_end r =
  if r.pos <> r.stop then fail r "trailing bytes"

(* ------------------------------------------------------------------ *)
(* Checksum: FNV-1a 64, applied to the container body so corruption and
   truncation are rejected before any section is decoded.              *)

(* A plain loop over a local ref, so the accumulator stays unboxed
   (captured by a closure, every byte would box a fresh Int64). *)
let fnv1a64_from s pos =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let fnv1a64 s = fnv1a64_from s 0

(* ------------------------------------------------------------------ *)
(* Container: magic, version, checksum, section table, payloads.

     bytes 0..7    magic "XPESTSYN"
     byte  8       format version (currently 3)
     bytes 9..16   FNV-1a 64 of the body, big-endian
     body          varint section count,
                   then per section: name string, payload length varint,
                   then the payloads concatenated in table order

   Older repositories wrote an unversioned format whose magic was
   "XPESTSYN2"; its 9th byte reads back as version 0x32, which
   [read_header] reports as the legacy format rather than garbage.     *)

let magic = "XPESTSYN"
let format_version = 3
let header_bytes = String.length magic + 1 + 8

type header = {
  version : int;
  checksum : int64;
  checksum_ok : bool;
  total_bytes : int;
  sections : (string * int) list;
}

let put_int64_be buf v =
  for byte = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * byte)) land 0xff))
  done

let get_int64_be data pos =
  let v = ref 0L in
  for i = 0 to 7 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code data.[pos + i]))
  done;
  !v

let encode_container sections =
  let body = Buffer.create 4096 in
  put_int body (List.length sections);
  List.iter
    (fun (name, payload) ->
      put_string body name;
      put_int body (String.length payload))
    sections;
  List.iter (fun (_, payload) -> Buffer.add_string body payload) sections;
  let body = Buffer.contents body in
  let out = Buffer.create (header_bytes + String.length body) in
  Buffer.add_string out magic;
  Buffer.add_char out (Char.chr format_version);
  put_int64_be out (fnv1a64 body);
  Buffer.add_string out body;
  Buffer.contents out

let check_magic data =
  if String.length data < header_bytes then
    invalid_arg "synopsis file: truncated header";
  if String.sub data 0 (String.length magic) <> magic then
    invalid_arg "synopsis file: bad magic (not a synopsis file)"

let read_version data =
  let v = Char.code data.[String.length magic] in
  if v = Char.code '2' then
    invalid_arg
      "synopsis file: legacy unversioned format (XPESTSYN2); rebuild it with \
       `xpest synopsis save`"
  else v

(* The body is read and hashed in place: it runs from [header_bytes]
   to the end of the file. *)
let body_reader data =
  {
    data;
    pos = header_bytes;
    stop = String.length data;
    base = header_bytes;
    context = "synopsis file";
  }

let stored_checksum data = get_int64_be data (String.length magic + 1)
let body_checksum data = fnv1a64_from data header_bytes

let read_table r =
  let n = get_int r in
  List.init n (fun _ ->
      let name = get_string r in
      let len = get_int r in
      (name, len))

let read_header data =
  check_magic data;
  let version = read_version data in
  let checksum = stored_checksum data in
  let checksum_ok = Int64.equal (body_checksum data) checksum in
  let sections = if checksum_ok then read_table (body_reader data) else [] in
  { version; checksum; checksum_ok; total_bytes = String.length data; sections }

let check_version version =
  if version <> format_version then
    invalid_arg
      (Printf.sprintf
         "synopsis file: unsupported format version %d (this build reads \
          version %d)"
         version format_version)

let checksum_mismatch () =
  invalid_arg "synopsis file: checksum mismatch (corrupted or truncated)"

(* Readers over the payloads the section table names, in place, once
   the checksum has vouched for the body. *)
let section_readers ~context (h : header) data =
  check_version h.version;
  if not h.checksum_ok then checksum_mismatch ();
  let r = body_reader data in
  let table = read_table r in
  let readers =
    List.map
      (fun (name, len) ->
        if len < 0 || len > String.length data - r.pos then fail r "truncated section";
        let section =
          { data; pos = r.pos; stop = r.pos + len; base = r.pos; context = context name }
        in
        r.pos <- r.pos + len;
        (name, section))
      table
  in
  expect_end r;
  readers

let decode_container data =
  List.map
    (fun (name, r) -> (name, String.sub data r.pos (r.stop - r.pos)))
    (section_readers ~context:(fun _ -> "synopsis file") (read_header data) data)
