(* Property tests for the versioned, checksummed synopsis container:
   canonical byte-identical saves, estimate-preserving round-trips over
   a full generated workload, and clean rejection of corrupted,
   truncated, wrong-version and legacy files. *)

module Doc = Xpest_xml.Doc
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Synopsis_io = Xpest_synopsis.Synopsis_io
module Wire = Xpest_synopsis.Wire
module Estimator = Xpest_estimator.Estimator
module Workload = Xpest_workload.Workload
module Registry = Xpest_datasets.Registry
module Prng = Xpest_util.Prng

let temp_file () = Filename.temp_file "xpest_synopsis_io" ".bin"

let with_file bytes f =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      f path)

let load_error bytes =
  with_file bytes (fun path ->
      match Synopsis_io.load_typed path with
      | Ok _ -> Alcotest.fail "malformed synopsis accepted"
      | Error e -> Xpest_util.Xpest_error.to_string e)

let small_doc = lazy (Registry.generate ~scale:0.02 ~seed:11 Registry.Xmark)

(* ------------------------------------------------------------------ *)
(* Round-trips.                                                        *)

let test_save_load_save_byte_identical () =
  List.iter
    (fun (p_variance, o_variance) ->
      let summary =
        Summary.build ~p_variance ~o_variance (Lazy.force small_doc)
      in
      let bytes0 = Summary.encode summary in
      let bytes1 = Summary.encode (Summary.decode bytes0) in
      Alcotest.(check int)
        (Printf.sprintf "size (v=%g/%g)" p_variance o_variance)
        (String.length bytes0) (String.length bytes1);
      Alcotest.(check bool)
        (Printf.sprintf "bytes (v=%g/%g)" p_variance o_variance)
        true
        (String.equal bytes0 bytes1))
    [ (0.0, 0.0); (2.0, 3.0) ]

let test_save_is_canonical () =
  (* Two independently built summaries of the same document must
     serialize identically (hashtable iteration order must not leak
     into the file). *)
  let doc = Lazy.force small_doc in
  let bytes0 = Summary.encode (Summary.build doc) in
  let bytes1 = Summary.encode (Summary.build doc) in
  Alcotest.(check bool) "identical" true (String.equal bytes0 bytes1)

let workload_of doc =
  let config =
    { Workload.default_config with num_simple = 400; num_branch = 400 }
  in
  let w = Workload.generate ~config doc in
  w.Workload.simple @ w.Workload.branch @ w.Workload.order_branch_target
  @ w.Workload.order_trunk_target

(* Persistence is exact: a summary saved to a file and loaded back
   through the typed loader answers every workload query with the same
   float, bit for bit. *)
let test_loaded_estimates_match_on_workload () =
  let doc = Lazy.force small_doc in
  let summary = Summary.build doc in
  let path = temp_file () in
  let loaded =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Summary.save summary path;
        match Synopsis_io.load_typed path with
        | Ok s -> s
        | Error e -> Alcotest.fail (Xpest_util.Xpest_error.to_string e))
  in
  let est0 = Estimator.create summary in
  let est1 = Estimator.create loaded in
  let items = workload_of doc in
  Alcotest.(check bool) "workload is non-trivial" true (List.length items > 50);
  List.iter
    (fun (it : Workload.item) ->
      Alcotest.(check int64)
        (Pattern.to_string it.pattern)
        (Int64.bits_of_float (Estimator.estimate est0 it.pattern))
        (Int64.bits_of_float (Estimator.estimate est1 it.pattern)))
    items

(* ------------------------------------------------------------------ *)
(* Header / info.                                                      *)

let test_info_reports_sections () =
  let summary = Summary.build (Lazy.force small_doc) in
  let bytes = Summary.encode summary in
  with_file bytes (fun path ->
      let i = Synopsis_io.info path in
      Alcotest.(check int) "version" Wire.format_version i.Synopsis_io.version;
      Alcotest.(check bool) "supported" true i.Synopsis_io.supported;
      Alcotest.(check bool) "checksum ok" true i.Synopsis_io.checksum_ok;
      Alcotest.(check int) "total bytes" (String.length bytes)
        i.Synopsis_io.total_bytes;
      Alcotest.(check (list string))
        "section names"
        [
          "meta"; "encoding_table"; "path_ids"; "tags"; "p_histograms";
          "o_histograms";
        ]
        (List.map fst i.Synopsis_io.sections);
      let payload =
        List.fold_left (fun acc (_, n) -> acc + n) 0 i.Synopsis_io.sections
      in
      Alcotest.(check int) "sections + overhead = file size"
        (String.length bytes)
        (payload + Synopsis_io.overhead_bytes i))

(* ------------------------------------------------------------------ *)
(* Rejection of malformed files.                                       *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_reject_corrupted_anywhere () =
  let bytes = Summary.encode (Summary.build (Lazy.force small_doc)) in
  let rng = Prng.create 42 in
  (* Flip one random byte at 50 positions spread over the file; every
     flip must be rejected (header flips change magic/version/checksum,
     body flips break the checksum). *)
  for _ = 1 to 50 do
    let pos = Prng.int rng (String.length bytes) in
    let corrupted = Bytes.of_string bytes in
    Bytes.set corrupted pos
      (Char.chr (Char.code (Bytes.get corrupted pos) lxor (1 lsl Prng.int rng 8)));
    let msg = load_error (Bytes.to_string corrupted) in
    Alcotest.(check bool)
      (Printf.sprintf "flip at %d rejected cleanly (%s)" pos msg)
      true
      (String.length msg > 0)
  done

let test_reject_truncation_everywhere () =
  let bytes = Summary.encode (Summary.build (Lazy.force small_doc)) in
  let n = String.length bytes in
  List.iter
    (fun len ->
      let msg = load_error (String.sub bytes 0 len) in
      Alcotest.(check bool)
        (Printf.sprintf "truncated to %d rejected (%s)" len msg)
        true
        (String.length msg > 0))
    [ 0; 1; 8; 16; 17; n / 4; n / 2; n - 1 ]

let test_reject_wrong_version () =
  let bytes = Summary.encode (Summary.build (Lazy.force small_doc)) in
  let wrong = Bytes.of_string bytes in
  Bytes.set wrong 8 (Char.chr 9);
  let msg = load_error (Bytes.to_string wrong) in
  Alcotest.(check bool)
    (Printf.sprintf "mentions version (%s)" msg)
    true
    (contains ~sub:"version" msg);
  (* info still parses the header and reports it unsupported *)
  with_file (Bytes.to_string wrong) (fun path ->
      let i = Synopsis_io.info path in
      Alcotest.(check int) "version" 9 i.Synopsis_io.version;
      Alcotest.(check bool) "unsupported" false i.Synopsis_io.supported)

let test_reject_legacy_magic () =
  let msg = load_error "XPESTSYN2\x00\x00\x00\x00\x00\x00\x00\x00" in
  Alcotest.(check bool)
    (Printf.sprintf "mentions legacy (%s)" msg)
    true
    (contains ~sub:"legacy" msg)

let test_reject_garbage () =
  List.iter
    (fun bytes ->
      let msg = load_error bytes in
      Alcotest.(check bool) "rejected" true (String.length msg > 0))
    [ ""; "x"; "not a synopsis at all, but long enough to have a header" ]

(* ------------------------------------------------------------------ *)
(* Typed rejection: exhaustive single-bit damage.                      *)

module E = Xpest_util.Xpest_error
module Manifest = Xpest_synopsis.Manifest

(* A deliberately small synopsis so flipping every byte stays cheap. *)
let tiny_bytes =
  lazy
    (Summary.encode
       (Summary.build (Registry.generate ~scale:0.01 ~seed:7 Registry.Ssplays)))

let load_typed_of bytes =
  with_file bytes (fun path -> Synopsis_io.load_typed path)

(* Every single-bit flip, at every byte of the file, must come back as
   a typed Corrupt — never an Ok summary (wrong estimates), never a
   crash, never another error class. *)
let test_typed_corrupt_every_byte () =
  let bytes = Lazy.force tiny_bytes in
  for pos = 0 to String.length bytes - 1 do
    let corrupted = Bytes.of_string bytes in
    Bytes.set corrupted pos
      (Char.chr (Char.code (Bytes.get corrupted pos) lxor (1 lsl (pos mod 8))));
    match load_typed_of (Bytes.to_string corrupted) with
    | Ok _ -> Alcotest.failf "flip at byte %d decoded to a summary" pos
    | Error (E.Corrupt { section; _ }) ->
        (* best-effort attribution: damage inside the 17-byte header
           (magic, version, stored checksum) resolves to "header" or,
           for the stored checksum itself, a "body" mismatch; damage
           past it always fails the body checksum *)
        let expected = if pos < 9 then [ "header" ] else [ "body" ] in
        Alcotest.(check bool)
          (Printf.sprintf "flip at byte %d attributed (%s)" pos section)
          true
          (List.mem section expected)
    | Error e ->
        Alcotest.failf "flip at byte %d: wrong error class %s" pos
          (E.to_string e)
  done

let test_typed_corrupt_truncation () =
  let bytes = Lazy.force tiny_bytes in
  let n = String.length bytes in
  let len = ref 0 in
  while !len < n do
    (match load_typed_of (String.sub bytes 0 !len) with
    | Ok _ -> Alcotest.failf "truncation to %d decoded to a summary" !len
    | Error (E.Corrupt _) -> ()
    | Error e ->
        Alcotest.failf "truncation to %d: wrong error class %s" !len
          (E.to_string e));
    len := !len + 7
  done

let test_typed_io_failure () =
  match Synopsis_io.load_typed "/nonexistent/xpest/no.syn" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error (E.Io_failure { path; _ }) ->
      Alcotest.(check string) "path carried" "/nonexistent/xpest/no.syn" path
  | Error e -> Alcotest.failf "wrong error class: %s" (E.to_string e)

(* The manifest shares the container, so it inherits the same
   guarantee: a flip anywhere in a manifest file is a typed Corrupt. *)
let test_typed_manifest_every_byte () =
  let m =
    List.fold_left
      (fun m e -> Manifest.add m e)
      Manifest.empty
      [
        {
          Manifest.dataset = "ssplays";
          variance = 0.0;
          file = "ssplays_v0.syn";
          bytes = 4432;
          checksum = 0xb8d459ee1eb801a0L;
        };
        {
          Manifest.dataset = "dblp";
          variance = 2.5;
          file = "dblp_v2.5.syn";
          bytes = 912;
          checksum = 0x0123456789abcdefL;
        };
      ]
  in
  let bytes = Manifest.encode m in
  for pos = 0 to String.length bytes - 1 do
    let corrupted = Bytes.of_string bytes in
    Bytes.set corrupted pos
      (Char.chr (Char.code (Bytes.get corrupted pos) lxor (1 lsl (pos mod 8))));
    with_file (Bytes.to_string corrupted) (fun path ->
        match Manifest.load_typed path with
        | Ok _ -> Alcotest.failf "manifest flip at byte %d accepted" pos
        | Error (E.Corrupt _) -> ()
        | Error e ->
            Alcotest.failf "manifest flip at byte %d: wrong class %s" pos
              (E.to_string e))
  done

(* A container whose checksum verifies but whose section table stops
   short: the error names the offset within the body, as it did when
   the body was parsed from a copy. *)
let test_table_error_offset () =
  let body = "\x01\x05ab" in
  let buf = Buffer.create 32 in
  Buffer.add_string buf "XPESTSYN";
  Buffer.add_char buf (Char.chr Wire.format_version);
  Wire.put_int64 buf (Wire.fnv1a64 body);
  Buffer.add_string buf body;
  let bytes = Buffer.contents buf in
  let msg = load_error bytes in
  Alcotest.(check bool)
    (Printf.sprintf "load names body offset 2 (%s)" msg)
    true
    (contains ~sub:"truncated string at offset 2" msg);
  with_file bytes (fun path ->
      match Synopsis_io.info_typed path with
      | Ok _ -> Alcotest.fail "malformed section table accepted"
      | Error e ->
          let msg = Xpest_util.Xpest_error.to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "info names body offset 2 (%s)" msg)
            true
            (contains ~sub:"truncated string at offset 2" msg))

let test_reject_missing_section () =
  (* A container that checksums correctly but lacks a section: the
     decoder must fail by name, not by exhausting the reader. *)
  let bytes = Wire.encode_container [ ("meta", "\x00") ] in
  let msg = load_error bytes in
  Alcotest.(check bool)
    (Printf.sprintf "mentions missing section (%s)" msg)
    true
    (contains ~sub:"section" msg)

(* A container whose checksum verifies but whose path-id section
   breaks the path-id tree's preconditions: rejected at load as
   [Corrupt] in that section, not later in the join or the size
   report. *)
let test_typed_malformed_pids () =
  let module Bitvec = Xpest_util.Bitvec in
  let sections = Wire.decode_container (Lazy.force tiny_bytes) in
  let with_pids pids root =
    let buf = Buffer.create 64 in
    Wire.put_array buf Wire.put_bitvec pids;
    Wire.put_bitvec buf root;
    Wire.encode_container
      (List.map
         (fun (name, payload) ->
           (name, if name = "path_ids" then Buffer.contents buf else payload))
         sections)
  in
  let v n = Bitvec.zero n in
  List.iter
    (fun (label, bytes, reason) ->
      match load_typed_of bytes with
      | Error (E.Corrupt { section; reason = r; _ }) ->
          Alcotest.(check string) (label ^ ": section") "path_ids" section;
          Alcotest.(check bool)
            (Printf.sprintf "%s: reason (%s)" label r)
            true (contains ~sub:reason r)
      | Ok _ -> Alcotest.failf "%s: loaded" label
      | Error e -> Alcotest.failf "%s: wrong class %s" label (E.to_string e))
    [
      ("no pids", with_pids [||] (v 3), "no path ids");
      ("zero width", with_pids [| v 0 |] (v 0), "zero-width path id");
      ("mixed widths", with_pids [| v 3; v 4 |] (v 3), "mixed widths");
      ("root width", with_pids [| v 3; v 3 |] (v 4), "mixed widths");
    ]

(* A p-histogram pid index rewritten behind a re-stamped checksum:
   the checksum vouches for the body, so only the decoder's own range
   check keeps the file from loading and then failing every query as
   [Internal] when estimation indexes past the path ids.  It must fail
   at load, as [Corrupt] in that section. *)
let test_typed_pid_index_out_of_range () =
  let bytes = Lazy.force tiny_bytes in
  let sections = Wire.decode_container bytes in
  let phist = List.assoc "p_histograms" sections in
  let npids =
    Array.length (Wire.get_array (Wire.reader (List.assoc "path_ids" sections)) Wire.get_bitvec)
  in
  (* the first bucket's first pid index: skip the tag count, the first
     tag, its bucket count and the bucket's pid count *)
  let r = Wire.reader phist in
  ignore (Wire.get_int r);
  ignore (Wire.get_string r);
  ignore (Wire.get_int r);
  ignore (Wire.get_int r);
  let start = r.Wire.pos in
  ignore (Wire.get_int r);
  let payload = Bytes.of_string phist in
  Bytes.set payload (r.Wire.pos - 1) '\x7f';
  let payload = Bytes.to_string payload in
  let r = Wire.reader payload in
  r.Wire.pos <- start;
  let index = Wire.get_int r in
  if index < npids then Alcotest.failf "index %d is not past the %d path ids" index npids;
  (* re-encoding stamps the checksum of the new body; nothing else moves *)
  let mutated =
    Wire.encode_container
      (List.map (fun (name, p) -> (name, if name = "p_histograms" then payload else p)) sections)
  in
  let differ = ref 0 in
  String.iteri (fun i c -> if c <> bytes.[i] then incr differ) mutated;
  Alcotest.(check int) "same length" (String.length bytes) (String.length mutated);
  Alcotest.(check bool) "one body byte and the checksum differ" true (!differ <= 9);
  match load_typed_of mutated with
  | Error (E.Corrupt { section; reason; _ }) ->
      Alcotest.(check string) "section" "p_histograms" section;
      Alcotest.(check bool)
        (Printf.sprintf "reason (%s)" reason)
        true
        (contains ~sub:"pid index out of range" reason)
  | Ok _ -> Alcotest.fail "loaded"
  | Error e -> Alcotest.failf "wrong class %s" (E.to_string e)

(* ------------------------------------------------------------------ *)
(* The catalog's one-read load against the two-step check-then-load.   *)

module Fault = Xpest_util.Fault

(* [load_verified] must answer exactly as [verify] followed by
   [load_typed] on the same bytes — same error, or a summary that
   re-encodes to the same file — while reading the file once. *)
let same_as_two_step label bytes ~record_bytes ~record_checksum =
  with_file bytes (fun path ->
      let reads = ref 0 in
      let io =
        {
          Fault.Io.default with
          read_file =
            (fun p ->
              incr reads;
              Fault.Io.default.read_file p);
        }
      in
      let one =
        Synopsis_io.load_verified ~io ~bytes:record_bytes
          ~checksum:record_checksum path
      in
      Alcotest.(check int) (label ^ ": one read") 1 !reads;
      let two =
        Result.bind
          (Synopsis_io.verify ~bytes:record_bytes ~checksum:record_checksum path)
          (fun () -> Synopsis_io.load_typed path)
      in
      (match (one, two) with
      | Ok a, Ok b ->
          Alcotest.(check bool) (label ^ ": same summary") true
            (String.equal (Summary.encode a) (Summary.encode b))
      | Error a, Error b ->
          if a <> b then
            Alcotest.failf "%s: %s, two-step %s" label (E.to_string a)
              (E.to_string b)
      | Ok _, Error e | Error e, Ok _ ->
          Alcotest.failf "%s: only one side failed (%s)" label (E.to_string e));
      one)

(* The class each case must land in: only a sound read that differs
   from its record is stale; a damaged read is corrupt whatever the
   record says, because its size and checksum prove nothing. *)
let check_class label expected result =
  let got =
    match result with
    | Ok _ -> `Ok
    | Error (E.Stale_manifest _) -> `Stale
    | Error (E.Corrupt _) -> `Corrupt
    | Error e -> Alcotest.failf "%s: unexpected class %s" label (E.to_string e)
  in
  if got <> expected then
    Alcotest.failf "%s: wrong class (%s)" label
      (match result with Ok _ -> "Ok" | Error e -> E.to_string e)

let test_verified_load_matches_two_step () =
  let bytes = Lazy.force tiny_bytes in
  let n = String.length bytes in
  let checksum = (Wire.read_header bytes).Wire.checksum in
  let records =
    [
      ("record", n, checksum);
      ("stale size", n + 1, checksum);
      ("stale checksum", n, Int64.logxor checksum 1L);
    ]
  in
  let flip pos =
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (pos mod 8))));
    Bytes.to_string b
  in
  let with_version v =
    let b = Bytes.of_string bytes in
    Bytes.set b 8 (Char.chr v);
    Bytes.to_string b
  in
  let variants =
    [ ("intact", bytes); ("version 9", with_version 9); ("legacy", with_version (Char.code '2')) ]
    @ List.init n (fun pos -> (Printf.sprintf "flip %d" pos, flip pos))
    @ List.init ((n / 7) + 1) (fun i ->
          (Printf.sprintf "truncated to %d" (i * 7), String.sub bytes 0 (i * 7)))
    @ [
        (* checksums verify, decoding does not *)
        ("missing section", Wire.encode_container [ ("meta", "\x00") ]);
        ("bad payload", Wire.encode_container [ ("meta", "") ]);
      ]
  in
  let expected what rec_what =
    match what with
    | "intact" -> if rec_what = "record" then `Ok else `Stale
    (* a version byte the body checksum does not cover *)
    | "version 9" | "flip 8" -> if rec_what = "record" then `Corrupt else `Stale
    | "missing section" | "bad payload" -> `Stale
    | _ -> `Corrupt
  in
  List.iter
    (fun (what, variant) ->
      List.iter
        (fun (rec_what, record_bytes, record_checksum) ->
          let label = Printf.sprintf "%s / %s" what rec_what in
          check_class label (expected what rec_what)
            (same_as_two_step label variant ~record_bytes ~record_checksum))
        records)
    variants;
  (* the crafted containers, against records that match them *)
  List.iter
    (fun variant ->
      check_class "crafted, own record" `Corrupt
        (same_as_two_step "crafted, own record" variant
           ~record_bytes:(String.length variant)
           ~record_checksum:(Wire.read_header variant).Wire.checksum))
    [
      Wire.encode_container [ ("meta", "\x00") ];
      with_version 9;
    ]

let test_verified_load_missing_file () =
  match
    Synopsis_io.load_verified ~bytes:1 ~checksum:0L "/nonexistent/xpest/no.syn"
  with
  | Error (E.Io_failure { path; _ }) ->
      Alcotest.(check string) "path carried" "/nonexistent/xpest/no.syn" path
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error e -> Alcotest.failf "wrong error class: %s" (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Fuzzing behind a re-stamped checksum.                               *)

module Sketch = Xpest_synopsis.Sketch
module Sketch_exec = Xpest_estimator.Sketch_exec
module Plan = Xpest_plan.Plan
module Catalog = Xpest_catalog.Catalog
module Admission = Xpest_catalog.Admission

(* Stamp the FNV-1a checksum of the body (everything past the
   container header) into the header, so damaged body bytes get past
   the checksum and reach the decoders' own checks. *)
let restamp bytes =
  let n = String.length bytes in
  let buf = Buffer.create 8 in
  Wire.put_int64 buf
    (Wire.fnv1a64 (String.sub bytes Wire.header_bytes (n - Wire.header_bytes)));
  let b = Bytes.of_string bytes in
  Bytes.blit_string (Buffer.contents buf) 0 b (Wire.header_bytes - 8) 8;
  Bytes.to_string b

(* 1-3 byte mutations: an offset (taken modulo the body length) and a
   non-zero mask to xor in, so every mutation changes its byte. *)
let mutations =
  QCheck.make
    ~print:
      QCheck.Print.(list (pair int int))
    QCheck.Gen.(list_size (int_range 1 3) (pair (int_bound 1_000_000) (int_range 1 255)))

(* Apply the mutations to the bytes from [from] on. *)
let mutate ~from bytes muts =
  let b = Bytes.of_string bytes in
  let body = Bytes.length b - from in
  List.iter
    (fun (off, mask) ->
      let pos = from + (off mod body) in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask)))
    muts;
  Bytes.to_string b

let mutate_container bytes muts = restamp (mutate ~from:Wire.header_bytes bytes muts)

(* Six fixed SSPlays queries, one per estimation route: Theorem 4.1
   twice, Equation 2, Equations 3 and 5, and the Example 5.3
   conversion. *)
let fuzz_queries =
  lazy
    (List.map Pattern.of_string
       [
         "//SPEECH/LINE";
         "//PLAY//{SPEECH}";
         "//ACT[/{SCENE}]";
         "//SPEECH[/SPEAKER/folls::{LINE}]";
         "//{SPEECH}[/SPEAKER/folls::LINE]";
         "//SCENE[/SPEECH/foll::{STAGEDIR}]";
       ])

(* The property's conclusion for an [Ok] decode: no answer is
   [Internal] (an escaped exception counts as one). *)
let no_internal label answers =
  List.iteri
    (fun i -> function
      | Error (E.Internal reason) ->
          QCheck.Test.fail_reportf "%s: query %d answered Internal: %s" label i
            reason
      | Ok _ | Error _ -> ())
    answers;
  true

let fuzz_test ~seed test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test

let prop_summary_fuzz =
  QCheck.Test.make ~count:300 ~name:"summary: typed error or no Internal"
    mutations (fun muts ->
      match load_typed_of (mutate_container (Lazy.force tiny_bytes) muts) with
      | Error _ -> true
      | Ok summary ->
          let est = Estimator.create summary in
          no_internal "summary"
            (List.map (Estimator.try_estimate est) (Lazy.force fuzz_queries)))

let tiny_sketch =
  lazy
    (Sketch.encode
       (Sketch.build (Registry.generate ~scale:0.01 ~seed:7 Registry.Ssplays)))

let prop_sketch_fuzz =
  QCheck.Test.make ~count:300 ~name:"sketch: typed error or no Internal"
    mutations (fun muts ->
      let bytes = mutate_container (Lazy.force tiny_sketch) muts in
      match with_file bytes Sketch.load_typed with
      | Error _ -> true
      | Ok sketch ->
          let sx = Sketch_exec.create sketch in
          no_internal "sketch"
            (List.map
               (fun q ->
                 match Sketch_exec.estimate_plan sx (Plan.compile q) with
                 | v -> Ok v
                 | exception E.Error e -> Error e
                 | exception exn -> Error (E.Internal (Printexc.to_string exn)))
               (Lazy.force fuzz_queries)))

let fuzz_key v = { Catalog.dataset = "ssplays"; variance = v }

(* Six routed pairs over the two keys of the fuzz catalog. *)
let fuzz_pairs () =
  Array.of_list
    (List.mapi
       (fun i q -> (fuzz_key (if i mod 2 = 0 then 0.0 else 2.0), q))
       (Lazy.force fuzz_queries))

(* A catalog directory with two SSPlays 0.01 variances and the
   dataset's sketch, and the bytes of its manifest. *)
let fuzz_catalog =
  lazy
    (let dir = Filename.temp_file "xpest_fuzz_catalog" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o755;
     let doc = Registry.generate ~scale:0.01 ~seed:7 Registry.Ssplays in
     let m =
       List.fold_left
         (fun m v ->
           Catalog.save_entry ~dir m (fuzz_key v)
             (Summary.build ~p_variance:v ~o_variance:v doc))
         Manifest.empty [ 0.0; 2.0 ]
     in
     let m = Catalog.save_sketch ~dir m "ssplays" (Sketch.build doc) in
     (dir, Manifest.encode m))

let prop_manifest_fuzz =
  QCheck.Test.make ~count:200 ~name:"manifest: typed error or no Internal"
    mutations (fun muts ->
      let dir, bytes = Lazy.force fuzz_catalog in
      match with_file (mutate_container bytes muts) Manifest.load_typed with
      | Error _ -> true
      | Ok m ->
          let cat = Catalog.of_manifest ~dir m in
          no_internal "manifest"
            (Array.to_list (Catalog.estimate_batch_r cat (fuzz_pairs ()))))

(* The health file is text without a checksum: its body is everything
   past the magic line.  The fixture holds quarantined keys and an
   open breaker. *)
let breaker = { Admission.unlimited with Admission.breaker_threshold = Some 2 }

let health_bytes =
  lazy
    (let summary = Summary.decode (Lazy.force tiny_bytes) in
     let loader (k : Catalog.key) =
       if k.Catalog.variance = 0.0 then Ok summary
       else Error (E.Io_failure { path = "down"; reason = "injected" })
     in
     let resilience =
       { Catalog.default_resilience with max_retries = 0; failure_threshold = 1 }
     in
     let cat = Catalog.create_r ~resilience ~admission:breaker ~loader () in
     for _ = 1 to 3 do
       ignore (Catalog.estimate_batch_r cat (fuzz_pairs ()))
     done;
     let path = temp_file () in
     Catalog.save_health cat path;
     let ic = open_in_bin path in
     let bytes = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Sys.remove path;
     bytes)

let prop_health_fuzz =
  QCheck.Test.make ~count:300 ~name:"health: typed error or no Internal"
    mutations (fun muts ->
      let bytes = Lazy.force health_bytes in
      let from = String.index bytes '\n' + 1 in
      let summary = Summary.decode (Lazy.force tiny_bytes) in
      let cat =
        Catalog.create_r ~admission:breaker ~loader:(fun _ -> Ok summary) ()
      in
      match with_file (mutate ~from bytes muts) (Catalog.load_health cat) with
      | Error _ -> true
      | Ok _ ->
          no_internal "health"
            (Array.to_list (Catalog.estimate_batch_r cat (fuzz_pairs ()))))

(* ------------------------------------------------------------------ *)
(* Cross-section checks behind a re-stamped checksum.                  *)

(* The sections of [tiny_bytes], read back as values and re-encoded
   after one edit: the container stamps the checksum of the new body,
   so only the decoder's own checks stand between the file and an
   [Ok] load.  The readers mirror the synopsis codec. *)
let read_phist payload =
  let r = Wire.reader payload in
  let n = Wire.get_int r in
  let entries =
    List.init n (fun _ ->
        let tag = Wire.get_string r in
        let buckets =
          Wire.get_list r (fun r ->
              let pids = Wire.get_array r Wire.get_int in
              (pids, Wire.get_array r Wire.get_int))
        in
        (tag, buckets))
  in
  Wire.expect_end r;
  entries

let write_phist entries =
  let buf = Buffer.create 1024 in
  Wire.put_int buf (List.length entries);
  List.iter
    (fun (tag, buckets) ->
      Wire.put_string buf tag;
      Wire.put_list buf
        (fun buf (pids, freqs) ->
          Wire.put_array buf Wire.put_int pids;
          Wire.put_array buf Wire.put_int freqs)
        buckets)
    entries;
  Buffer.contents buf

(* (tag, pid order, boxes as (x0, y0, x1, y1, average)) *)
let read_ohist payload =
  let r = Wire.reader payload in
  let n = Wire.get_int r in
  let entries =
    List.init n (fun _ ->
        let tag = Wire.get_string r in
        let order = Wire.get_array r Wire.get_int in
        let boxes =
          Wire.get_list r (fun r ->
              let x0 = Wire.get_int r in
              let y0 = Wire.get_int r in
              let x1 = Wire.get_int r in
              let y1 = Wire.get_int r in
              (x0, y0, x1, y1, Wire.get_float r))
        in
        (tag, order, boxes))
  in
  Wire.expect_end r;
  entries

let write_ohist entries =
  let buf = Buffer.create 1024 in
  Wire.put_int buf (List.length entries);
  List.iter
    (fun (tag, order, boxes) ->
      Wire.put_string buf tag;
      Wire.put_array buf Wire.put_int order;
      Wire.put_list buf
        (fun buf (x0, y0, x1, y1, f) ->
          List.iter (Wire.put_int buf) [ x0; y0; x1; y1 ];
          Wire.put_float buf f)
        boxes)
    entries;
  Buffer.contents buf

let tiny_sections () = Wire.decode_container (Lazy.force tiny_bytes)

let with_section name payload =
  Wire.encode_container
    (List.map (fun (n, p) -> (n, if n = name then payload else p)) (tiny_sections ()))

let expect_corrupt label bytes ~section ~reason =
  match load_typed_of bytes with
  | Error (E.Corrupt { section = s; reason = r; _ }) ->
      Alcotest.(check string) (label ^ ": section") section s;
      Alcotest.(check bool) (Printf.sprintf "%s: reason (%s)" label r) true (contains ~sub:reason r)
  | Ok _ -> Alcotest.failf "%s: loaded" label
  | Error e -> Alcotest.failf "%s: wrong class %s" label (E.to_string e)

(* The readers and writers above are faithful: unedited, they give the
   file back byte for byte. *)
let test_section_codecs_faithful () =
  let sections = tiny_sections () in
  Alcotest.(check string) "p_histograms"
    (List.assoc "p_histograms" sections)
    (write_phist (read_phist (List.assoc "p_histograms" sections)));
  Alcotest.(check string) "o_histograms"
    (List.assoc "o_histograms" sections)
    (write_ohist (read_ohist (List.assoc "o_histograms" sections)))

let test_path_tag_outside_vocabulary () =
  let paths =
    Wire.get_list (Wire.reader (List.assoc "encoding_table" (tiny_sections ()))) (fun r ->
        Wire.get_list r Wire.get_string)
  in
  let buf = Buffer.create 1024 in
  Wire.put_list buf
    (fun buf path -> Wire.put_list buf Wire.put_string path)
    (match paths with p :: rest -> (p @ [ "NOT-A-TAG" ]) :: rest | [] -> []);
  expect_corrupt "path tag" (with_section "encoding_table" (Buffer.contents buf))
    ~section:"encoding_table" ~reason:"not in the tag vocabulary"

let test_duplicate_histogram_tag () =
  let sections = tiny_sections () in
  let p = read_phist (List.assoc "p_histograms" sections) in
  expect_corrupt "p-histogram" (with_section "p_histograms" (write_phist (List.hd p :: p)))
    ~section:"p_histograms" ~reason:"duplicate p-histogram tag";
  let o = read_ohist (List.assoc "o_histograms" sections) in
  expect_corrupt "o-histogram" (with_section "o_histograms" (write_ohist (List.hd o :: o)))
    ~section:"o_histograms" ~reason:"duplicate o-histogram tag"

(* The o-histogram's columns are its tag's p-histogram row: a column
   order with two pids swapped, one dropped, or one foreign is not. *)
let test_o_order_disagrees () =
  let o = read_ohist (List.assoc "o_histograms" (tiny_sections ())) in
  let edit f =
    let rec go = function
      | [] -> Alcotest.fail "no tag with two pids"
      | (tag, order, boxes) :: rest when Array.length order >= 2 -> (tag, f order, boxes) :: rest
      | e :: rest -> e :: go rest
    in
    write_ohist (go o)
  in
  List.iter
    (fun (label, f) ->
      expect_corrupt label (with_section "o_histograms" (edit f)) ~section:"o_histograms"
        ~reason:"pid order differs")
    [
      ( "swapped",
        fun a ->
          let a = Array.copy a in
          let x = a.(0) in
          a.(0) <- a.(1);
          a.(1) <- x;
          a );
      ("dropped", fun a -> Array.sub a 1 (Array.length a - 1));
      ("foreign", fun a -> Array.append a [| 0 |]);
    ]

(* Boxes lie in the column x [2 * ntags] grid, start <= end. *)
let test_box_outside_grid () =
  let sections = tiny_sections () in
  let ntags =
    Array.length (Wire.get_array (Wire.reader (List.assoc "tags" sections)) Wire.get_string)
  in
  let o = read_ohist (List.assoc "o_histograms" sections) in
  let edit f =
    let rec go = function
      | [] -> Alcotest.fail "no o-histogram with a box"
      | (tag, order, b :: boxes) :: rest -> (tag, order, f (Array.length order) b :: boxes) :: rest
      | e :: rest -> e :: go rest
    in
    write_ohist (go o)
  in
  List.iter
    (fun (label, f) ->
      expect_corrupt label (with_section "o_histograms" (edit f)) ~section:"o_histograms"
        ~reason:"box outside its grid")
    [
      ("column past the row", fun ncols (x0, y0, _, y1, f) -> (x0, y0, ncols, y1, f));
      ("row past 2 * ntags", fun _ (x0, y0, x1, _, f) -> (x0, y0, x1, 2 * ntags, f));
      ("x start > end", fun _ (_, y0, x1, y1, f) -> (x1 + 1, y0, x1, y1, f));
      ("y start > end", fun _ (x0, _, x1, y1, f) -> (x0, y1 + 1, x1, y1, f));
    ]

let test_duplicate_pids () =
  let r = Wire.reader (List.assoc "path_ids" (tiny_sections ())) in
  let pids = Wire.get_array r Wire.get_bitvec in
  let root = Wire.get_bitvec r in
  let buf = Buffer.create 1024 in
  Wire.put_array buf Wire.put_bitvec (Array.mapi (fun i p -> if i = 1 then pids.(0) else p) pids);
  Wire.put_bitvec buf root;
  expect_corrupt "pid 1 = pid 0" (with_section "path_ids" (Buffer.contents buf))
    ~section:"path_ids" ~reason:"duplicate path ids"

(* The other references the flat core indexes by: histogram tags in
   the vocabulary, a vocabulary without duplicates, one slot per pid in
   a row, and pids as wide as the path count. *)
let test_other_cross_section_checks () =
  let module Bitvec = Xpest_util.Bitvec in
  let sections = tiny_sections () in
  let p = read_phist (List.assoc "p_histograms" sections) in
  expect_corrupt "p-histogram tag"
    (with_section "p_histograms" (write_phist (p @ [ ("~NOT-A-TAG", []) ])))
    ~section:"p_histograms" ~reason:"not in the tag vocabulary";
  let relist = function
    | (tag, (pids, freqs) :: buckets) :: rest ->
        (tag, (Array.append pids [| pids.(0) |], Array.append freqs [| freqs.(0) |]) :: buckets)
        :: rest
    | _ -> Alcotest.fail "no p-histogram bucket"
  in
  expect_corrupt "pid listed twice" (with_section "p_histograms" (write_phist (relist p)))
    ~section:"p_histograms" ~reason:"pid listed twice";
  let o = read_ohist (List.assoc "o_histograms" sections) in
  expect_corrupt "o-histogram tag"
    (with_section "o_histograms" (write_ohist (o @ [ ("~NOT-A-TAG", [||], []) ])))
    ~section:"o_histograms" ~reason:"not in the tag vocabulary";
  let tags = Wire.get_array (Wire.reader (List.assoc "tags" sections)) Wire.get_string in
  let buf = Buffer.create 256 in
  Wire.put_array buf Wire.put_string (Array.append tags [| tags.(0) |]);
  expect_corrupt "vocabulary" (with_section "tags" (Buffer.contents buf)) ~section:"tags"
    ~reason:"duplicate tag";
  let r = Wire.reader (List.assoc "path_ids" sections) in
  let pids = Wire.get_array r Wire.get_bitvec in
  let root = Wire.get_bitvec r in
  let widen v =
    Bitvec.of_bits (Array.init (Bitvec.width v + 1) (fun i -> i < Bitvec.width v && Bitvec.get v i))
  in
  let buf = Buffer.create 1024 in
  Wire.put_array buf Wire.put_bitvec (Array.map widen pids);
  Wire.put_bitvec buf (widen root);
  expect_corrupt "pid width" (with_section "path_ids" (Buffer.contents buf)) ~section:"path_ids"
    ~reason:"width differs from the path count"

(* Every body byte of the SSPlays 0.01 summary, set to three other
   values behind a re-stamped checksum: each file loads to a typed error
   or to a summary whose six fixed queries never answer [Internal].
   Deterministic and exhaustive where the qcheck property samples. *)
let test_single_byte_sweep () =
  let bytes = Lazy.force tiny_bytes in
  let queries = Lazy.force fuzz_queries in
  let io b = { Fault.Io.default with read_file = (fun _ -> b) } in
  let loaded = ref 0 in
  for pos = Wire.header_bytes to String.length bytes - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string bytes in
        Bytes.set b pos (Char.chr (Char.code bytes.[pos] lxor mask));
        let mutated = restamp (Bytes.to_string b) in
        match Synopsis_io.load_typed ~io:(io mutated) "sweep" with
        | Error _ -> ()
        | Ok summary ->
            incr loaded;
            let est = Estimator.create summary in
            List.iteri
              (fun i q ->
                match Estimator.try_estimate est q with
                | Error (E.Internal reason) ->
                    Alcotest.failf "byte %d ^ %#x: query %d answered Internal: %s" pos mask i reason
                | Ok _ | Error _ -> ())
              queries)
      [ 0x01; 0x80; 0xff ]
  done;
  (* some mutations (a frequency, a box average) leave a sound file *)
  Alcotest.(check bool) "some mutated files load" true (!loaded > 0)

let test_health_fixture_has_state () =
  let bytes = Lazy.force health_bytes in
  let lines = String.split_on_char '\n' bytes in
  Alcotest.(check bool)
    (Printf.sprintf "a key row and a breaker line (%S)" bytes)
    true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '!') lines
    && List.length (List.filter (fun l -> l <> "") lines) >= 3)

let () =
  Alcotest.run "synopsis_io"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "save-load-save is byte-identical" `Quick
            test_save_load_save_byte_identical;
          Alcotest.test_case "saves are canonical" `Quick test_save_is_canonical;
          Alcotest.test_case "loaded estimates match on a full workload" `Quick
            test_loaded_estimates_match_on_workload;
        ] );
      ( "info",
        [
          Alcotest.test_case "reports version and per-section sizes" `Quick
            test_info_reports_sections;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "corrupted bytes" `Quick
            test_reject_corrupted_anywhere;
          Alcotest.test_case "truncation" `Quick test_reject_truncation_everywhere;
          Alcotest.test_case "wrong version" `Quick test_reject_wrong_version;
          Alcotest.test_case "legacy magic" `Quick test_reject_legacy_magic;
          Alcotest.test_case "garbage" `Quick test_reject_garbage;
          Alcotest.test_case "missing section" `Quick test_reject_missing_section;
          Alcotest.test_case "section table offsets" `Quick test_table_error_offset;
        ] );
      ( "typed_rejection",
        [
          Alcotest.test_case "every byte flip is Corrupt" `Quick
            test_typed_corrupt_every_byte;
          Alcotest.test_case "every truncation is Corrupt" `Quick
            test_typed_corrupt_truncation;
          Alcotest.test_case "missing file is Io_failure" `Quick
            test_typed_io_failure;
          Alcotest.test_case "manifest flips are Corrupt" `Quick
            test_typed_manifest_every_byte;
          Alcotest.test_case "malformed path ids are Corrupt" `Quick
            test_typed_malformed_pids;
          Alcotest.test_case "out-of-range p-histogram pid index is Corrupt" `Quick
            test_typed_pid_index_out_of_range;
          Alcotest.test_case "verified load = verify then load" `Quick
            test_verified_load_matches_two_step;
          Alcotest.test_case "verified load of a missing file" `Quick
            test_verified_load_missing_file;
        ] );
      ( "cross_section",
        [
          Alcotest.test_case "section codecs are faithful" `Quick test_section_codecs_faithful;
          Alcotest.test_case "path tag outside the vocabulary is Corrupt" `Quick
            test_path_tag_outside_vocabulary;
          Alcotest.test_case "duplicate histogram tag is Corrupt" `Quick
            test_duplicate_histogram_tag;
          Alcotest.test_case "o-histogram pid order off its row is Corrupt" `Quick
            test_o_order_disagrees;
          Alcotest.test_case "box outside its grid is Corrupt" `Quick test_box_outside_grid;
          Alcotest.test_case "duplicate path ids are Corrupt" `Quick test_duplicate_pids;
          Alcotest.test_case "other cross-section references are Corrupt" `Quick
            test_other_cross_section_checks;
          Alcotest.test_case "every body byte, three values each" `Quick test_single_byte_sweep;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "health fixture holds state" `Quick
            test_health_fixture_has_state;
          fuzz_test ~seed:4101 prop_summary_fuzz;
          fuzz_test ~seed:4102 prop_sketch_fuzz;
          fuzz_test ~seed:4103 prop_manifest_fuzz;
          fuzz_test ~seed:4104 prop_health_fuzz;
        ] );
    ]
