(* Round-trip tests for the synopsis persistence format. *)

module Doc = Xpest_xml.Doc
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Po_table = Xpest_synopsis.Po_table
module Estimator = Xpest_estimator.Estimator
module Bitvec = Xpest_util.Bitvec

let temp_file () = Filename.temp_file "xpest_synopsis" ".bin"

let with_roundtrip summary f =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Summary.save summary path;
      f (Summary.load path))

let queries =
  [
    "//{D}";
    "//B/{D}";
    "/Root/{A}";
    "//A[/C/F]/B/{D}";
    "//A[/C/{F}]/B/D";
    "//A[/C/folls::{B}/D]";
    "//A[/C/pres::{B}]";
    "//A[/C/foll::{D}]";
    "//{A}[/C/folls::B/D]";
  ]

let test_estimates_survive () =
  let summary = Summary.build Paper_fixture.doc in
  with_roundtrip summary (fun loaded ->
      let est0 = Estimator.create summary in
      let est1 = Estimator.create loaded in
      List.iter
        (fun q ->
          let q = Pattern.of_string q in
          Alcotest.(check (float 1e-9))
            (Pattern.to_string q)
            (Estimator.estimate est0 q)
            (Estimator.estimate est1 q))
        queries)

let test_estimates_survive_with_variance () =
  let summary = Summary.build ~p_variance:2.0 ~o_variance:3.0 Paper_fixture.doc in
  with_roundtrip summary (fun loaded ->
      Alcotest.(check (float 1e-9)) "p variance" 2.0 (Summary.p_variance loaded);
      Alcotest.(check (float 1e-9)) "o variance" 3.0 (Summary.o_variance loaded);
      let est0 = Estimator.create summary in
      let est1 = Estimator.create loaded in
      List.iter
        (fun q ->
          let q = Pattern.of_string q in
          Alcotest.(check (float 1e-9))
            (Pattern.to_string q)
            (Estimator.estimate est0 q)
            (Estimator.estimate est1 q))
        queries)

let test_accounting_survives () =
  let summary = Summary.build Paper_fixture.doc in
  with_roundtrip summary (fun loaded ->
      Alcotest.(check int) "p bytes" (Summary.p_histogram_bytes summary)
        (Summary.p_histogram_bytes loaded);
      Alcotest.(check int) "o bytes" (Summary.o_histogram_bytes summary)
        (Summary.o_histogram_bytes loaded);
      Alcotest.(check int) "total bytes" (Summary.total_bytes summary)
        (Summary.total_bytes loaded))

let test_core_accessors_survive () =
  let summary = Summary.build Paper_fixture.doc in
  with_roundtrip summary (fun loaded ->
      Alcotest.(check string) "root pid"
        (Bitvec.to_string (Summary.root_pid summary))
        (Bitvec.to_string (Summary.root_pid loaded));
      Alcotest.(check (array string)) "tags" (Summary.tags summary)
        (Summary.tags loaded);
      Alcotest.(check (float 1e-9)) "tag_total" (Summary.tag_total summary "B")
        (Summary.tag_total loaded "B");
      Alcotest.(check (float 1e-9)) "order_frequency"
        (Summary.order_frequency summary ~tag:"B"
           ~pid:(Paper_fixture.bv Paper_fixture.p5)
           ~other:"C" ~region:Po_table.After)
        (Summary.order_frequency loaded ~tag:"B"
           ~pid:(Paper_fixture.bv Paper_fixture.p5)
           ~other:"C" ~region:Po_table.After))

(* ------------------------------------------------------------------ *)
(* Checksums and memory accounting, pinned.                            *)

module Wire = Xpest_synopsis.Wire
module Registry = Xpest_datasets.Registry
module Pid_tree = Xpest_encoding.Pid_tree
module Labeler = Xpest_encoding.Labeler

let test_fnv_known_answers () =
  Alcotest.(check int64) "FNV-1a 64 of \"\"" 0xcbf29ce484222325L (Wire.fnv1a64 "");
  Alcotest.(check int64) "FNV-1a 64 of \"a\"" 0xaf63dc4c8601ec8cL (Wire.fnv1a64 "a")

(* The wire size, stored body checksum, [total_bytes] and
   [pid_tree_bytes] of fixed synopses, as the format and the paper's
   accounting define them.  Any change to an encoded byte, to the
   checksum or to the modeled sizes shows here. *)
let pinned =
  [
    (* source, variance, wire bytes, checksum, total_bytes, pid_tree_bytes *)
    ("paper", 0.0, 442, 0x53a6b6c09a7b31bfL, 198, 60);
    ("ssplays", 0.0, 4938, 0x37171f9fc4c429ffL, 1994, 405);
    ("ssplays", 2.0, 4432, 0xb8d459ee1eb801a0L, 1916, 405);
    ("dblp", 0.0, 24799, 0x2253b69b27ecee57L, 5776, 2490);
    ("dblp", 2.0, 21172, 0xa6d48b6b8fcba584L, 5662, 2490);
    ("xmark", 0.0, 59254, 0xfd9d671866e94650L, 31825, 14780);
    ("xmark", 2.0, 52626, 0x5adc6bf5e57c691aL, 31045, 14780);
  ]

let base_of =
  let memo = Hashtbl.create 4 in
  fun source ->
    match Hashtbl.find_opt memo source with
    | Some b -> b
    | None ->
        let doc =
          match Registry.of_string source with
          | Some name -> Registry.generate ~scale:0.02 name
          | None -> Paper_fixture.doc
        in
        let b = Summary.collect doc in
        Hashtbl.replace memo source b;
        b

let test_pinned_accounting () =
  List.iter
    (fun (source, v, wire_bytes, checksum, total, tree) ->
      let label what = Printf.sprintf "%s v=%g: %s" source v what in
      let built = Summary.assemble ~p_variance:v ~o_variance:v (base_of source) in
      let data = Summary.encode built in
      Alcotest.(check int) (label "wire bytes") wire_bytes (String.length data);
      Alcotest.(check int64) (label "stored checksum") checksum
        (Wire.read_header data).Wire.checksum;
      Alcotest.(check int64) (label "checksum is FNV-1a 64 of the body") checksum
        (Wire.fnv1a64
           (String.sub data Wire.header_bytes (String.length data - Wire.header_bytes)));
      let loaded = Summary.decode data in
      Alcotest.(check string) (label "re-encodes byte-identical") data
        (Summary.encode loaded);
      let pids = Array.to_list (Labeler.distinct_pids (Summary.labeler built)) in
      Alcotest.(check int) (label "pid_tree_bytes, built") tree
        (Summary.pid_tree_bytes built);
      Alcotest.(check int) (label "pid_tree_bytes, loaded") tree
        (Summary.pid_tree_bytes loaded);
      Alcotest.(check int) (label "pid_tree_bytes = tree over the pids") tree
        (Pid_tree.byte_size (Pid_tree.build pids));
      Alcotest.(check int) (label "total_bytes, built") total (Summary.total_bytes built);
      Alcotest.(check int) (label "total_bytes, loaded") total
        (Summary.total_bytes loaded))
    pinned

(* The modeled sizes behind Tables 3-5 and Figures 9 and 11, and the
   per-tag histogram counts [synopsis info] reports, pinned for built
   and loaded summaries: the representation of the summary may change,
   the paper-table replication may not.  A count list is pinned by its
   tag count, its total and the MD5 of its "tag:n;..." rendering. *)
let pinned_model =
  [
    (* source, v, p bytes, o bytes, encoding table bytes, pid tree bytes,
       p-histogram buckets, o-histogram boxes *)
    ( "ssplays", 0.0, 412, 4280, 1177, 405,
      (21, 49, "209ff05548616a6ccb8337243eca5e7b"),
      (21, 214, "28f42a68f6daa42ebfafb8a34fe00f9f") );
    ( "ssplays", 2.0, 334, 3480, 1177, 405,
      (21, 36, "3915e832f8c141cfc89b03ba23fe9dce"),
      (21, 174, "94b394a0bb8fdbb8161018c79ecb8e23") );
    ( "dblp", 0.0, 1114, 32240, 2172, 2490,
      (31, 138, "db6d950cce32f64f0fcd0e45cb68c96b"),
      (31, 1612, "cf00ad5c6e7695560d935fbac02ae922") );
    ( "dblp", 2.0, 1000, 26260, 2172, 2490,
      (31, 119, "052d4548d182a6e91f6846aaf4176e18"),
      (31, 1313, "3bc0dd1627ca37c6200dd039860552fe") );
    ( "xmark", 0.0, 3622, 25620, 13423, 14780,
      (74, 226, "694a96a3601485ef4f4e3b57cfab13e7"),
      (74, 1281, "d191d8b63ed1326cbfaa0a16640ba219") );
    ( "xmark", 2.0, 2842, 15200, 13423, 14780,
      (74, 96, "cedd87a180762a3c9b3d1a3ef41585ee"),
      (74, 760, "c47b14638034674bd31ccdca08968642") );
  ]

let counts l =
  ( List.length l,
    List.fold_left (fun acc (_, n) -> acc + n) 0 l,
    Digest.to_hex
      (Digest.string (String.concat ";" (List.map (fun (t, n) -> Printf.sprintf "%s:%d" t n) l))) )

let test_pinned_model () =
  List.iter
    (fun (source, v, p, o, enc, tree, buckets, boxes) ->
      let built = Summary.assemble ~p_variance:v ~o_variance:v (base_of source) in
      let loaded = Summary.decode (Summary.encode built) in
      Alcotest.(check bool)
        (Printf.sprintf "%s v=%g: decode gives the assembled core" source v)
        true
        (Summary.flat built = Summary.flat loaded);
      List.iter
        (fun (side, s) ->
          let label what = Printf.sprintf "%s v=%g %s: %s" source v side what in
          let triple = Alcotest.(triple int int string) in
          Alcotest.(check int) (label "p_histogram_bytes") p (Summary.p_histogram_bytes s);
          Alcotest.(check int) (label "o_histogram_bytes") o (Summary.o_histogram_bytes s);
          Alcotest.(check int) (label "encoding_table_bytes") enc (Summary.encoding_table_bytes s);
          Alcotest.(check int) (label "pid_tree_bytes") tree (Summary.pid_tree_bytes s);
          Alcotest.check triple (label "p_histogram_buckets") buckets
            (counts (Summary.p_histogram_buckets s));
          Alcotest.check triple (label "o_histogram_boxes") boxes
            (counts (Summary.o_histogram_boxes s)))
        [ ("built", built); ("loaded", loaded) ])
    pinned_model

let test_document_accessors_raise () =
  let summary = Summary.build Paper_fixture.doc in
  with_roundtrip summary (fun loaded ->
      let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
      Alcotest.(check bool) "doc raises" true (raises (fun () -> Summary.doc loaded));
      Alcotest.(check bool) "base raises" true (raises (fun () -> Summary.base loaded));
      Alcotest.(check bool) "labeler raises" true
        (raises (fun () -> Summary.labeler loaded)))

let test_reject_garbage () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a synopsis";
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (match Summary.load path with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_reject_truncated () =
  let summary = Summary.build Paper_fixture.doc in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Summary.save summary path;
      (* truncate to half *)
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let half = really_input_string ic (n / 2) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc half;
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (match Summary.load path with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_roundtrip_on_generated_dataset () =
  let doc = Doc.of_tree (Xpest_datasets.Xmark.generate ~scale:0.005 ~seed:3 ()) in
  let summary = Summary.build ~p_variance:1.0 ~o_variance:2.0 doc in
  with_roundtrip summary (fun loaded ->
      let est0 = Estimator.create summary in
      let est1 = Estimator.create loaded in
      List.iter
        (fun q ->
          let q = Pattern.of_string q in
          Alcotest.(check (float 1e-9))
            (Pattern.to_string q)
            (Estimator.estimate est0 q)
            (Estimator.estimate est1 q))
        [
          "//item/{description}";
          "//item[/mailbox]//{text}";
          "//open_auction[/bidder/folls::{annotation}]";
          "//site//{parlist}";
        ])

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "estimates survive" `Quick test_estimates_survive;
          Alcotest.test_case "estimates survive (variance)" `Quick
            test_estimates_survive_with_variance;
          Alcotest.test_case "memory accounting survives" `Quick
            test_accounting_survives;
          Alcotest.test_case "core accessors survive" `Quick
            test_core_accessors_survive;
          Alcotest.test_case "generated dataset" `Quick
            test_roundtrip_on_generated_dataset;
          Alcotest.test_case "FNV-1a 64 known answers" `Quick
            test_fnv_known_answers;
          Alcotest.test_case "pinned modeled bytes and histogram counts" `Quick
            test_pinned_model;
          Alcotest.test_case "pinned checksums and accounting" `Quick
            test_pinned_accounting;
        ] );
      ( "errors",
        [
          Alcotest.test_case "document accessors raise" `Quick
            test_document_accessors_raise;
          Alcotest.test_case "garbage rejected" `Quick test_reject_garbage;
          Alcotest.test_case "truncation rejected" `Quick test_reject_truncated;
        ] );
    ]
