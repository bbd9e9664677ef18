module Bitvec = Xpest_util.Bitvec
module Pid_tree = Xpest_encoding.Pid_tree
module Labeler = Xpest_encoding.Labeler
module Encoding_table = Xpest_encoding.Encoding_table

let bv = Bitvec.of_string

(* The straightforward builder, kept as the reference for
   [Pid_tree.build]: sort through the bit strings, partition a list at
   every trie node, then compress pure-left/pure-right chains
   bottom-up.  Returns the compressed root and the uncompressed and
   compressed node counts. *)
module Reference = struct
  open Pid_tree

  let lex_compare a b = String.compare (Bitvec.to_string a) (Bitvec.to_string b)

  let rec trie ~width ~depth items =
    match items with
    | [] -> Absent
    | [ (_, id) ] when depth = width -> Leaf id
    | _ when depth >= width -> invalid_arg "duplicate bit sequences"
    | _ ->
        let zeros, ones =
          List.partition (fun (pid, _) -> not (Bitvec.get pid depth)) items
        in
        let left = trie ~width ~depth:(depth + 1) zeros in
        let right = trie ~width ~depth:(depth + 1) ones in
        let id =
          match (List.rev zeros, ones) with
          | (_, last_zero_id) :: _, _ -> last_zero_id
          | [], (_, first_one_id) :: _ -> first_one_id - 1
          | [], [] -> assert false
        in
        Node { id; left; right }

  let rec count = function
    | Leaf _ -> 1
    | Node { left; right; _ } -> 1 + count left + count right
    | Absent | Zeros _ | Ones _ -> 0

  let rec compress = function
    | (Leaf _ | Absent | Zeros _ | Ones _) as n -> n
    | Node { id; left; right } -> (
        let left = compress left and right = compress right in
        match (left, right) with
        | Leaf lid, Absent | Zeros lid, Absent -> Zeros lid
        | Absent, Leaf lid | Absent, Ones lid -> Ones lid
        | _, _ -> Node { id; left; right })

  let build pids =
    let distinct = List.sort_uniq Bitvec.compare pids |> List.sort lex_compare in
    let width = Bitvec.width (List.hd distinct) in
    let t = trie ~width ~depth:0 (List.mapi (fun i pid -> (pid, i + 1)) distinct) in
    let root = compress t in
    (root, count t, count root)
end

(* [Pid_tree.build] agrees with the reference on the tree, both node
   counts, the modeled bytes and every id's reconstruction. *)
let agrees_with_reference pids =
  let t = Pid_tree.build pids in
  let root, uncompressed, compressed = Reference.build pids in
  Pid_tree.root t = root
  && Pid_tree.uncompressed_node_count t = uncompressed
  && Pid_tree.node_count t = compressed
  && Pid_tree.byte_size t = 5 * compressed
  && Pid_tree.uncompressed_byte_size t = 5 * uncompressed
  && List.for_all
       (fun id ->
         Pid_tree.id_of_pid t (Pid_tree.pid_of_id t id) = Some id)
       (List.init (Pid_tree.num_pids t) (fun i -> i + 1))

(* the paper's Figure 6 input: the 9 pids of Figure 1(c) *)
let paper_pids =
  List.map bv
    [ "0001"; "0010"; "0011"; "0100"; "1000"; "1010"; "1011"; "1100"; "1111" ]

let tree = Pid_tree.build paper_pids

let test_basics () =
  Alcotest.(check int) "9 pids" 9 (Pid_tree.num_pids tree);
  Alcotest.(check int) "width 4" 4 (Pid_tree.bit_width tree)

let test_figure6_ids () =
  (* ids are assigned in lexicographic bit-string order; Figure 6's
     leaves are numbered 1..9 left to right *)
  let expected =
    [
      ("0001", 2); ("0010", 3); ("0011", 4); ("0100", 5); ("1000", 6);
      ("1010", 7); ("1011", 8); ("1100", 9);
    ]
  in
  (* "0000" doesn't exist; the smallest is "0001".  Check the order is
     strictly increasing lexicographically. *)
  ignore expected;
  let ids = List.filter_map (Pid_tree.id_of_pid tree) paper_pids in
  Alcotest.(check int) "all present" 9 (List.length ids);
  Alcotest.(check (list int)) "ids are a permutation of 1..9"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort Int.compare ids);
  (* lexicographic: 0001 < 0010 < 0011 < 0100 < 1000 < ... *)
  Alcotest.(check (option int)) "0001 first" (Some 1)
    (Pid_tree.id_of_pid tree (bv "0001"));
  Alcotest.(check (option int)) "1111 last" (Some 9)
    (Pid_tree.id_of_pid tree (bv "1111"))

let test_lookup_roundtrip () =
  List.iter
    (fun pid ->
      match Pid_tree.id_of_pid tree pid with
      | Some id ->
          Alcotest.(check string)
            (Printf.sprintf "pid_of_id %d" id)
            (Bitvec.to_string pid)
            (Bitvec.to_string (Pid_tree.pid_of_id tree id))
      | None -> Alcotest.fail "missing pid")
    paper_pids

let test_unknown_pid () =
  Alcotest.(check (option int)) "absent pid" None
    (Pid_tree.id_of_pid tree (bv "0110"))

let test_compression_saves_space () =
  Alcotest.(check bool) "compression monotone" true
    (Pid_tree.node_count tree <= Pid_tree.uncompressed_node_count tree);
  Alcotest.(check bool) "figure 6 actually compresses" true
    (Pid_tree.node_count tree < Pid_tree.uncompressed_node_count tree)

let test_errors () =
  Alcotest.(check bool) "empty input" true
    (match Pid_tree.build [] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "mixed widths" true
    (match Pid_tree.build [ bv "01"; bv "011" ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "id out of range" true
    (match Pid_tree.pid_of_id tree 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_reference_paper () =
  Alcotest.(check bool) "figure 6" true (agrees_with_reference paper_pids)

let test_reference_datasets () =
  List.iter
    (fun name ->
      let doc = Xpest_datasets.Registry.generate ~scale:0.02 name in
      let lab = Labeler.label doc (Encoding_table.build doc) in
      Alcotest.(check bool)
        (Xpest_datasets.Registry.to_string name)
        true
        (agrees_with_reference (Array.to_list (Labeler.distinct_pids lab))))
    Xpest_datasets.Registry.all

(* properties *)

let pids_gen =
  QCheck.Gen.(
    int_range 2 120 >>= fun width ->
    list_size (int_range 1 40)
      (array_size (return width) bool >|= Bitvec.of_bits)
    >|= fun pids ->
    (* avoid the all-zero vector: a real pid always has a bit set *)
    List.filter (fun v -> not (Bitvec.is_zero v)) pids)

let arb_pids =
  QCheck.make pids_gen
    ~print:(fun l -> String.concat "," (List.map Bitvec.to_string l))

let prop_roundtrip =
  QCheck.Test.make ~name:"id_of_pid / pid_of_id roundtrip" ~count:300 arb_pids
    (fun pids ->
      match pids with
      | [] -> QCheck.assume_fail ()
      | _ ->
          let t = Pid_tree.build pids in
          List.for_all
            (fun pid ->
              match Pid_tree.id_of_pid t pid with
              | Some id -> Bitvec.equal pid (Pid_tree.pid_of_id t id)
              | None -> false)
            pids)

let prop_ids_dense_and_lexicographic =
  QCheck.Test.make ~name:"ids dense, ordered lexicographically" ~count:300
    arb_pids (fun pids ->
      match pids with
      | [] -> QCheck.assume_fail ()
      | _ ->
          let t = Pid_tree.build pids in
          let distinct = List.sort_uniq Bitvec.compare pids in
          let by_lex =
            List.sort
              (fun a b -> String.compare (Bitvec.to_string a) (Bitvec.to_string b))
              distinct
          in
          List.for_all2
            (fun pid expected_id -> Pid_tree.id_of_pid t pid = Some expected_id)
            by_lex
            (List.init (List.length by_lex) (fun i -> i + 1)))

let prop_compression_lossless =
  QCheck.Test.make ~name:"compression preserves every lookup" ~count:300
    arb_pids (fun pids ->
      match pids with
      | [] -> QCheck.assume_fail ()
      | _ ->
          let t = Pid_tree.build pids in
          List.init (Pid_tree.num_pids t) (fun i -> i + 1)
          |> List.for_all (fun id ->
                 Pid_tree.id_of_pid t (Pid_tree.pid_of_id t id) = Some id))

let prop_matches_reference =
  QCheck.Test.make ~name:"build = reference builder" ~count:300 arb_pids
    (fun pids ->
      match pids with
      | [] -> QCheck.assume_fail ()
      | _ -> agrees_with_reference pids)

(* Few distinct paths at widths around the word boundary: long shared
   prefixes and equal-bit suffixes, where compression does the most. *)
let prop_matches_reference_sparse =
  QCheck.Test.make ~name:"build = reference builder (sparse, wide)" ~count:300
    (QCheck.make
       QCheck.Gen.(
         oneofl [ 1; 2; 61; 62; 63; 64; 124; 222 ] >>= fun width ->
         list_size (int_range 1 30)
           (list_size (int_range 1 3) (int_range 0 (width - 1))
           >|= List.fold_left (Bitvec.set) (Bitvec.zero width)))
       ~print:(fun l -> String.concat "," (List.map Bitvec.to_string l)))
    agrees_with_reference

let prop_real_dataset =
  QCheck.Test.make ~name:"roundtrip on a real labeling" ~count:5
    (QCheck.make (QCheck.Gen.int_range 1 1000) ~print:string_of_int)
    (fun seed ->
      let doc =
        Xpest_xml.Doc.of_tree (Xpest_datasets.Ssplays.generate ~plays:1 ~seed ())
      in
      let table = Encoding_table.build doc in
      let lab = Labeler.label doc table in
      let pids = Array.to_list (Labeler.distinct_pids lab) in
      let t = Pid_tree.build pids in
      List.for_all
        (fun pid ->
          match Pid_tree.id_of_pid t pid with
          | Some id -> Bitvec.equal pid (Pid_tree.pid_of_id t id)
          | None -> false)
        pids)

let () =
  Alcotest.run "pid_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "figure 6 ids" `Quick test_figure6_ids;
          Alcotest.test_case "lookup roundtrip" `Quick test_lookup_roundtrip;
          Alcotest.test_case "unknown pid" `Quick test_unknown_pid;
          Alcotest.test_case "compression" `Quick test_compression_saves_space;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "reference: figure 6" `Quick test_reference_paper;
          Alcotest.test_case "reference: datasets" `Quick test_reference_datasets;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_ids_dense_and_lexicographic;
            prop_compression_lossless;
            prop_matches_reference;
            prop_matches_reference_sparse;
            prop_real_dataset;
          ] );
    ]
