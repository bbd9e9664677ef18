module Bitvec = Xpest_util.Bitvec

let bv = Bitvec.of_string

(* qcheck generator for bitvectors of a given width *)
let bitvec_gen width =
  QCheck.Gen.(
    array_size (return width) bool >|= fun bits -> Bitvec.of_bits bits)

let arb_pair_same_width =
  QCheck.make
    QCheck.Gen.(
      int_range 1 200 >>= fun w ->
      pair (bitvec_gen w) (bitvec_gen w))
    ~print:(fun (a, b) -> Bitvec.to_string a ^ " / " ^ Bitvec.to_string b)

let test_basics () =
  let v = Bitvec.zero 10 in
  Alcotest.(check int) "width" 10 (Bitvec.width v);
  Alcotest.(check bool) "zero is zero" true (Bitvec.is_zero v);
  let v = Bitvec.set v 3 in
  Alcotest.(check bool) "bit 3 set" true (Bitvec.get v 3);
  Alcotest.(check bool) "bit 4 unset" false (Bitvec.get v 4);
  Alcotest.(check int) "popcount" 1 (Bitvec.popcount v);
  Alcotest.(check (list int)) "set_bits" [ 3 ] (Bitvec.set_bits v)

let test_string_roundtrip () =
  let s = "10110010011" in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string (bv s))

let test_wide_vectors () =
  (* widths beyond one word (62 bits) *)
  let v = Bitvec.singleton 200 199 in
  Alcotest.(check bool) "high bit" true (Bitvec.get v 199);
  Alcotest.(check int) "popcount" 1 (Bitvec.popcount v);
  let w = Bitvec.logor v (Bitvec.singleton 200 0) in
  Alcotest.(check (list int)) "bits" [ 0; 199 ] (Bitvec.set_bits w);
  Alcotest.(check int) "byte_size" 25 (Bitvec.byte_size v)

let test_paper_containment () =
  (* Section 2, Example 2.3: p3 (0011) contains p2 (0010). *)
  Alcotest.(check bool) "p3 contains p2" true (Bitvec.contains (bv "0011") (bv "0010"));
  Alcotest.(check bool) "p2 not contains p3" false
    (Bitvec.contains (bv "0010") (bv "0011"));
  Alcotest.(check bool) "no self containment" false
    (Bitvec.contains (bv "0011") (bv "0011"));
  Alcotest.(check bool) "contains_or_equal self" true
    (Bitvec.contains_or_equal (bv "0011") (bv "0011"))

let test_errors () =
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bitvec.logor: width mismatch (3 vs 4)") (fun () ->
      ignore (Bitvec.logor (bv "000") (bv "0000")));
  Alcotest.check_raises "index out of bounds"
    (Invalid_argument "Bitvec: index 3 out of bounds (width 3)") (fun () ->
      ignore (Bitvec.get (bv "000") 3))

let test_first_set_bit () =
  Alcotest.(check (option int)) "none" None (Bitvec.first_set_bit (Bitvec.zero 5));
  Alcotest.(check (option int)) "some" (Some 2) (Bitvec.first_set_bit (bv "00101"))

(* properties *)

let prop_or_commutative =
  QCheck.Test.make ~name:"logor commutative" ~count:200 arb_pair_same_width
    (fun (a, b) -> Bitvec.equal (Bitvec.logor a b) (Bitvec.logor b a))

let prop_and_below_or =
  QCheck.Test.make ~name:"or contains_or_equal and" ~count:200
    arb_pair_same_width (fun (a, b) ->
      Bitvec.contains_or_equal (Bitvec.logor a b) (Bitvec.logand a b))

let prop_containment_def =
  QCheck.Test.make ~name:"containment matches and-definition" ~count:500
    arb_pair_same_width (fun (a, b) ->
      Bitvec.contains a b
      = ((not (Bitvec.equal a b)) && Bitvec.equal (Bitvec.logand a b) b))

(* Pairs where [b] is often a subset of [a] or equal to it, so both
   answers of the containment tests are exercised, across word
   boundaries. *)
let arb_nested_pair =
  QCheck.make
    QCheck.Gen.(
      int_range 1 200 >>= fun w ->
      triple (bitvec_gen w) (bitvec_gen w) (int_range 0 2) >|= fun (a, c, k) ->
      match k with
      | 0 -> (a, Bitvec.logand a c)
      | 1 -> (a, a)
      | _ -> (a, c))
    ~print:(fun (a, b) -> Bitvec.to_string a ^ " / " ^ Bitvec.to_string b)

let prop_word_loop_containment =
  QCheck.Test.make ~name:"word-loop containment = logand/equal definitions"
    ~count:1000 arb_nested_pair (fun (a, b) ->
      let subset = Bitvec.equal (Bitvec.logand a b) b in
      Bitvec.contains_or_equal a b = (Bitvec.equal a b || subset)
      && Bitvec.contains a b = ((not (Bitvec.equal a b)) && subset))

let prop_popcount_or =
  QCheck.Test.make ~name:"popcount or = pa + pb - pand" ~count:200
    arb_pair_same_width (fun (a, b) ->
      Bitvec.popcount (Bitvec.logor a b)
      = Bitvec.popcount a + Bitvec.popcount b
        - Bitvec.popcount (Bitvec.logand a b))

let prop_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200
    (QCheck.make
       QCheck.Gen.(int_range 1 150 >>= bitvec_gen)
       ~print:Bitvec.to_string)
    (fun v -> Bitvec.equal v (Bitvec.of_string (Bitvec.to_string v)))

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"packed string roundtrip" ~count:300
    (QCheck.make
       QCheck.Gen.(int_range 1 200 >>= bitvec_gen)
       ~print:Bitvec.to_string)
    (fun v ->
      Bitvec.equal v
        (Bitvec.of_packed_string ~width:(Bitvec.width v)
           (Bitvec.to_packed_string v)))

(* The word-wise decoder against a [get]-based reference: every byte
   string that is a valid encoding (padding clear) decodes to the
   vector whose bit [i] is bit [i mod 8] of byte [i / 8].  [equal]
   compares raw words, so a bit ORed into the wrong word, or past the
   width, shows too.  Widths 1-200, with the word boundaries (62 bits
   per word) and XMark's 222 pinned. *)
let prop_packed_decode =
  QCheck.Test.make ~name:"packed decode = get-based reference" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         oneof [ int_range 1 200; oneofl [ 61; 62; 63; 64; 124; 222 ] ] >>= fun w ->
         let nbytes = (w + 7) / 8 in
         string_size ~gen:char (return nbytes) >|= fun s ->
         let b = Bytes.of_string s in
         if w mod 8 <> 0 then
           Bytes.set b (nbytes - 1)
             (Char.chr (Char.code s.[nbytes - 1] land ((1 lsl (w mod 8)) - 1)));
         (w, Bytes.to_string b))
       ~print:(fun (w, s) -> Printf.sprintf "width %d, %S" w s))
    (fun (width, s) ->
      let v = Bitvec.of_packed_string ~width s in
      let expected =
        Bitvec.of_bits
          (Array.init width (fun i -> Char.code s.[i / 8] land (1 lsl (i mod 8)) <> 0))
      in
      Bitvec.equal v expected
      && List.for_all
           (fun i -> Bitvec.get v i = Bitvec.get expected i)
           (List.init width Fun.id)
      && Bitvec.to_packed_string v = s)

(* The flat-array codec: a vector packed in place amid other bytes
   (the synopsis decoder reads path ids inside the whole file) unpacks
   at a word offset to the same vector, whatever bytes follow, and packs
   back to the same bytes. *)
let prop_packed_in_place =
  QCheck.Test.make ~name:"packed_into amid other bytes = of_packed_string" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         triple
           (oneof [ int_range 1 200; oneofl [ 61; 62; 63; 64; 124; 222 ] ])
           (string_size ~gen:char (int_bound 9))
           (string_size ~gen:char (int_bound 9))
         >>= fun (w, before, after) ->
         let nbytes = (w + 7) / 8 in
         string_size ~gen:char (return nbytes) >|= fun s ->
         let b = Bytes.of_string s in
         if w mod 8 <> 0 then
           Bytes.set b (nbytes - 1)
             (Char.chr (Char.code s.[nbytes - 1] land ((1 lsl (w mod 8)) - 1)));
         (w, before, Bytes.to_string b, after))
       ~print:(fun (w, a, s, b) -> Printf.sprintf "width %d, %S ^ %S ^ %S" w a s b))
    (fun (width, before, s, after) ->
      let stride = Bitvec.words_for width in
      let words = Array.make (3 * stride) 0 in
      Bitvec.packed_into ~width (before ^ s ^ after) (String.length before) words stride
      && Array.for_all (( = ) 0) (Array.sub words 0 stride)
      && Array.for_all (( = ) 0) (Array.sub words (2 * stride) stride)
      && Bitvec.equal (Bitvec.of_words ~width words stride) (Bitvec.of_packed_string ~width s)
      && Bitvec.packed_of_words ~width words stride = s)

let prop_lex_compare =
  QCheck.Test.make ~name:"lex_compare = bit-string order" ~count:500
    arb_pair_same_width (fun (a, b) ->
      Int.compare (Bitvec.lex_compare a b) 0
      = Int.compare (String.compare (Bitvec.to_string a) (Bitvec.to_string b)) 0)

let test_packed_validation () =
  Alcotest.(check bool) "length mismatch rejected" true
    (match Bitvec.of_packed_string ~width:9 "x" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "padding bits rejected" true
    (match Bitvec.of_packed_string ~width:4 "\xf0" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* one set padding bit past a word boundary: width 63 is 8 bytes,
     the last holding bits 56-62 and one padding bit *)
  Alcotest.check_raises "padding message"
    (Invalid_argument "Bitvec.of_packed_string: nonzero padding bits")
    (fun () -> ignore (Bitvec.of_packed_string ~width:63 "\x00\x00\x00\x00\x00\x00\x00\x80"));
  Alcotest.check_raises "length message"
    (Invalid_argument "Bitvec.of_packed_string: length mismatch")
    (fun () -> ignore (Bitvec.of_packed_string ~width:63 "\x00"));
  Alcotest.(check int) "packed length" 2
    (String.length (Bitvec.to_packed_string (Bitvec.zero 9)))

let prop_set_bits_sorted =
  QCheck.Test.make ~name:"set_bits increasing and consistent" ~count:200
    (QCheck.make
       QCheck.Gen.(int_range 1 150 >>= bitvec_gen)
       ~print:Bitvec.to_string)
    (fun v ->
      let bits = Bitvec.set_bits v in
      List.sort_uniq Int.compare bits = bits
      && List.length bits = Bitvec.popcount v
      && List.for_all (Bitvec.get v) bits)

(* The word-by-word set-bit walk against a [get]-based reference, at
   every width up to 200 and at the word boundaries in particular
   (62 bits per word), over sparse to dense vectors. *)
let prop_set_bit_walk =
  QCheck.Test.make ~name:"set-bit walk = get-based reference" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         oneof [ int_range 0 200; oneofl [ 0; 61; 62; 63; 124 ] ] >>= fun w ->
         float_range 0.0 1.0 >>= fun density ->
         array_size (return w) (float_bound_exclusive 1.0 >|= fun x -> x < density)
         >|= Bitvec.of_bits)
       ~print:Bitvec.to_string)
    (fun v ->
      let expected = List.filter (Bitvec.get v) (List.init (Bitvec.width v) Fun.id) in
      let walked = ref [] in
      Bitvec.iter_set_bits v (fun i -> walked := i :: !walked);
      List.rev !walked = expected
      && Bitvec.set_bits v = expected
      && Bitvec.first_set_bit v = List.nth_opt expected 0
      && Bitvec.popcount v = List.length expected)

let () =
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "wide vectors" `Quick test_wide_vectors;
          Alcotest.test_case "paper containment" `Quick test_paper_containment;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "first_set_bit" `Quick test_first_set_bit;
          Alcotest.test_case "packed validation" `Quick test_packed_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_or_commutative;
            prop_and_below_or;
            prop_containment_def;
            prop_word_loop_containment;
            prop_popcount_or;
            prop_roundtrip;
            prop_packed_roundtrip;
            prop_packed_decode;
            prop_packed_in_place;
            prop_lex_compare;
            prop_set_bits_sorted;
            prop_set_bit_walk;
          ] );
    ]
