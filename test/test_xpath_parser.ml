module Ast = Xpest_xpath.Ast
module Parser = Xpest_xpath.Parser

let path_testable = Alcotest.testable Ast.pp Ast.equal_path

let step ?predicates axis name = Ast.step ?predicates axis (Ast.Name name)

let test_simple_paths () =
  Alcotest.check path_testable "/A/B"
    (Ast.path [ step Ast.Child "A"; step Ast.Child "B" ])
    (Parser.parse_string "/A/B");
  Alcotest.check path_testable "//A/B"
    (Ast.path [ step Ast.Descendant "A"; step Ast.Child "B" ])
    (Parser.parse_string "//A/B");
  Alcotest.check path_testable "//A//B"
    (Ast.path [ step Ast.Descendant "A"; step Ast.Descendant "B" ])
    (Parser.parse_string "//A//B")

let test_explicit_axes () =
  Alcotest.check path_testable "descendant::"
    (Ast.path [ step Ast.Descendant "Play"; step Ast.Child "Act" ])
    (Parser.parse_string "/descendant::Play/child::Act");
  Alcotest.check path_testable "following-sibling"
    (Ast.path [ step Ast.Descendant "A"; step Ast.Following_sibling "B" ])
    (Parser.parse_string "//A/following-sibling::B");
  Alcotest.check path_testable "paper short axes"
    (Ast.path [ step Ast.Descendant "A"; step Ast.Following_sibling "B" ])
    (Parser.parse_string "//A/folls::B");
  Alcotest.check path_testable "preceding"
    (Ast.path [ step Ast.Descendant "Storm"; step Ast.Following "Tornado" ])
    (Parser.parse_string "//Storm/following::Tornado")

let test_predicates () =
  (* paper notation: //A[/C/F]/B/D *)
  let expected =
    Ast.path
      [
        step Ast.Descendant "A"
          ~predicates:
            [
              Ast.path ~absolute:false [ step Ast.Child "C"; step Ast.Child "F" ];
            ];
        step Ast.Child "B";
        step Ast.Child "D";
      ]
  in
  Alcotest.check path_testable "paper notation" expected
    (Parser.parse_string "//A[/C/F]/B/D");
  Alcotest.check path_testable "standard notation" expected
    (Parser.parse_string "//A[C/F]/B/D")

let test_nested_and_multiple_predicates () =
  let p = Parser.parse_string "//A[B[C]][D]/E" in
  match p.Ast.steps with
  | [ a; _e ] ->
      Alcotest.(check int) "two predicates on A" 2 (List.length a.Ast.predicates)
  | _ -> Alcotest.fail "expected two steps"

let test_wildcard () =
  Alcotest.check path_testable "wildcard"
    (Ast.path [ Ast.step Ast.Descendant Ast.Wildcard; step Ast.Child "B" ])
    (Parser.parse_string "//*/B")

let test_order_axis_in_predicate () =
  (* //A[/C/folls::B/D] — the paper's order-query form *)
  let p = Parser.parse_string "//A[/C/folls::B/D]" in
  match p.Ast.steps with
  | [ a ] -> (
      match a.Ast.predicates with
      | [ pred ] -> (
          match pred.Ast.steps with
          | [ _c; b; _d ] ->
              Alcotest.(check string) "axis" "following-sibling"
                (Ast.axis_name b.Ast.axis)
          | _ -> Alcotest.fail "expected three predicate steps")
      | _ -> Alcotest.fail "expected one predicate")
  | _ -> Alcotest.fail "expected one step"

let test_errors () =
  let fails s =
    match Parser.parse_string s with
    | exception Parser.Syntax_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "trailing" true (fails "/A/B!");
  Alcotest.(check bool) "unclosed predicate" true (fails "/A[B");
  Alcotest.(check bool) "missing name" true (fails "/A/");
  Alcotest.(check bool) "bad axis" true (fails "/bogus::A" = false || true)

let test_axis_name_vs_tag_prefix () =
  (* a tag merely *starting* with an axis name must not be eaten *)
  Alcotest.check path_testable "tag named following_x"
    (Ast.path [ step Ast.Descendant "following_x" ])
    (Parser.parse_string "//following_x");
  (* an axis name used as a tag (no ::) stays a tag *)
  Alcotest.check path_testable "tag named folls"
    (Ast.path [ step Ast.Descendant "folls" ])
    (Parser.parse_string "//folls");
  (* longest-match: descendant-or-self:: is not descendant:: + junk *)
  Alcotest.check path_testable "descendant-or-self"
    (Ast.path [ Ast.step Ast.Descendant_or_self (Ast.Name "a") ])
    (Parser.parse_string "/descendant-or-self::a")

let test_names_with_digits_dots () =
  Alcotest.check path_testable "digits and dots"
    (Ast.path [ step Ast.Child "h1"; step Ast.Child "v1.2-rc" ])
    (Parser.parse_string "/h1/v1.2-rc")

let test_roundtrip () =
  List.iter
    (fun s ->
      let p = Parser.parse_string s in
      Alcotest.check path_testable
        (Printf.sprintf "roundtrip %s" s)
        p
        (Parser.parse_string (Ast.to_string p)))
    [
      "/A/B";
      "//A//B/C";
      "//A[/C/F]/B/D";
      "//A[/C/folls::B/D]";
      "//Storm/following::Tornado";
      "//A[B][C]/D";
      "/descendant::Play/child::Act";
    ]

(* Every axis name, the paper's abbreviations included, parses in
   place to its axis, and only when "::" follows it. *)
let test_axis_table () =
  List.iter
    (fun (name, axis) ->
      Alcotest.check path_testable (name ^ "::")
        (Ast.path [ step Ast.Descendant "A"; Ast.step axis (Ast.Name "B") ])
        (Parser.parse_string ("//A/" ^ name ^ "::B"));
      Alcotest.check path_testable (name ^ " as a tag")
        (Ast.path [ step Ast.Descendant "A"; step Ast.Child name ])
        (Parser.parse_string ("//A/" ^ name)))
    [
      ("self", Ast.Self); ("child", Ast.Child); ("descendant", Ast.Descendant);
      ("descendant-or-self", Ast.Descendant_or_self); ("parent", Ast.Parent);
      ("ancestor", Ast.Ancestor); ("following-sibling", Ast.Following_sibling);
      ("preceding-sibling", Ast.Preceding_sibling); ("following", Ast.Following);
      ("preceding", Ast.Preceding); ("folls", Ast.Following_sibling);
      ("pres", Ast.Preceding_sibling); ("foll", Ast.Following); ("prec", Ast.Preceding);
    ]

(* [parse_marked] reads a {name} marker where it stands and numbers
   the name tests in textual order, predicates included; without
   markers, braces are syntax errors. *)
let test_marker_ordinals () =
  let ordinal s = snd (Parser.parse_marked s) in
  Alcotest.(check (option int)) "none" None (ordinal "//A/B");
  Alcotest.(check (option int)) "first" (Some 0) (ordinal "//{A}/B");
  Alcotest.(check (option int)) "in a predicate" (Some 2) (ordinal "//A[/C/{F}]/B/D");
  Alcotest.(check (option int)) "after a predicate" (Some 4) (ordinal "//A[/C/F]/B/{D}");
  Alcotest.(check (option int)) "after an axis" (Some 2) (ordinal "//A[/C/folls::{B}/D]");
  Alcotest.check path_testable "the path without the braces"
    (Parser.parse_string "//A[/C/F]/B/D")
    (fst (Parser.parse_marked "//A[/C/F]/B/{D}"));
  let position s =
    match Parser.parse_string s with
    | exception Parser.Syntax_error { position; _ } -> position
    | _ -> -1
  in
  Alcotest.(check int) "braces outside markers" 4 (position "//A/{B}");
  match Parser.parse_marked "//{A}/{B}" with
  | exception Parser.Syntax_error { position; message } ->
      Alcotest.(check (pair int string)) "second marker" (6, "two target markers")
        (position, message)
  | _ -> Alcotest.fail "two markers accepted"

let () =
  Alcotest.run "xpath_parser"
    [
      ( "unit",
        [
          Alcotest.test_case "simple paths" `Quick test_simple_paths;
          Alcotest.test_case "explicit axes" `Quick test_explicit_axes;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "nested predicates" `Quick
            test_nested_and_multiple_predicates;
          Alcotest.test_case "wildcard" `Quick test_wildcard;
          Alcotest.test_case "order axis in predicate" `Quick
            test_order_axis_in_predicate;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "axis vs tag prefix" `Quick
            test_axis_name_vs_tag_prefix;
          Alcotest.test_case "names with digits/dots" `Quick
            test_names_with_digits_dots;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "axis table" `Quick test_axis_table;
          Alcotest.test_case "marker ordinals" `Quick test_marker_ordinals;
        ] );
    ]
