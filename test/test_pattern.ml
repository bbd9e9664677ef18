module Pattern = Xpest_xpath.Pattern
module Ast = Xpest_xpath.Ast
module Registry = Xpest_datasets.Registry
module Workload = Xpest_workload.Workload

let pattern_testable = Alcotest.testable Pattern.pp Pattern.equal
let step axis tag : Pattern.step = { axis; tag }

let q1 =
  (* //A[/C/F]/B/{D} *)
  Pattern.v
    (Pattern.Branch
       {
         trunk = [ step Descendant "A" ];
         branch = [ step Child "C"; step Child "F" ];
         tail = [ step Child "B"; step Child "D" ];
       })
    (Pattern.In_tail 1)

let test_of_string_simple () =
  Alcotest.check pattern_testable "simple"
    (Pattern.v (Pattern.Simple [ step Descendant "A"; step Child "B" ])
       (Pattern.In_trunk 1))
    (Pattern.of_string "//A/B");
  Alcotest.check pattern_testable "marked target"
    (Pattern.v (Pattern.Simple [ step Descendant "A"; step Child "B" ])
       (Pattern.In_trunk 0))
    (Pattern.of_string "//{A}/B")

let test_of_string_branch () =
  Alcotest.check pattern_testable "branch with marked tail target" q1
    (Pattern.of_string "//A[/C/F]/B/{D}");
  Alcotest.check pattern_testable "branch target in branch"
    (Pattern.v (Pattern.shape q1) (Pattern.In_branch 1))
    (Pattern.of_string "//A[/C/{F}]/B/D");
  Alcotest.check pattern_testable "default target = last node" q1
    (Pattern.of_string "//A[/C/F]/B/D")

let test_of_string_ordered () =
  let expected =
    Pattern.v
      (Pattern.Ordered
         {
           trunk = [ step Descendant "A" ];
           first = [ step Child "C"; step Child "F" ];
           axis = Pattern.Following_sibling;
           second = [ step Child "B"; step Child "D" ];
         })
      (Pattern.In_second 0)
  in
  Alcotest.check pattern_testable "ordered"
    expected
    (Pattern.of_string "//A[/C/F/folls::{B}/D]");
  let prec =
    Pattern.v
      (Pattern.Ordered
         {
           trunk = [ step Descendant "A" ];
           first = [ step Child "C" ];
           axis = Pattern.Preceding;
           second = [ step Descendant "D" ];
         })
      (Pattern.In_second 0)
  in
  Alcotest.check pattern_testable "preceding"
    prec
    (Pattern.of_string "//A[/C/prec::{D}]")

let test_to_string_roundtrip () =
  List.iter
    (fun s ->
      let q = Pattern.of_string s in
      Alcotest.check pattern_testable s q (Pattern.of_string (Pattern.to_string q)))
    [
      "//A/B/C";
      "//A[/C/F]/B/{D}";
      "//A[/{C}/F]/B/D";
      "//A[/C/folls::B/{D}]";
      "//A[/C/pres::{B}]";
      "//A[/C/foll::{D}]";
      "/Root/A//B";
    ]

let test_validation () =
  let fails f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "empty trunk" true
    (fails (fun () ->
         Pattern.v
           (Pattern.Branch { trunk = []; branch = [ step Child "B" ]; tail = [] })
           (Pattern.In_branch 0)));
  Alcotest.(check bool) "target outside" true
    (fails (fun () ->
         Pattern.v (Pattern.Simple [ step Child "A" ]) (Pattern.In_trunk 5)));
  Alcotest.(check bool) "ordered head must be child" true
    (fails (fun () ->
         Pattern.v
           (Pattern.Ordered
              {
                trunk = [ step Child "A" ];
                first = [ step Descendant "C" ];
                axis = Pattern.Following_sibling;
                second = [ step Child "B" ];
              })
           (Pattern.In_second 0)));
  Alcotest.(check bool) "sibling-axis second head must be child" true
    (fails (fun () ->
         Pattern.v
           (Pattern.Ordered
              {
                trunk = [ step Child "A" ];
                first = [ step Child "C" ];
                axis = Pattern.Following_sibling;
                second = [ step Descendant "B" ];
              })
           (Pattern.In_second 0)))

let test_of_string_errors () =
  let fails s =
    match Pattern.of_string s with
    | exception Invalid_argument _ -> true
    | exception Xpest_xpath.Parser.Syntax_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "two markers" true (fails "//{A}/{B}");
  Alcotest.(check bool) "wildcard outside fragment" true (fails "//*/B");
  Alcotest.(check bool) "order query with tail" true
    (fails "//A[/C/folls::B]/D");
  Alcotest.(check bool) "two predicate steps" true (fails "//A[B]/C[D]/E");
  Alcotest.(check bool) "unsupported axis" true (fails "//A/parent::B");
  Alcotest.(check bool) "nested predicate" true (fails "//A[B[C]]/D")

let test_counterpart () =
  let ordered =
    Pattern.Ordered
      {
        trunk = [ step Descendant "A" ];
        first = [ step Child "C" ];
        axis = Pattern.Following_sibling;
        second = [ step Child "B"; step Child "D" ];
      }
  in
  (match Pattern.counterpart ordered with
  | Pattern.Branch { trunk; branch; tail } ->
      Alcotest.(check int) "trunk" 1 (List.length trunk);
      Alcotest.(check int) "branch" 1 (List.length branch);
      Alcotest.(check (list string)) "tail tags" [ "B"; "D" ]
        (List.map (fun (s : Pattern.step) -> s.tag) tail)
  | _ -> Alcotest.fail "expected branch");
  (* following => descendant reattachment *)
  match
    Pattern.counterpart
      (Pattern.Ordered
         {
           trunk = [ step Descendant "A" ];
           first = [ step Child "C" ];
           axis = Pattern.Following;
           second = [ step Descendant "D" ];
         })
  with
  | Pattern.Branch { tail = [ { axis = Pattern.Descendant; tag = "D" } ]; _ } -> ()
  | _ -> Alcotest.fail "expected descendant tail"

let test_accessors () =
  Alcotest.(check string) "target tag" "D" (Pattern.target_tag q1);
  Alcotest.(check int) "size" 5 (Pattern.size q1);
  Alcotest.(check (list string)) "tags" [ "A"; "C"; "F"; "B"; "D" ]
    (Pattern.tags q1);
  Alcotest.(check (option string)) "tag_at" (Some "C")
    (Pattern.tag_at q1 (Pattern.In_branch 0));
  Alcotest.(check (option string)) "tag_at missing" None
    (Pattern.tag_at q1 (Pattern.In_first 0))

let test_to_ast () =
  Alcotest.(check string) "lowering" "//A[C/F]/B/D"
    (Ast.to_string (Pattern.to_ast q1))

(* ------------------------------------------------------------------ *)
(* The in-place scanner.                                               *)

(* Every query of the three datasets' pools parses back to the pattern
   the generator built, order and following/preceding queries
   included. *)
let test_pools_parse_back () =
  let config =
    { Workload.default_config with num_simple = 800; num_branch = 800; nonsibling_fraction = 0.3 }
  in
  List.iter
    (fun name ->
      let doc = Registry.generate ~scale:0.05 name in
      let items = Workload.all_items (Workload.generate ~config doc) in
      let ordered = ref 0 in
      List.iter
        (fun (it : Workload.item) ->
          let q = it.Workload.pattern in
          (match Pattern.shape q with Pattern.Ordered _ -> incr ordered | _ -> ());
          Alcotest.check pattern_testable (Pattern.to_string q) q
            (Pattern.of_string (Pattern.to_string q)))
        items;
      if !ordered = 0 then Alcotest.failf "%s: no order queries" (Registry.to_string name))
    Registry.all

let of_string_outcome s =
  match Pattern.of_string s with
  | p -> "ok " ^ Pattern.to_string p
  | exception Invalid_argument m -> m

(* Malformed inputs and their messages.  The syntax errors carry the
   byte position the parser stopped at; every other message is the
   one the pre-pass scanner gave, word for word. *)
let malformed =
  [
    ("", "Pattern.of_string: expected a name at position 0");
    ("/", "Pattern.of_string: expected a name at position 1");
    ("//", "Pattern.of_string: expected a name at position 2");
    ("//A/", "Pattern.of_string: expected a name at position 4");
    ("//A[", "Pattern.of_string: expected a name at position 4");
    ("//A[B", "Pattern.of_string: expected ']' at position 5");
    ("//A]", "Pattern.of_string: trailing characters after path at position 3");
    ("//A[]", "Pattern.of_string: expected a name at position 4");
    ("//A//", "Pattern.of_string: expected a name at position 5");
    ("//A/child::", "Pattern.of_string: expected a name at position 11");
    ("//A/foo::B", "Pattern.of_string: trailing characters after path at position 7");
    ("//A B", "Pattern.of_string: trailing characters after path at position 3");
    ("/A/@B", "Pattern.of_string: expected a name at position 3");
    ("//1A", "Pattern.of_string: expected a name at position 2");
    ("///A", "Pattern.of_string: expected a name at position 2");
    ("//A//[B]", "Pattern.of_string: expected a name at position 5");
    ("//A[/B]]", "Pattern.of_string: trailing characters after path at position 7");
    ("//A/B:C", "Pattern.of_string: trailing characters after path at position 5");
    ("//A/B::C", "Pattern.of_string: trailing characters after path at position 5");
    ("A/B/", "Pattern.of_string: expected a name at position 4");
    ("//A[/C/folls::B/D", "Pattern.of_string: expected ']' at position 17");
    ("//A[/C/pres::]", "Pattern.of_string: expected a name at position 13");
    ("//A[/B/foll::/C]", "Pattern.of_string: expected a name at position 13");
    ("//A[/C/x::B]", "Pattern.of_string: expected ']' at position 8");
    ("//A[/C/folls::B]/D", "Pattern.of_string: order query cannot have a tail path");
    ("//A[/B/prec::C]/D", "Pattern.of_string: order query cannot have a tail path");
    ("//A[B]/C[D]/E", "Pattern.of_string: several predicate steps");
    ("//A/parent::B", "Pattern.of_string: unsupported axis parent at step 1");
    ("//A/self::B", "Pattern.of_string: unsupported axis self at step 1");
    ("//A/ancestor::B", "Pattern.of_string: unsupported axis ancestor at step 1");
    ("//A/descendant-or-self::B",
     "Pattern.of_string: unsupported axis descendant-or-self at step 1");
    ("//A/folls::B", "Pattern.of_string: unsupported axis following-sibling at step 1");
    ("//A/following-sibling::B",
     "Pattern.of_string: unsupported axis following-sibling at step 1");
    ("//A[/C/folls::B/folls::D]",
     "Pattern.of_string: unsupported axis following-sibling at step 0");
    ("//A[B[C]]/D", "Pattern.of_string: nested predicates not in fragment");
    ("//A[/C/folls::B[D]]", "Pattern.of_string: predicate on order step");
    ("//*/B", "Pattern.of_string: wildcard not in fragment");
    ("//A/*", "Pattern.of_string: wildcard not in fragment");
    ("//A[/C/foll::B/D][E]", "Pattern.of_string: multiple predicates on one step");
    ("//A[/B][/C]", "Pattern.of_string: multiple predicates on one step");
    ("//A[folls::B]", "Pattern.v: empty first branch");
    (* a second marker is a syntax error where it stands *)
    ("//{A}/{B}", "Pattern.of_string: two target markers at position 6");
    ("//A/{B}/{C}", "Pattern.of_string: two target markers at position 8");
    (* a marker wraps exactly one node test, as [to_string] writes it;
       stray or unbalanced braces are syntax errors *)
    ("{//A}", "Pattern.of_string: expected a name at position 1");
    ("//{A", "Pattern.of_string: expected '}' at position 4");
    ("//A}", "Pattern.of_string: trailing characters after path at position 3");
    ("//{}", "Pattern.of_string: expected a name at position 3");
    ("//{{A}}", "Pattern.of_string: expected a name at position 3");
    ("//A[/C/{folls::B}]", "Pattern.of_string: expected '}' at position 13");
  ]

let test_malformed_messages () =
  List.iter (fun (s, expected) -> Alcotest.(check string) s expected (of_string_outcome s)) malformed

(* Inputs the scanner must keep accepting, with their canonical form. *)
let test_accepted_forms () =
  List.iter
    (fun (s, expected) -> Alcotest.(check string) s ("ok " ^ expected) (of_string_outcome s))
    [
      ("//A-", "//{A-}");
      ("//A[/B//foll::C]", "//A[/B/foll::{C}]");
      ("/A/child::B/descendant::{C}", "/A/B//{C}");
      ("//A[/C/following-sibling::B]", "//A[/C/folls::{B}]");
      ("//A[/C/preceding-sibling::B]", "//A[/C/pres::{B}]");
      ("//A[/C/following::B]", "//A[/C/foll::{B}]");
      ("//A[/C/preceding::B]", "//A[/C/prec::{B}]");
      ("//A[/{C}/folls::B]", "//A[/{C}/folls::B]");
      ("//{A}[/C/folls::B]", "//{A}[/C/folls::B]");
      ("//A/{B}/C", "//A/{B}/C");
      ("//folls/foll.x", "//folls/{foll.x}");
    ]

(* Random inputs: strings over the XPath alphabet, and byte mutations
   of valid queries.  Either a pattern that round-trips through
   [to_string], or [Invalid_argument]; anything else (another
   exception, a hang) fails. *)
let tokens =
  [| "/"; "//"; "["; "]"; "{"; "}"; "::"; ":"; "*"; "A"; "B"; "c-1"; "x.y"; "folls"; "pres";
     "foll"; "prec"; "child"; "descendant"; "parent"; "following-sibling"; "self"; " "; "@" |]

let valid =
  [| "//A[/C/F]/B/{D}"; "//A[/C/folls::{B}/D]"; "/r/{a}"; "//{A}[/C/pres::B]";
     "//A[/C/foll::B/{D}]"; "//A//B[/C]//{D}" |]

let gen_query =
  let open QCheck.Gen in
  let alphabet = "/[]{}:*-._ABCDfolpresicdhn@ \000\255" in
  let mutate s =
    let* n = int_range 1 3 in
    let rec go n s =
      if n = 0 then return s
      else
        let len = String.length s in
        let* i = int_bound len in
        let* c = oneof [ map (String.get alphabet) (int_bound (String.length alphabet - 1)); char ] in
        let* op = int_bound 2 in
        let s =
          match op with
          | 0 when i < len -> String.mapi (fun j d -> if j = i then c else d) s
          | 1 when i < len -> String.sub s 0 i ^ String.sub s (i + 1) (len - i - 1)
          | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (len - i)
        in
        go (n - 1) s
    in
    go n s
  in
  oneof
    [
      map (String.concat "") (list_size (int_bound 16) (oneofa tokens));
      oneofa valid >>= mutate;
    ]

let prop_parse_or_invalid =
  QCheck.Test.make ~name:"pattern or Invalid_argument, round-tripping" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_query)
    (fun s ->
      let t0 = Sys.time () in
      let ok =
        match Pattern.of_string s with
        | p -> Pattern.equal (Pattern.of_string (Pattern.to_string p)) p
        | exception Invalid_argument _ -> true
      in
      ok && Sys.time () -. t0 < 1.0)

let () =
  Alcotest.run "pattern"
    [
      ( "unit",
        [
          Alcotest.test_case "of_string simple" `Quick test_of_string_simple;
          Alcotest.test_case "of_string branch" `Quick test_of_string_branch;
          Alcotest.test_case "of_string ordered" `Quick test_of_string_ordered;
          Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "counterpart" `Quick test_counterpart;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "to_ast" `Quick test_to_ast;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "pools parse back" `Slow test_pools_parse_back;
          Alcotest.test_case "malformed messages" `Quick test_malformed_messages;
          Alcotest.test_case "accepted forms" `Quick test_accepted_forms;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5ca9 |]) prop_parse_or_invalid;
        ] );
    ]
