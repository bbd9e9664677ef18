exception Syntax_error of { position : int; message : string }

(* [names] counts the name tests read so far, in textual order;
   [marked] is the ordinal of the one written [{name}], when [markers]
   admits the braces at all. *)
type state = {
  input : string;
  mutable pos : int;
  markers : bool;
  mutable names : int;
  mutable marked : int option;
}

let error st message = raise (Syntax_error { position = st.pos; message })
let advance st = st.pos <- st.pos + 1

(* The input holds [c] at [i].  The scan reads the input in place: it
   builds no substring and no option. *)
let char_at st i c = i < String.length st.input && String.unsafe_get st.input i = c

(* The input holds [s] at [i]. *)
let holds_at st i s =
  let n = String.length s in
  i + n <= String.length st.input
  &&
  let rec go k = k = n || (String.unsafe_get st.input (i + k) = String.unsafe_get s k && go (k + 1)) in
  go 0

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* The axis names, by first character.  A name is an axis only when
   "::" follows it, so no two candidates can both match. *)
let axes_from = function
  | 'a' -> [ ("ancestor", Ast.Ancestor) ]
  | 'c' -> [ ("child", Ast.Child) ]
  | 'd' -> [ ("descendant-or-self", Ast.Descendant_or_self); ("descendant", Ast.Descendant) ]
  | 'f' ->
      [
        ("following-sibling", Ast.Following_sibling);
        ("following", Ast.Following);
        (* The paper's abbreviations. *)
        ("folls", Ast.Following_sibling);
        ("foll", Ast.Following);
      ]
  | 'p' ->
      [
        ("preceding-sibling", Ast.Preceding_sibling);
        ("preceding", Ast.Preceding);
        ("parent", Ast.Parent);
        ("pres", Ast.Preceding_sibling);
        ("prec", Ast.Preceding);
      ]
  | 's' -> [ ("self", Ast.Self) ]
  | _ -> []

(* The end of the name starting at [st.pos] (itself if none does). *)
let name_end st =
  let n = String.length st.input in
  if st.pos < n && is_name_start st.input.[st.pos] then begin
    let i = ref (st.pos + 1) in
    while !i < n && is_name_char (String.unsafe_get st.input !i) do incr i done;
    !i
  end
  else st.pos

(* An axis written as [name::], consumed when the name is one; else
   [default], nothing consumed. *)
let axis_or st default =
  let stop = name_end st in
  if stop = st.pos || not (holds_at st stop "::") then default
  else
    let len = stop - st.pos in
    let rec find = function
      | [] -> default
      | (name, axis) :: rest ->
          if String.length name = len && holds_at st st.pos name then begin
            st.pos <- stop + 2;
            axis
          end
          else find rest
    in
    find (axes_from st.input.[st.pos])

let parse_name st =
  let start = st.pos and stop = name_end st in
  if stop = start then error st "expected a name";
  st.pos <- stop;
  st.names <- st.names + 1;
  String.sub st.input start (stop - start)

let parse_plain_test st =
  if char_at st st.pos '*' then begin
    advance st;
    Ast.Wildcard
  end
  else Ast.Name (parse_name st)

(* A node test; with [markers], [{name}] marks it as the target. *)
let parse_test st =
  if st.markers && char_at st st.pos '{' then begin
    if st.marked <> None then error st "two target markers";
    advance st;
    st.marked <- Some st.names;
    let test = parse_plain_test st in
    if not (char_at st st.pos '}') then error st "expected '}'";
    advance st;
    test
  end
  else parse_plain_test st

(* A separator: "//" (Descendant) or "/" (Child), consumed. *)
let separator st =
  if char_at st st.pos '/' then
    if char_at st (st.pos + 1) '/' then begin
      st.pos <- st.pos + 2;
      Some Ast.Descendant
    end
    else begin
      advance st;
      Some Ast.Child
    end
  else None

(* default_axis: the axis implied by the separator seen before this
   step ('/' -> Child, '//' -> Descendant, None for a bare first step
   of a relative path, which defaults to Child). *)
let rec parse_step st default_axis =
  let axis = axis_or st default_axis in
  let test = parse_test st in
  let predicates = parse_predicates st [] in
  Ast.{ axis; test; predicates }

and parse_predicates st acc =
  if char_at st st.pos '[' then begin
    advance st;
    let pred = parse_relative_path st in
    if not (char_at st st.pos ']') then error st "expected ']'";
    advance st;
    parse_predicates st (pred :: acc)
  end
  else List.rev acc

and parse_steps st first_axis =
  let first = parse_step st first_axis in
  let rec more acc =
    match separator st with
    | Some axis -> more (parse_step st axis :: acc)
    | None -> List.rev acc
  in
  more [ first ]

(* Relative path: used inside predicates.  A leading '/' or '//' is
   interpreted relative to the context node (paper notation). *)
and parse_relative_path st =
  let first_axis = Option.value (separator st) ~default:Ast.Child in
  Ast.{ absolute = false; steps = parse_steps st first_axis }

let parse ~markers input =
  let st = { input; pos = 0; markers; names = 0; marked = None } in
  let path =
    match separator st with
    | Some axis -> Ast.{ absolute = true; steps = parse_steps st axis }
    | None -> Ast.{ absolute = false; steps = parse_steps st Ast.Child }
  in
  if st.pos < String.length input then error st "trailing characters after path";
  (path, st.marked)

let parse_string input = fst (parse ~markers:false input)
let parse_marked input = parse ~markers:true input
