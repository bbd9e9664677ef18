type axis = Child | Descendant
type step = { axis : axis; tag : string }
type spine = step list
type order_axis = Following_sibling | Preceding_sibling | Following | Preceding

type shape =
  | Simple of spine
  | Branch of { trunk : spine; branch : spine; tail : spine }
  | Ordered of { trunk : spine; first : spine; axis : order_axis; second : spine }

type position =
  | In_trunk of int
  | In_branch of int
  | In_tail of int
  | In_first of int
  | In_second of int

type t = { shape : shape; target : position }

let spine_nth spine i = if i < 0 then None else List.nth_opt spine i

let tag_at_shape shape position =
  match (shape, position) with
  | Simple q, In_trunk i -> spine_nth q i
  | Simple _, (In_branch _ | In_tail _ | In_first _ | In_second _) -> None
  | Branch { trunk; _ }, In_trunk i -> spine_nth trunk i
  | Branch { branch; _ }, In_branch i -> spine_nth branch i
  | Branch { tail; _ }, In_tail i -> spine_nth tail i
  | Branch _, (In_first _ | In_second _) -> None
  | Ordered { trunk; _ }, In_trunk i -> spine_nth trunk i
  | Ordered { first; _ }, In_first i -> spine_nth first i
  | Ordered { second; _ }, In_second i -> spine_nth second i
  | Ordered _, (In_branch _ | In_tail _) -> None

let validate shape target =
  let nonempty name spine =
    if spine = [] then invalid_arg (Printf.sprintf "Pattern.v: empty %s" name)
  in
  (match shape with
  | Simple q -> nonempty "simple path" q
  | Branch { trunk; branch; tail = _ } ->
      nonempty "trunk" trunk;
      nonempty "branch" branch
  | Ordered { trunk; first; axis; second } -> (
      nonempty "trunk" trunk;
      nonempty "first branch" first;
      nonempty "second branch" second;
      (match first with
      | { axis = Child; _ } :: _ -> ()
      | _ -> invalid_arg "Pattern.v: head of the first branch must be a child step");
      match (axis, second) with
      | (Following_sibling | Preceding_sibling), { axis = Child; _ } :: _ -> ()
      | (Following | Preceding), { axis = Descendant; _ } :: _ -> ()
      | _ ->
          invalid_arg
            "Pattern.v: head of the second branch must match the order axis \
             (child for sibling axes, descendant for following/preceding)"));
  if tag_at_shape shape target = None then
    invalid_arg "Pattern.v: target position outside the pattern"

let v shape target =
  validate shape target;
  { shape; target }

let simple ?target spine =
  let target = match target with Some i -> i | None -> List.length spine - 1 in
  v (Simple spine) (In_trunk target)

let shape t = t.shape
let target t = t.target
let tag_at t pos = Option.map (fun s -> s.tag) (tag_at_shape t.shape pos)

let target_tag t =
  match tag_at t t.target with
  | Some tag -> tag
  | None -> assert false (* excluded by [v] *)

let size t =
  match t.shape with
  | Simple q -> List.length q
  | Branch { trunk; branch; tail } ->
      List.length trunk + List.length branch + List.length tail
  | Ordered { trunk; first; second; _ } ->
      List.length trunk + List.length first + List.length second

let counterpart = function
  | (Simple _ | Branch _) as s -> s
  | Ordered { trunk; first; axis; second } ->
      (* Dropping the order axis: the second branch reattaches under
         the last trunk node with the axis implied by the order axis
         (sibling axes relate siblings => child step; following /
         preceding relate descendants => descendant step). *)
      let tail =
        match (axis, second) with
        | (Following_sibling | Preceding_sibling), { tag; _ } :: rest ->
            { axis = Child; tag } :: rest
        | (Following | Preceding), { tag; _ } :: rest ->
            { axis = Descendant; tag } :: rest
        | _, [] -> []
      in
      Branch { trunk; branch = first; tail }

let counterpart_position = function
  | In_first i -> In_branch i
  | In_second i -> In_tail i
  | (In_trunk _ | In_branch _ | In_tail _) as p -> p

let tags t =
  let spine_tags = List.map (fun s -> s.tag) in
  match t.shape with
  | Simple q -> spine_tags q
  | Branch { trunk; branch; tail } ->
      spine_tags trunk @ spine_tags branch @ spine_tags tail
  | Ordered { trunk; first; second; _ } ->
      spine_tags trunk @ spine_tags first @ spine_tags second

let ast_axis = function Child -> Ast.Child | Descendant -> Ast.Descendant

let ast_order_axis = function
  | Following_sibling -> Ast.Following_sibling
  | Preceding_sibling -> Ast.Preceding_sibling
  | Following -> Ast.Following
  | Preceding -> Ast.Preceding

let spine_steps spine =
  List.map (fun { axis; tag } -> Ast.step (ast_axis axis) (Ast.Name tag)) spine

(* Attach a predicate to the last step of a list of AST steps. *)
let with_predicate steps pred =
  match List.rev steps with
  | [] -> invalid_arg "Pattern.to_ast: empty trunk"
  | last :: before ->
      List.rev (Ast.{ last with predicates = last.predicates @ [ pred ] } :: before)

let to_ast t =
  match t.shape with
  | Simple q -> Ast.path (spine_steps q)
  | Branch { trunk; branch; tail } ->
      let pred = Ast.path ~absolute:false (spine_steps branch) in
      Ast.path (with_predicate (spine_steps trunk) pred @ spine_steps tail)
  | Ordered { trunk; first; axis; second } ->
      let second_steps =
        match spine_steps second with
        | head :: rest -> Ast.{ head with axis = ast_order_axis axis } :: rest
        | [] -> []
      in
      let pred = Ast.path ~absolute:false (spine_steps first @ second_steps) in
      Ast.path (with_predicate (spine_steps trunk) pred)

(* ------------------------------------------------------------------ *)
(* Textual form with a {target} marker.                                *)

let to_string t =
  let render_spine ~mark buf part spine =
    List.iteri
      (fun i { axis; tag } ->
        Buffer.add_string buf (match axis with Child -> "/" | Descendant -> "//");
        if mark part i then Buffer.add_string buf ("{" ^ tag ^ "}")
        else Buffer.add_string buf tag)
      spine
  in
  let render_order_spine ~mark buf part axis spine =
    (* First step carries the order axis in paper notation. *)
    List.iteri
      (fun i { axis = step_axis; tag } ->
        if i = 0 then begin
          Buffer.add_string buf "/";
          Buffer.add_string buf
            (match axis with
            | Following_sibling -> "folls::"
            | Preceding_sibling -> "pres::"
            | Following -> "foll::"
            | Preceding -> "prec::")
        end
        else
          Buffer.add_string buf
            (match step_axis with Child -> "/" | Descendant -> "//");
        if mark part i then Buffer.add_string buf ("{" ^ tag ^ "}")
        else Buffer.add_string buf tag)
      spine
  in
  let buf = Buffer.create 64 in
  let mark part i =
    match (t.target, part) with
    | In_trunk j, `Trunk -> i = j
    | In_branch j, `Branch -> i = j
    | In_tail j, `Tail -> i = j
    | In_first j, `First -> i = j
    | In_second j, `Second -> i = j
    | _, (`Trunk | `Branch | `Tail | `First | `Second) -> false
  in
  (match t.shape with
  | Simple q -> render_spine ~mark buf `Trunk q
  | Branch { trunk; branch; tail } ->
      render_spine ~mark buf `Trunk trunk;
      Buffer.add_char buf '[';
      render_spine ~mark buf `Branch branch;
      Buffer.add_char buf ']';
      render_spine ~mark buf `Tail tail
  | Ordered { trunk; first; axis; second } ->
      render_spine ~mark buf `Trunk trunk;
      Buffer.add_char buf '[';
      render_spine ~mark buf `First first;
      render_order_spine ~mark buf `Second axis second;
      Buffer.add_char buf ']');
  Buffer.contents buf

let of_string input =
  (* One scan: the parser reads the {tag} marker in place and returns
     the ordinal of the marked node test in textual order. *)
  let ast, marked =
    match Parser.parse_marked input with
    | parsed -> parsed
    | exception Parser.Syntax_error { position; message } ->
        invalid_arg
          (Printf.sprintf "Pattern.of_string: %s at position %d" message position)
  in
  (* Convert AST -> shape.  Only the normalized fragment is accepted. *)
  let conv_axis pos = function
    | Ast.Child -> Child
    | Ast.Descendant -> Descendant
    | a ->
        invalid_arg
          (Printf.sprintf "Pattern.of_string: unsupported axis %s at step %d"
             (Ast.axis_name a) pos)
  in
  let conv_tag (test : Ast.node_test) =
    match test with
    | Ast.Name tag -> tag
    | Ast.Wildcard -> invalid_arg "Pattern.of_string: wildcard not in fragment"
  in
  let conv_plain_step pos (s : Ast.step) =
    if s.predicates <> [] then
      invalid_arg "Pattern.of_string: nested predicates not in fragment";
    { axis = conv_axis pos s.axis; tag = conv_tag s.test }
  in
  let order_of_ast = function
    | Ast.Following_sibling -> Some Following_sibling
    | Ast.Preceding_sibling -> Some Preceding_sibling
    | Ast.Following -> Some Following
    | Ast.Preceding -> Some Preceding
    | Ast.Self | Ast.Child | Ast.Descendant | Ast.Descendant_or_self
    | Ast.Parent | Ast.Ancestor ->
        None
  in
  let conv_predicate (pred : Ast.path) =
    (* Either a plain spine (branch) or spine + order step + spine. *)
    let rec split acc = function
      | [] -> (List.rev acc, None)
      | (s : Ast.step) :: rest -> (
          match order_of_ast s.axis with
          | Some order ->
              if s.predicates <> [] then
                invalid_arg "Pattern.of_string: predicate on order step";
              let head_axis =
                match order with
                | Following_sibling | Preceding_sibling -> Child
                | Following | Preceding -> Descendant
              in
              let second =
                { axis = head_axis; tag = conv_tag s.test }
                :: List.mapi (fun i st -> conv_plain_step i st) rest
              in
              (List.rev acc, Some (order, second))
          | None -> split (conv_plain_step 0 s :: acc) rest)
    in
    split [] pred.steps
  in
  let steps = ast.steps in
  (* Find the (single) step holding a predicate. *)
  let holders =
    List.filteri (fun _ (s : Ast.step) -> s.predicates <> []) steps
  in
  let shape =
    match holders with
    | [] -> Simple (List.mapi conv_plain_step steps)
    | [ _ ] ->
        let rec split_at acc = function
          | [] -> assert false
          | (s : Ast.step) :: rest ->
              if s.predicates <> [] then (List.rev (s :: acc), rest)
              else split_at (s :: acc) rest
        in
        let trunk_steps, tail_steps = split_at [] steps in
        let holder = List.nth trunk_steps (List.length trunk_steps - 1) in
        (match holder.predicates with
        | [ pred ] -> (
            let trunk =
              List.mapi
                (fun i (s : Ast.step) ->
                  { axis = conv_axis i s.axis; tag = conv_tag s.test })
                trunk_steps
            in
            let tail = List.mapi conv_plain_step tail_steps in
            match conv_predicate pred with
            | branch, None -> Branch { trunk; branch; tail }
            | first, Some (axis, second) ->
                if tail <> [] then
                  invalid_arg
                    "Pattern.of_string: order query cannot have a tail path";
                Ordered { trunk; first; axis; second })
        | _ -> invalid_arg "Pattern.of_string: multiple predicates on one step")
    | _ :: _ :: _ -> invalid_arg "Pattern.of_string: several predicate steps"
  in
  (* Map the textual node ordinal to a position. *)
  let part_sizes =
    match shape with
    | Simple q -> [ (`Trunk, List.length q) ]
    | Branch { trunk; branch; tail } ->
        [
          (`Trunk, List.length trunk);
          (`Branch, List.length branch);
          (`Tail, List.length tail);
        ]
    | Ordered { trunk; first; second; _ } ->
        [
          (`Trunk, List.length trunk);
          (`First, List.length first);
          (`Second, List.length second);
        ]
  in
  let position_of_ordinal ord =
    let rec find parts ord =
      match parts with
      | [] -> invalid_arg "Pattern.of_string: target marker out of range"
      | (part, len) :: rest ->
          if ord < len then
            match part with
            | `Trunk -> In_trunk ord
            | `Branch -> In_branch ord
            | `Tail -> In_tail ord
            | `First -> In_first ord
            | `Second -> In_second ord
          else find rest (ord - len)
    in
    find part_sizes ord
  in
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 part_sizes in
  let target =
    match marked with
    | Some ord -> position_of_ordinal ord
    | None -> position_of_ordinal (total - 1)
  in
  v shape target

let equal a b = a = b
let compare a b = Stdlib.compare a b
let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Shape equality and hash for hash-consing join specs.  The equality
   goes a step at a time with physical shortcuts: the polymorphic one
   costs ~0.4 us a shape of an XMark workload.  The hash reads every
   step: [Hashtbl.hash] reads only the first few, and gives the 1967
   distinct shapes of an XMark workload 1537 values. *)
let step_equal (a : step) (b : step) = a == b || (a.axis = b.axis && String.equal a.tag b.tag)

let rec spine_equal a b =
  a == b
  ||
  match (a, b) with
  | x :: a, y :: b -> step_equal x y && spine_equal a b
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let shape_equal a b =
  a == b
  ||
  match (a, b) with
  | Simple a, Simple b -> spine_equal a b
  | Branch a, Branch b ->
      spine_equal a.trunk b.trunk && spine_equal a.branch b.branch && spine_equal a.tail b.tail
  | Ordered a, Ordered b ->
      a.axis = b.axis && spine_equal a.trunk b.trunk && spine_equal a.first b.first
      && spine_equal a.second b.second
  | (Simple _ | Branch _ | Ordered _), _ -> false

(* A step's axis, tag length, and first, middle and last characters:
   reading whole tags costs twice as much, and these already tell the
   1416 distinct shapes of an XMark workload apart. *)
let rec hash_spine h = function
  | [] -> h
  | (s : step) :: rest ->
      let t = s.tag in
      let n = String.length t in
      let h = (h * 65599) + (n * 4) + match s.axis with Child -> 1 | Descendant -> 2 in
      let h =
        if n = 0 then h
        else
          (h * 257)
          + Char.code (String.unsafe_get t 0)
          + (Char.code (String.unsafe_get t (n / 2)) lsl 8)
          + (Char.code (String.unsafe_get t (n - 1)) lsl 16)
      in
      hash_spine h rest

let shape_hash shape =
  (match shape with
  | Simple s -> hash_spine 5 s
  | Branch { trunk; branch; tail } -> hash_spine (hash_spine (hash_spine 7 trunk) branch) tail
  | Ordered { trunk; first; axis; second } ->
      hash_spine
        (hash_spine
           (hash_spine
              (11
              + match axis with
                | Following_sibling -> 0
                | Preceding_sibling -> 1
                | Following -> 2
                | Preceding -> 3)
              trunk)
           first)
        second)
  land max_int
