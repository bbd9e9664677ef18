module Pattern = Xpest_xpath.Pattern

(* ------------------------------------------------------------------ *)
(* Equation selection (compile-time dispatch).                         *)

type equation =
  | Theorem_4_1
  | Equation_2
  | Equation_3
  | Equation_4
  | Equation_5
  | Conversion_5_3

let equation_name = function
  | Theorem_4_1 -> "theorem_4_1"
  | Equation_2 -> "equation_2"
  | Equation_3 -> "equation_3"
  | Equation_4 -> "equation_4"
  | Equation_5 -> "equation_5"
  | Conversion_5_3 -> "conversion_5_3"

let equation_doc = function
  | Theorem_4_1 -> "joined frequency of the target node"
  | Equation_2 -> "branch target through the order-free simple query Q'"
  | Equation_3 -> "order-head target scaled by the o-histogram survival ratio"
  | Equation_4 -> "deep order target scaled by the head's survival ratio"
  | Equation_5 -> "trunk target: min of order-free and both head bounds"
  | Conversion_5_3 -> "following/preceding via sibling-axis gap conversion"

let equation_of shape target =
  match ((shape : Pattern.shape), (target : Pattern.position)) with
  | Simple _, _ -> Theorem_4_1
  | Branch _, In_trunk _ -> Theorem_4_1
  | Branch _, (In_branch _ | In_tail _) -> Equation_2
  | Branch _, (In_first _ | In_second _) ->
      invalid_arg "Plan.compile: order position in a branch shape"
  | Ordered { axis = Following | Preceding; _ }, _ -> Conversion_5_3
  | Ordered _, (In_first 0 | In_second 0) -> Equation_3
  | Ordered _, (In_first _ | In_second _) -> Equation_4
  | Ordered _, In_trunk _ -> Equation_5
  | Ordered _, (In_branch _ | In_tail _) ->
      invalid_arg "Plan.compile: branch position in an ordered shape"

(* ------------------------------------------------------------------ *)
(* Compiled join graph.                                                *)

type jnode = { tag : string; position : Pattern.position }
type jedge = { parent : int; child : int; axis : Pattern.axis }

(* One root-to-leaf chain of the query tree: the trunk alone (Simple)
   or the trunk extended by one branch part.  [anchored] is true when
   the head step is a child of the virtual document node ([/n1]);
   [node_ids] indexes the chain into the node array ([chain_steps]
   reads its axes and tags from there, so a plan stores them once). *)
type chain = { anchored : bool; node_ids : int array }

type join_spec = {
  shape : Pattern.shape;
  key : int;  (* the run-cache key: one per live shape, see [intern] *)
  nodes : jnode array;
  edges : jedge list;
  node_axes : Pattern.axis array;
      (* incoming axis per node; the head gets the anchoring axis *)
  first_axis : Pattern.axis;
  chains : chain list;
}

(* Specs are hash-consed on their shape: a process-wide table holds
   every live spec under its shape, and compiling a shape that a live
   spec has returns that spec.  Each new spec takes the next [key],
   and keys are never reused, so two live specs have the same key iff
   their shapes are equal: the path join's run cache looks results up
   by [key] alone, neither hashing nor comparing a shape.  The table
   is an ephemeron table keyed on the spec's own shape: it keeps no
   spec alive, and a spec no plan holds any more leaves it at a major
   collection; a later spec of its shape takes a fresh key (a
   run-cache miss, never a wrong hit).  The table is process-wide,
   not owned by any estimator or catalog: callers that each drive
   their own estimators on their own domains all compile into it, so
   it is used under a lock. *)
module Specs = Ephemeron.K1.Make (struct
  type t = Pattern.shape

  let equal = Pattern.shape_equal
  let hash = Pattern.shape_hash
end)

let specs : join_spec Specs.t = Specs.create 1024
let specs_lock = Mutex.create ()
let next_key = ref 0

(* The live spec of [shape], or else [build key] under a fresh key. *)
let intern shape build =
  Mutex.protect specs_lock (fun () ->
      match Specs.find_opt specs shape with
      | Some spec -> spec
      | None ->
          let spec = build !next_key in
          incr next_key;
          Specs.add specs spec.shape spec;
          spec)

(* Flatten a shape into join nodes, parent-child edges and pattern
   chains: the trunk first, then the two branch parts (branch and
   tail, or first and second), each hanging off the last trunk node.
   Ordered shapes join via their counterpart, but node positions keep
   the original flavor so lookups can use In_first/In_second. *)
let build_spec (shape : Pattern.shape) key =
  let trunk, (left, in_left), (right, in_right) =
    match shape with
    | Simple trunk -> (trunk, ([], `Branch), ([], `Tail))
    | Branch { trunk; branch; tail } -> (trunk, (branch, `Branch), (tail, `Tail))
    | Ordered { trunk; first; second; _ } ->
        (* The counterpart reattaches [second] under the trunk with the
           axis implied by the order axis; Pattern.v has already forced
           the head axis to match, so the spine is usable as-is. *)
        (trunk, (first, `First), (second, `Second))
  in
  let t = List.length trunk and l = List.length left and r = List.length right in
  let first_axis = match trunk with [] -> Pattern.Child | s :: _ -> s.Pattern.axis in
  let nodes = Array.make (t + l + r) { tag = ""; position = Pattern.In_trunk 0 } in
  let node_axes = Array.make (t + l + r) first_axis in
  let edges = ref [] in
  (* lay [spine] out from node [base], its head under [parent] (-1:
     none); edges are listed in the order they are laid *)
  let rec lay spine part i base parent =
    match spine with
    | [] -> ()
    | (s : Pattern.step) :: rest ->
        let id = base + i in
        let position : Pattern.position =
          match part with
          | `Trunk -> In_trunk i
          | `Branch -> In_branch i
          | `Tail -> In_tail i
          | `First -> In_first i
          | `Second -> In_second i
        in
        nodes.(id) <- { tag = s.tag; position };
        if parent >= 0 then begin
          node_axes.(id) <- s.axis;
          edges := { parent; child = id; axis = s.axis } :: !edges
        end;
        lay rest part (i + 1) base id
  in
  lay trunk `Trunk 0 0 (-1);
  lay left in_left 0 t (t - 1);
  lay right in_right 0 (t + l) (t - 1);
  (* chains of node indices: the trunk alone (Simple) or the trunk
     extended by each branch part *)
  let chain lo len =
    {
      anchored = first_axis = Pattern.Child;
      node_ids = Array.init (t + len) (fun i -> if i < t then i else lo + i - t);
    }
  in
  let chains =
    match shape with
    | Simple _ -> [ chain 0 0 ]
    | Branch _ -> chain t l :: (if r > 0 then [ chain (t + l) r ] else [])
    | Ordered _ -> [ chain t l; chain (t + l) r ]
  in
  { shape; key; nodes; edges = List.rev !edges; node_axes; first_axis; chains }

let join_of_shape shape = intern shape (build_spec shape)

let chain_steps spec c =
  List.map (fun id -> (spec.node_axes.(id), spec.nodes.(id).tag)) (Array.to_list c.node_ids)

(* ------------------------------------------------------------------ *)
(* Equation (2) pre-compilation.                                       *)

(* Equation (2) estimates through the simple query Q' = trunk/own that
   drops the other branch; [ni] is the last trunk node, [pos_in_q']
   the target's position once the branch part is spliced after the
   trunk. *)
type eq2 = {
  q_prime : join_spec;
  pos_in_q' : Pattern.position;
  ni : Pattern.position;
}

let compile_eq2 ~trunk ~own ~own_index =
  {
    q_prime = join_of_shape (Pattern.Simple (trunk @ own));
    pos_in_q' = Pattern.In_trunk (List.length trunk + own_index);
    ni = Pattern.In_trunk (List.length trunk - 1);
  }

(* ------------------------------------------------------------------ *)
(* Order-equation pre-compilation (Equations 3-5).                     *)

(* Which side of the other branch head an own head must fall on, as
   the o-histograms' regions name it. *)
type region = Before | After

(* One sibling-order head: S⃗_Q'(head) sums the head's o-histogram
   cells over its survivors in [reduced], the counterpart with the
   other branch cut to its head; S_Q'(head) is Equation 2 through
   [via] (Q' = trunk/own branch) on [reduced], and S_Q(head) the same
   Equation 2 on the full counterpart. *)
type order_head = {
  head : Pattern.position;
  reduced : join_spec;
  reduced_head : Pattern.position;
  via : eq2;
  own_tag : string;
  other_tag : string;
  region : region;
}

type order_bound =
  | Off_trunk of { target : eq2; head : order_head }
  | On_trunk of { first : order_head; second : order_head }

type order = { counterpart : join_spec; bound : order_bound }

(* The counterpart's spec, from a sibling-order query's own: the same
   join graph (Pattern.v has made the second head a child step, the
   axis the counterpart gives it), with branch/tail positions. *)
let counterpart_spec (join : join_spec) =
  let shape = Pattern.counterpart join.shape in
  intern shape (fun key ->
      {
        join with
        shape;
        key;
        nodes =
          Array.map
            (fun (n : jnode) ->
              let position = Pattern.counterpart_position n.position in
              if position == n.position then n else { n with position })
            join.nodes;
      })

(* [join] is the order query's spec ([join_of_shape] of its shape). *)
let order_of_join (join : join_spec) target =
  match (join.shape, (target : Pattern.position)) with
  | Ordered { trunk; first; axis = (Following_sibling | Preceding_sibling) as axis; second }, _
    -> (
      let counterpart = counterpart_spec join in
      let branch, tail =
        match counterpart.shape with
        | Pattern.Branch { branch; tail; _ } -> (branch, tail)
        | Pattern.Simple _ | Pattern.Ordered _ -> assert false
      in
      let order_head side =
        (* [own] is the head's counterpart spine, [other] the other
           branch as the query writes it *)
        let own, other, head, reduced_head =
          match side with
          | `First -> (branch, second, Pattern.In_first 0, Pattern.In_branch 0)
          | `Second -> (tail, first, Pattern.In_second 0, Pattern.In_tail 0)
        in
        {
          head;
          (* the other branch cut to its head; when it is one step
             already, that is the counterpart itself *)
          reduced =
            (match other with
            | [ _ ] -> counterpart
            | cut :: _ :: _ ->
                join_of_shape
                  (Pattern.counterpart
                     (match side with
                     | `First -> Pattern.Ordered { trunk; first; axis; second = [ cut ] }
                     | `Second -> Pattern.Ordered { trunk; first = [ cut ]; axis; second }))
            | [] -> assert false (* excluded by Pattern.v *));
          reduced_head;
          via = compile_eq2 ~trunk ~own ~own_index:0;
          own_tag = (List.hd own).Pattern.tag;
          other_tag = (List.hd other).Pattern.tag;
          (* from the own head's point of view: After = it occurs after
             the other head *)
          region =
            (match (axis, side) with
            | Following_sibling, `Second | Preceding_sibling, `First -> After
            | Following_sibling, `First | Preceding_sibling, `Second -> Before
            | (Following | Preceding), _ -> assert false);
        }
      in
      let off_trunk side i =
        let head = order_head side in
        (* Q' is the head's own: only the target's place in it moves *)
        let target =
          if i = 0 then head.via
          else { head.via with pos_in_q' = Pattern.In_trunk (List.length trunk + i) }
        in
        Off_trunk { target; head }
      in
      {
        counterpart;
        bound =
          (match target with
          | In_first i -> off_trunk `First i
          | In_second i -> off_trunk `Second i
          | In_trunk _ -> On_trunk { first = order_head `First; second = order_head `Second }
          | In_branch _ | In_tail _ ->
              invalid_arg "Plan.compile: branch position in an ordered shape");
      })
  | (Simple _ | Branch _ | Ordered _), _ ->
      invalid_arg "Plan.compile_order: not a sibling-order query"

let compile_order shape target = order_of_join (join_of_shape shape) target

(* ------------------------------------------------------------------ *)
(* The plan record.                                                    *)

type t = {
  pattern : Pattern.t;
  equation : equation;
  join : join_spec;
  eq2 : eq2 option;  (* [Some] iff [equation = Equation_2] *)
  order : order option;  (* [Some] iff Equation 3, 4 or 5 *)
}

let pattern t = t.pattern
let equation t = t.equation
let target t = Pattern.target t.pattern

let compile pattern =
  let shape = Pattern.shape pattern and target = Pattern.target pattern in
  let equation = equation_of shape target in
  let eq2 =
    match (shape, target) with
    | Pattern.Branch { trunk; branch; _ }, Pattern.In_branch i ->
        Some (compile_eq2 ~trunk ~own:branch ~own_index:i)
    | Pattern.Branch { trunk; tail; _ }, Pattern.In_tail i ->
        Some (compile_eq2 ~trunk ~own:tail ~own_index:i)
    | _ -> None
  in
  let join = join_of_shape shape in
  let order =
    match equation with
    | Equation_3 | Equation_4 | Equation_5 -> Some (order_of_join join target)
    | Theorem_4_1 | Equation_2 | Conversion_5_3 -> None
  in
  { pattern; equation; join; eq2; order }

let compile_position pattern position =
  compile (Pattern.v (Pattern.shape pattern) position)

let key t = Pattern.to_string t.pattern

(* ------------------------------------------------------------------ *)
(* Human-readable plan dumps.                                          *)

let position_name = function
  | Pattern.In_trunk i -> Printf.sprintf "trunk[%d]" i
  | Pattern.In_branch i -> Printf.sprintf "branch[%d]" i
  | Pattern.In_tail i -> Printf.sprintf "tail[%d]" i
  | Pattern.In_first i -> Printf.sprintf "first[%d]" i
  | Pattern.In_second i -> Printf.sprintf "second[%d]" i

let axis_symbol = function Pattern.Child -> "/" | Pattern.Descendant -> "//"

let render_steps steps =
  String.concat ""
    (List.map (fun (axis, tag) -> axis_symbol axis ^ tag) steps)

let render_spine spine =
  render_steps (List.map (fun (s : Pattern.step) -> (s.axis, s.tag)) spine)

(* Order-free shapes, as written in a query without its marker. *)
let render_shape = function
  | Pattern.Simple spine -> render_spine spine
  | Pattern.Branch { trunk; branch; tail } ->
      render_spine trunk ^ "[" ^ render_spine branch ^ "]" ^ render_spine tail
  | Pattern.Ordered _ -> "?"

let pp ppf t =
  let open Format in
  let spec = t.join in
  fprintf ppf "@[<v>plan %s@," (Pattern.to_string t.pattern);
  fprintf ppf "  equation  %s  (%s)@," (equation_name t.equation)
    (equation_doc t.equation);
  let target = Pattern.target t.pattern in
  fprintf ppf "  target    %s = %s@," (position_name target)
    (match Pattern.tag_at t.pattern target with Some tag -> tag | None -> "?");
  fprintf ppf "  join      %d nodes, %d edges, head axis %s%s@,"
    (Array.length spec.nodes)
    (List.length spec.edges)
    (axis_symbol spec.first_axis)
    (if spec.first_axis = Pattern.Child then " (anchored at the document root)"
     else "");
  Array.iteri
    (fun i (n : jnode) ->
      let parent =
        List.find_opt (fun (e : jedge) -> e.child = i) spec.edges
      in
      fprintf ppf "    n%-2d %-10s %s%s%s@," i
        (position_name n.position)
        (axis_symbol spec.node_axes.(i))
        n.tag
        (match parent with
        | Some e -> Printf.sprintf "   <- n%d" e.parent
        | None -> ""))
    spec.nodes;
  List.iteri
    (fun i (c : chain) ->
      fprintf ppf "  chain %d   %s  (nodes %s%s)@," i (render_steps (chain_steps spec c))
        (String.concat ","
           (List.map (fun id -> "n" ^ string_of_int id) (Array.to_list c.node_ids)))
        (if c.anchored then "; anchored" else ""))
    spec.chains;
  let eq2_line (e : eq2) =
    fprintf ppf "  eq2       Q' = %s, n_i = %s, target in Q' = %s@,"
      (render_shape e.q_prime.shape) (position_name e.ni) (position_name e.pos_in_q')
  in
  let head_line (h : order_head) =
    fprintf ppf "  head      %s = %s, %s %s: Q' = %s at %s, Eq. 2 via %s@,"
      (position_name h.head) h.own_tag
      (match h.region with Before -> "before" | After -> "after")
      h.other_tag (render_shape h.reduced.shape) (position_name h.reduced_head)
      (render_shape h.via.q_prime.shape)
  in
  Option.iter eq2_line t.eq2;
  (match t.order with
  | Some o -> (
      fprintf ppf "  order     Q = %s (the order axis dropped)@," (render_shape o.counterpart.shape);
      match o.bound with
      | Off_trunk { target; head } ->
          head_line head;
          eq2_line target
      | On_trunk { first; second } ->
          head_line first;
          head_line second)
  | None -> ());
  fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
