(** Normalized query patterns — the query classes of the paper.

    Section 4 standardizes branch queries as [q1\[/q2\]/q3] (trunk,
    branch, tail) and Section 5 writes order queries as
    [q1\[/q2/folls::q3\]] where the heads of [q2] and [q3] are sibling
    children of the last trunk node (or, for [following]/[preceding],
    the head of [q3] is a descendant of the last trunk node positioned
    after/before the whole [q2]).  Every query designates a *target
    node* whose selectivity is estimated. *)

type axis = Child | Descendant

type step = { axis : axis; tag : string }

type spine = step list
(** A simple path: non-empty everywhere it is used as a trunk/branch. *)

type order_axis = Following_sibling | Preceding_sibling | Following | Preceding

type shape =
  | Simple of spine  (** [/q1] *)
  | Branch of { trunk : spine; branch : spine; tail : spine }
      (** [q1\[/q2\]/q3]; [tail] may be empty ([q1\[/q2\]]). *)
  | Ordered of { trunk : spine; first : spine; axis : order_axis; second : spine }
      (** [q1\[/first/axis::second\]].  The head of [first] is a child
          of the last trunk node.  For sibling axes the head of
          [second] is too; for [Following]/[Preceding] it is a
          descendant. *)

(** Position of the target node inside a shape; indices are 0-based
    within each part. *)
type position =
  | In_trunk of int
  | In_branch of int
  | In_tail of int
  | In_first of int
  | In_second of int

type t = { shape : shape; target : position }

val v : shape -> position -> t
(** Smart constructor.
    @raise Invalid_argument if the position does not exist in the
    shape, a required part is empty, or an [Ordered] head violates the
    axis discipline above (the head of [first] must be a [Child] step;
    the head of [second] must be [Child] for sibling order axes and
    [Descendant] for [Following]/[Preceding]). *)

val simple : ?target:int -> spine -> t
(** Target defaults to the last step. *)

val shape : t -> shape
val target : t -> position

val target_tag : t -> string
val tag_at : t -> position -> string option

val size : t -> int
(** Number of node tests in the pattern. *)

val counterpart : shape -> shape
(** The order-free counterpart [Q] of an order query [Q⃗] (Section 5):
    dropping the order axis turns [Ordered] into [Branch] with
    [branch = first] and [tail = second]; other shapes are unchanged.
    The plan compiler records the join specs of [Q] and of the
    counterparts with one branch cut to its head
    ([Xpest_plan.Plan.order]), so estimation never rebuilds them. *)

val counterpart_position : position -> position
(** Maps [In_first]/[In_second] to [In_branch]/[In_tail]. *)

val tags : t -> string list
(** All tags mentioned, in trunk-branch-tail order, duplicates kept. *)

val to_ast : t -> Ast.path
(** Lower to the AST (losing the target designation); useful for
    printing and for evaluating with {!Eval}. *)

val to_string : t -> string
(** Rendering with the target node wrapped in braces, e.g.
    [//A\[/C/F\]/B/{D}].  Parsed back by {!of_string}. *)

val of_string : string -> t
(** Parse the {!to_string} notation in one scan ({!Parser.parse_marked}).
    At most one target marker [{tag}] may wrap a node test; without
    one the target defaults to the last node of the main path.
    @raise Invalid_argument, and nothing else, on malformed input or a
    path outside the normalized fragment.  A syntax error's message
    ends with its byte position, e.g.
    ["Pattern.of_string: expected a name at position 4"]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val shape_equal : shape -> shape -> bool
(** Structural equality of shapes, with physical-equality shortcuts. *)

val shape_hash : shape -> int
(** A hash of the whole shape, every step's axis and tag: equal shapes
    hash equal.  [Hashtbl.hash] reads only a shape's first few steps. *)
