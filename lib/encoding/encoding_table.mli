(** The encoding table of the path encoding scheme (paper Section 2).

    Each distinct root-to-leaf path of the document (a sequence of
    element tags, root first) is assigned an integer encoding.
    Encodings are 1-based and dense: [1 .. num_paths], assigned in
    first document-occurrence order so they are deterministic for a
    given document.  Path id bit positions are [encoding - 1]. *)

type t

type path = string list
(** A root-to-leaf tag sequence, root first.  Never empty. *)

val build : Xpest_xml.Doc.t -> t

val of_paths : path list -> t
(** Build directly from a path list (duplicates ignored); for tests. *)

val num_paths : t -> int

val path_of_encoding : t -> int -> path
(** @raise Invalid_argument if the encoding is not in [1 .. num_paths]. *)

val encoding_of_path : t -> path -> int option

val paths : t -> path list
(** All paths in encoding order (encoding 1 first). *)

val tags_on_path : t -> encoding:int -> anc:string -> desc:string ->
  [ `Parent_child | `Ancestor_descendant | `Neither ]
(** Relationship of two tags on one root-to-leaf path: [`Parent_child]
    if some occurrence of [anc] is immediately followed by [desc],
    [`Ancestor_descendant] if some occurrence of [anc] strictly
    precedes [desc] only non-adjacently, [`Neither] otherwise.
    [`Parent_child] implies the ancestor-descendant relation holds
    too. *)

val axis_holds :
  t -> encoding:int -> axis:[ `Child | `Descendant ] -> anc:string ->
  desc:string -> bool
(** [`Child] requires adjacency; [`Descendant] any strict precedence
    (adjacent included). *)

val gap_tags :
  t -> encoding:int -> anc:string -> desc:string -> string list list
(** All tag sequences strictly between an occurrence of [anc] and a
    later occurrence of [desc] on the path (shortest first).  Used to
    convert [following]/[preceding] queries into sibling-axis queries
    (paper Example 5.3: the gap between [A] and [D] on path
    [Root/A/B/D] is [\[B\]]). *)

val path_gaps : string array -> anc:string -> desc:string -> string list list
(** {!gap_tags} on a path given as its tags, root first. *)

val byte_size : t -> int
(** Modeled storage: tag bytes per path plus 4 bytes per encoding
    integer (Table 3 accounting). *)
