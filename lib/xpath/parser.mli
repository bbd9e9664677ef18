(** Parser for the XPath fragment.

    Grammar accepted (paper notation and standard abbreviations):

    - [/] and [//] abbreviate child and descendant axes;
    - explicit axes: [child::], [descendant::], [descendant-or-self::],
      [self::], [parent::], [ancestor::], [following-sibling::],
      [preceding-sibling::], [following::], [preceding::];
    - the paper's short axis names [folls::], [pres::], [foll::],
      [prec::] for the four order axes;
    - node tests: names and [*];
    - predicates: [\[relative-path\]]; a predicate path may start with
      [/] or [//] which — following the paper's notation
      [//A\[/C/F\]/B/D] — denote child/descendant steps relative to the
      context node, not document-rooted paths.

    The scanner reads the input in place: axis names are matched
    where they stand, dispatched on their first character, and a name
    is copied once, into its node test. *)

exception Syntax_error of { position : int; message : string }
(** [position] is a byte offset into the input. *)

val parse_string : string -> Ast.path
(** @raise Syntax_error on malformed input, braces included. *)

val parse_marked : string -> Ast.path * int option
(** Like {!parse_string}, but a node test may be written [{name}] (at
    most once) to mark it as a query's target, as
    {!Pattern.to_string} writes it.  Returns the path and the ordinal
    of the marked test among the name tests, counted from 0 in
    textual order.
    @raise Syntax_error on malformed input, a second marker included. *)
