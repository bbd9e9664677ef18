module Doc = Xpest_xml.Doc

type path = string list

type t = {
  by_encoding : path array; (* index i holds the path with encoding i+1 *)
  by_path : (path, int) Hashtbl.t;
}

let of_paths paths =
  let by_path = Hashtbl.create 64 in
  let distinct = ref [] in
  let count = ref 0 in
  List.iter
    (fun p ->
      if p = [] then invalid_arg "Encoding_table.of_paths: empty path";
      if not (Hashtbl.mem by_path p) then begin
        incr count;
        Hashtbl.add by_path p !count;
        distinct := p :: !distinct
      end)
    paths;
  { by_encoding = Array.of_list (List.rev !distinct); by_path }

let build doc =
  (* Collect distinct root-to-leaf paths in document order. *)
  let acc = ref [] in
  Doc.iter doc (fun n ->
      if Doc.is_leaf doc n then acc := Doc.path_to doc n :: !acc);
  of_paths (List.rev !acc)

let num_paths t = Array.length t.by_encoding

let path_of_encoding t e =
  if e < 1 || e > num_paths t then
    invalid_arg (Printf.sprintf "Encoding_table.path_of_encoding: %d" e);
  t.by_encoding.(e - 1)

let encoding_of_path t p = Hashtbl.find_opt t.by_path p

let paths t = Array.to_list t.by_encoding

let tags_on_path t ~encoding ~anc ~desc =
  let path = Array.of_list (path_of_encoding t encoding) in
  let n = Array.length path in
  let adjacent = ref false and strict = ref false in
  for i = 0 to n - 1 do
    if String.equal path.(i) anc then
      for j = i + 1 to n - 1 do
        if String.equal path.(j) desc then begin
          if j = i + 1 then adjacent := true else strict := true
        end
      done
  done;
  if !adjacent then `Parent_child
  else if !strict then `Ancestor_descendant
  else `Neither

let axis_holds t ~encoding ~axis ~anc ~desc =
  match (axis, tags_on_path t ~encoding ~anc ~desc) with
  | `Child, `Parent_child -> true
  | `Child, (`Ancestor_descendant | `Neither) -> false
  | `Descendant, (`Parent_child | `Ancestor_descendant) -> true
  | `Descendant, `Neither -> false

let path_gaps path ~anc ~desc =
  let n = Array.length path in
  let gaps = ref [] in
  for i = 0 to n - 1 do
    if String.equal path.(i) anc then
      for j = i + 1 to n - 1 do
        if String.equal path.(j) desc then
          let gap = Array.to_list (Array.sub path (i + 1) (j - i - 1)) in
          if not (List.mem gap !gaps) then gaps := gap :: !gaps
      done
  done;
  List.sort
    (fun a b -> Int.compare (List.length a) (List.length b))
    (List.rev !gaps)

let gap_tags t ~encoding ~anc ~desc =
  path_gaps (Array.of_list (path_of_encoding t encoding)) ~anc ~desc

let byte_size t =
  Array.fold_left
    (fun acc path ->
      acc + 4 + List.fold_left (fun a tag -> a + String.length tag + 1) 0 path)
    0 t.by_encoding
