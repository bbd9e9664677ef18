type box = {
  x_start : int;
  y_start : int;
  x_end : int;
  y_end : int;
  frequency : float;
}

type t = {
  boxes : box list;
  (* lookup mappings *)
  col_of_pid : (int, int) Hashtbl.t;
  row_of : int -> Po_table.region -> int; (* tag code, region -> row *)
}

let region_offset ~ntags = function Po_table.Before -> 0 | Po_table.After -> ntags

let build ~variance ~ntags ~tag_alpha_rank ~pid_order cells =
  if variance < 0.0 then invalid_arg "O_histogram.build: negative variance";
  let col_of_pid = Hashtbl.create 32 in
  Array.iteri (fun col pid -> Hashtbl.replace col_of_pid pid col) pid_order;
  let row_of tag region = region_offset ~ntags region + tag_alpha_rank tag in
  (* Grid of non-empty cells. *)
  let grid = Hashtbl.create 256 in
  List.iter
    (fun (c : Po_table.cell) ->
      match Hashtbl.find_opt col_of_pid c.pid_index with
      | Some col -> Hashtbl.replace grid (col, row_of c.other_tag c.region) c.count
      | None ->
          invalid_arg "O_histogram.build: cell pid not in the tag's pid order")
    cells;
  let ncols = Array.length pid_order in
  let nrows = 2 * ntags in
  let value x y = Option.value ~default:0 (Hashtbl.find_opt grid (x, y)) in
  let covered = Hashtbl.create 256 in
  let is_covered x y = Hashtbl.mem covered (x, y) in
  let stddev ~sum ~sumsq ~k =
    let k = Float.of_int k in
    let mean = sum /. k in
    Float.sqrt (Float.max 0.0 ((sumsq /. k) -. (mean *. mean)))
  in
  let boxes = ref [] in
  (* Row-wise scan over non-empty cells. *)
  for y0 = 0 to nrows - 1 do
    for x0 = 0 to ncols - 1 do
      if value x0 y0 > 0 && not (is_covered x0 y0) then begin
        (* 1. extend rightward along row y0 *)
        let sum = ref 0.0 and sumsq = ref 0.0 and k = ref 0 in
        let x_end = ref (x0 - 1) in
        let continue = ref true in
        while !continue && !x_end + 1 < ncols do
          let x = !x_end + 1 in
          let v = value x y0 in
          if v = 0 || is_covered x y0 then continue := false
          else begin
            let f = Float.of_int v in
            let sum' = !sum +. f and sumsq' = !sumsq +. (f *. f) in
            if stddev ~sum:sum' ~sumsq:sumsq' ~k:(!k + 1) <= variance then begin
              sum := sum';
              sumsq := sumsq';
              incr k;
              incr x_end
            end
            else continue := false
          end
        done;
        let x_end = !x_end in
        (* 2. extend the row-box downward, row by row; a row can be
           added if none of its cells is claimed, it has at least one
           non-empty cell, and the box deviation (empty cells = 0)
           stays within the threshold. *)
        let y_end = ref y0 in
        let continue = ref true in
        while !continue && !y_end + 1 < nrows do
          let y = !y_end + 1 in
          let row_sum = ref 0.0 and row_sumsq = ref 0.0 in
          let nonempty = ref false in
          let claimed = ref false in
          for x = x0 to x_end do
            if is_covered x y then claimed := true;
            let v = value x y in
            if v > 0 then nonempty := true;
            let f = Float.of_int v in
            row_sum := !row_sum +. f;
            row_sumsq := !row_sumsq +. (f *. f)
          done;
          if (not !nonempty) || !claimed then continue := false
          else begin
            let sum' = !sum +. !row_sum and sumsq' = !sumsq +. !row_sumsq in
            let k' = !k + (x_end - x0 + 1) in
            if stddev ~sum:sum' ~sumsq:sumsq' ~k:k' <= variance then begin
              sum := sum';
              sumsq := sumsq';
              k := k';
              incr y_end
            end
            else continue := false
          end
        done;
        let y_end = !y_end in
        (* claim the box *)
        for x = x0 to x_end do
          for y = y0 to y_end do
            Hashtbl.replace covered (x, y) ()
          done
        done;
        boxes :=
          {
            x_start = x0;
            y_start = y0;
            x_end;
            y_end;
            frequency = !sum /. Float.of_int !k;
          }
          :: !boxes
      end
    done
  done;
  { boxes = List.rev !boxes; col_of_pid; row_of }

let boxes t = t.boxes

(* The first of [boxes] containing cell (x, y). *)
let rec scan x y = function
  | [] -> 0.0
  | b :: rest ->
      if x >= b.x_start && x <= b.x_end && y >= b.y_start && y <= b.y_end then b.frequency
      else scan x y rest

let lookup t ~pid_index ~other_tag ~region =
  match Hashtbl.find_opt t.col_of_pid pid_index with
  | None -> 0.0
  | Some x -> scan x (t.row_of other_tag region) t.boxes

let byte_size t = 20 * List.length t.boxes
