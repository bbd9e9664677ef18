module O_histogram = Xpest_synopsis.O_histogram
module Po_table = Xpest_synopsis.Po_table

let cell pid_index other_tag region count : Po_table.cell =
  { pid_index; other_tag; region; count }

(* A tiny grid: 3 tags (codes 0,1,2 = alphabetic ranks 0,1,2), pid
   order [| 10; 11; 12 |] (columns 0,1,2). *)
let pid_order = [| 10; 11; 12 |]
let rank i = i

let build ?(variance = 0.0) cells =
  O_histogram.build ~variance ~ntags:3 ~tag_alpha_rank:rank ~pid_order cells

let lookup h pid other region = O_histogram.lookup h ~pid_index:pid ~other_tag:other ~region

let test_exact_at_variance0 () =
  let cells =
    [
      cell 10 0 Po_table.Before 5;
      cell 11 0 Po_table.Before 5;
      cell 10 1 Po_table.After 2;
      cell 12 2 Po_table.After 9;
    ]
  in
  let h = build cells in
  Alcotest.(check (float 1e-9)) "cell 1" 5.0 (lookup h 10 0 Po_table.Before);
  Alcotest.(check (float 1e-9)) "cell 2" 5.0 (lookup h 11 0 Po_table.Before);
  Alcotest.(check (float 1e-9)) "cell 3" 2.0 (lookup h 10 1 Po_table.After);
  Alcotest.(check (float 1e-9)) "cell 4" 9.0 (lookup h 12 2 Po_table.After);
  Alcotest.(check (float 1e-9)) "empty cell" 0.0 (lookup h 12 0 Po_table.Before);
  Alcotest.(check (float 1e-9)) "unknown pid" 0.0 (lookup h 99 0 Po_table.Before)

let test_row_merging () =
  (* two adjacent equal cells on one row collapse into one box at v=0 *)
  let cells =
    [ cell 10 0 Po_table.Before 4; cell 11 0 Po_table.Before 4 ]
  in
  let h = build cells in
  Alcotest.(check int) "one box" 1 (List.length (O_histogram.boxes h));
  Alcotest.(check int) "20 bytes" 20 (O_histogram.byte_size h)

let test_variance_merges_more () =
  let cells =
    [ cell 10 0 Po_table.Before 4; cell 11 0 Po_table.Before 6 ]
  in
  let exact = build ~variance:0.0 cells in
  let loose = build ~variance:1.0 cells in
  Alcotest.(check int) "v=0: two boxes" 2 (List.length (O_histogram.boxes exact));
  Alcotest.(check int) "v=1: one box" 1 (List.length (O_histogram.boxes loose));
  Alcotest.(check (float 1e-9)) "average" 5.0
    (lookup loose 10 0 Po_table.Before)

let test_box_extension_downward () =
  (* a 2x2 block of equal values becomes a single box *)
  let cells =
    [
      cell 10 0 Po_table.Before 3;
      cell 11 0 Po_table.Before 3;
      cell 10 1 Po_table.Before 3;
      cell 11 1 Po_table.Before 3;
    ]
  in
  let h = build cells in
  Alcotest.(check int) "one box" 1 (List.length (O_histogram.boxes h));
  List.iter
    (fun (b : O_histogram.box) ->
      Alcotest.(check int) "x span" 1 (b.x_end - b.x_start);
      Alcotest.(check int) "y span" 1 (b.y_end - b.y_start))
    (O_histogram.boxes h)

let test_regions_disjoint () =
  (* same (pid, tag) in the two regions must not collide *)
  let cells =
    [ cell 10 0 Po_table.Before 1; cell 10 0 Po_table.After 7 ]
  in
  let h = build cells in
  Alcotest.(check (float 1e-9)) "before" 1.0 (lookup h 10 0 Po_table.Before);
  Alcotest.(check (float 1e-9)) "after" 7.0 (lookup h 10 0 Po_table.After)

let test_rejects_foreign_pid () =
  Alcotest.(check bool) "foreign pid" true
    (match build [ cell 99 0 Po_table.Before 1 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* properties *)

let cells_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (pair (pair (int_range 0 4) (int_range 0 2))
         (pair (oneofl [ Po_table.Before; Po_table.After ]) (int_range 1 30)))
    >|= fun raw ->
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun ((pid, tag), (region, count)) ->
        if Hashtbl.mem seen (pid, tag, region) then None
        else begin
          Hashtbl.add seen (pid, tag, region) ();
          Some (cell pid tag region count)
        end)
      raw)

let arb_cells =
  QCheck.make
    QCheck.Gen.(pair cells_gen (float_range 0.0 8.0))
    ~print:(fun (cells, v) ->
      Printf.sprintf "v=%g n=%d" v (List.length cells))

let wide_pid_order = [| 0; 1; 2; 3; 4 |]

let build_wide ~variance cells =
  O_histogram.build ~variance ~ntags:3 ~tag_alpha_rank:rank
    ~pid_order:wide_pid_order cells

let prop_exact_at_v0 =
  QCheck.Test.make ~name:"variance 0 lookups are exact" ~count:400 arb_cells
    (fun (cells, _) ->
      let h = build_wide ~variance:0.0 cells in
      List.for_all
        (fun (c : Po_table.cell) ->
          O_histogram.lookup h ~pid_index:c.pid_index ~other_tag:c.other_tag
            ~region:c.region
          = Float.of_int c.count)
        cells)

let prop_all_cells_covered =
  QCheck.Test.make ~name:"every non-empty cell is inside some box" ~count:400
    arb_cells (fun (cells, v) ->
      let h = build_wide ~variance:v cells in
      List.for_all
        (fun (c : Po_table.cell) ->
          O_histogram.lookup h ~pid_index:c.pid_index ~other_tag:c.other_tag
            ~region:c.region
          > 0.0)
        cells)

let prop_boxes_disjoint =
  QCheck.Test.make ~name:"boxes never overlap" ~count:400 arb_cells
    (fun (cells, v) ->
      let h = build_wide ~variance:v cells in
      let boxes = Array.of_list (O_histogram.boxes h) in
      let overlap (a : O_histogram.box) (b : O_histogram.box) =
        a.x_start <= b.x_end && b.x_start <= a.x_end && a.y_start <= b.y_end
        && b.y_start <= a.y_end
      in
      let n = Array.length boxes in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if overlap boxes.(i) boxes.(j) then ok := false
        done
      done;
      !ok)

let prop_memory_bounds =
  (* Greedy 2-D boxing is not nested across variances, so memory is
     not strictly monotone; but an unbounded variance can never need
     more boxes than the exact histogram, and no histogram needs more
     boxes than non-empty cells. *)
  QCheck.Test.make ~name:"memory bounds across variances" ~count:200
    (QCheck.make cells_gen ~print:(fun c -> string_of_int (List.length c)))
    (fun cells ->
      let boxes v = List.length (O_histogram.boxes (build_wide ~variance:v cells)) in
      boxes 1000.0 <= boxes 0.0
      && List.for_all (fun v -> boxes v <= List.length cells) [ 0.0; 2.0; 8.0 ])

let () =
  Alcotest.run "o_histogram"
    [
      ( "unit",
        [
          Alcotest.test_case "exact at variance 0" `Quick test_exact_at_variance0;
          Alcotest.test_case "row merging" `Quick test_row_merging;
          Alcotest.test_case "variance merges more" `Quick
            test_variance_merges_more;
          Alcotest.test_case "downward box extension" `Quick
            test_box_extension_downward;
          Alcotest.test_case "regions disjoint" `Quick test_regions_disjoint;
          Alcotest.test_case "foreign pid rejected" `Quick
            test_rejects_foreign_pid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_exact_at_v0;
            prop_all_cells_covered;
            prop_boxes_disjoint;
            prop_memory_bounds;
          ] );
    ]
