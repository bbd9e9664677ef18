module Doc = Xpest_xml.Doc
module Bitvec = Xpest_util.Bitvec
module Summary = Xpest_synopsis.Summary
module Pf_table = Xpest_synopsis.Pf_table
module Po_table = Xpest_synopsis.Po_table
module P_histogram = Xpest_synopsis.P_histogram
module O_histogram = Xpest_synopsis.O_histogram

let doc = Paper_fixture.doc
let base = Summary.collect doc
let summary = Summary.assemble base

let test_tag_pids_exact () =
  let row tag =
    Summary.tag_pids summary tag
    |> List.map (fun (pid, f) -> (Bitvec.to_string pid, f))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "B row"
    (List.sort compare [ (Paper_fixture.p8, 1.0); (Paper_fixture.p5, 3.0) ])
    (row "B");
  Alcotest.(check (list (pair string (float 1e-9)))) "unknown tag" [] (row "Z")

let test_tag_total () =
  Alcotest.(check (float 1e-9)) "B total" 4.0 (Summary.tag_total summary "B");
  Alcotest.(check (float 1e-9)) "D total" 4.0 (Summary.tag_total summary "D")

let test_order_frequency () =
  let p5 = Paper_fixture.bv Paper_fixture.p5 in
  Alcotest.(check (float 1e-9)) "B(p5) after C = 2" 2.0
    (Summary.order_frequency summary ~tag:"B" ~pid:p5 ~other:"C"
       ~region:Po_table.After);
  Alcotest.(check (float 1e-9)) "B(p5) before C = 1" 1.0
    (Summary.order_frequency summary ~tag:"B" ~pid:p5 ~other:"C"
       ~region:Po_table.Before);
  Alcotest.(check (float 1e-9)) "unknown tag" 0.0
    (Summary.order_frequency summary ~tag:"Z" ~pid:p5 ~other:"C"
       ~region:Po_table.After)

(* A pid's column, its position in [tag_pids], reads the same
   o-histogram cells as the pid itself, through an [order_lookup]
   resolved once. *)
let test_order_lookup_by_column () =
  let tags = Array.to_list (Summary.tags summary) in
  List.iter
    (fun tag ->
      List.iteri
        (fun column (pid, _) ->
          List.iter
            (fun other ->
              List.iter
                (fun region ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s %s %s" tag (Bitvec.to_string pid) other)
                    (Summary.order_frequency summary ~tag ~pid ~other ~region)
                    (Summary.order_lookup summary ~tag ~other ~region column))
                [ Po_table.Before; Po_table.After ])
            ("Z" :: tags))
        (Summary.tag_pids summary tag))
    ("Z" :: tags);
  Alcotest.(check (float 0.0)) "B(p5) after C = 2" 2.0
    (Summary.order_lookup summary ~tag:"B" ~other:"C" ~region:Po_table.After
       (let rec column i = function
          | [] -> Alcotest.fail "p5 not in B's row"
          | (pid, _) :: rest ->
              if Bitvec.to_string pid = Paper_fixture.p5 then i else column (i + 1) rest
        in
        column 0 (Summary.tag_pids summary "B")))

(* The flat o-histograms answer every cell (every column, every other
   tag, both regions, and columns and tags outside the grid) as the
   builder's own lookup does on the histograms [assemble] builds, for a
   summary and its loaded copy, at two variances. *)
let test_order_lookup_matches_builder () =
  let module Registry = Xpest_datasets.Registry in
  let base = Summary.collect (Registry.generate ~scale:0.02 Registry.Xmark) in
  let pf = Summary.pf_table base in
  let po = Option.get (Summary.po_table base) in
  List.iter
    (fun v ->
      let built = Summary.assemble ~p_variance:v ~o_variance:v base in
      let loaded = Summary.decode (Summary.encode built) in
      let tags = Summary.tags built in
      let ntags = Array.length tags in
      let sorted = Array.copy tags in
      Array.sort String.compare sorted;
      let rank code =
        let rec go r = if String.equal sorted.(r) tags.(code) then r else go (r + 1) in
        go 0
      in
      Array.iter
        (fun tag ->
          let order =
            P_histogram.pid_order (P_histogram.build ~variance:v (Pf_table.entries pf tag))
          in
          let h =
            O_histogram.build ~variance:v ~ntags ~tag_alpha_rank:rank ~pid_order:order
              (Po_table.cells po tag)
          in
          for other = 0 to ntags - 1 do
            List.iter
              (fun region ->
                let cell s = Summary.order_lookup s ~tag ~other:tags.(other) ~region in
                let on_built = cell built and on_loaded = cell loaded in
                for column = -1 to Array.length order do
                  let expected =
                    if column < 0 || column = Array.length order then 0.0
                    else O_histogram.lookup h ~pid_index:order.(column) ~other_tag:other ~region
                  in
                  let label = Printf.sprintf "v=%g %s col %d %s" v tag column tags.(other) in
                  Alcotest.(check (float 0.0)) (label ^ " built") expected (on_built column);
                  Alcotest.(check (float 0.0)) (label ^ " loaded") expected (on_loaded column)
                done)
              [ Po_table.Before; Po_table.After ]
          done)
        tags)
    [ 0.0; 2.0 ]

let test_without_order () =
  let s = Summary.assemble (Summary.without_order base) in
  let p5 = Paper_fixture.bv Paper_fixture.p5 in
  Alcotest.(check (float 1e-9)) "order lookups are 0" 0.0
    (Summary.order_frequency s ~tag:"B" ~pid:p5 ~other:"C" ~region:Po_table.After);
  Alcotest.(check int) "no o-histogram bytes" 0 (Summary.o_histogram_bytes s);
  (* path side unaffected *)
  Alcotest.(check (float 1e-9)) "tag totals intact" 4.0 (Summary.tag_total s "B")

let test_memory_accounting () =
  Alcotest.(check bool) "p-histogram bytes > 0" true
    (Summary.p_histogram_bytes summary > 0);
  Alcotest.(check bool) "o-histogram bytes > 0" true
    (Summary.o_histogram_bytes summary > 0);
  Alcotest.(check int) "total = enc + tree + p"
    (Summary.encoding_table_bytes summary
    + Summary.pid_tree_bytes summary
    + Summary.p_histogram_bytes summary)
    (Summary.total_bytes summary)

let test_variance_shrinks_memory () =
  let doc = Xpest_datasets.Registry.generate ~scale:0.02 Xpest_datasets.Registry.Xmark in
  let base = Summary.collect doc in
  let exact = Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base in
  let loose = Summary.assemble ~p_variance:10.0 ~o_variance:10.0 base in
  Alcotest.(check bool) "p shrinks" true
    (Summary.p_histogram_bytes loose <= Summary.p_histogram_bytes exact);
  Alcotest.(check bool) "o shrinks" true
    (Summary.o_histogram_bytes loose <= Summary.o_histogram_bytes exact);
  Alcotest.(check bool) "p strictly shrinks on real data" true
    (Summary.p_histogram_bytes loose < Summary.p_histogram_bytes exact)

let test_estimates_at_variance0_are_exact_frequencies () =
  (* variance-0 summaries reproduce the pf-table *)
  let pf = Summary.pf_table base in
  List.iter
    (fun tag ->
      Alcotest.(check (float 1e-9))
        (tag ^ " total")
        (Float.of_int (Pf_table.total_frequency pf tag))
        (Summary.tag_total summary tag))
    (Pf_table.tags pf)

let () =
  Alcotest.run "summary"
    [
      ( "unit",
        [
          Alcotest.test_case "tag_pids" `Quick test_tag_pids_exact;
          Alcotest.test_case "tag_total" `Quick test_tag_total;
          Alcotest.test_case "order_frequency" `Quick test_order_frequency;
          Alcotest.test_case "without_order" `Quick test_without_order;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
          Alcotest.test_case "variance shrinks memory" `Quick
            test_variance_shrinks_memory;
          Alcotest.test_case "variance 0 is exact" `Quick
            test_estimates_at_variance0_are_exact_frequencies;
          Alcotest.test_case "order_lookup by column" `Quick test_order_lookup_by_column;
          Alcotest.test_case "order_lookup = O_histogram.lookup" `Quick
            test_order_lookup_matches_builder;
        ] );
    ]
