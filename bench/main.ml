(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7) and runs bechamel micro-benchmarks of
   the core operations.

     dune exec bench/main.exe                    # everything, bench profile
     dune exec bench/main.exe -- t3 f10          # selected artefacts
     dune exec bench/main.exe -- --scale 1.0 --cap 0   # paper-scale
     dune exec bench/main.exe -- --no-micro      # skip micro-benchmarks

   The default profile uses scale 0.25 and caps query classes at 600
   queries so a full run finishes in minutes; EXPERIMENTS.md records
   the profile used for the committed results. *)

module Registry = Xpest_datasets.Registry
module Doc = Xpest_xml.Doc
module Summary = Xpest_synopsis.Summary
module P_histogram = Xpest_synopsis.P_histogram
module Plan = Xpest_plan.Plan
module Estimator = Xpest_estimator.Estimator
module Path_join = Xpest_estimator.Path_join
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Workload = Xpest_workload.Workload
module Xsketch = Xpest_baseline.Xsketch
module Env = Xpest_harness.Env
module Experiments = Xpest_harness.Experiments
module Tablefmt = Xpest_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks.                                                   *)

let microbenches () =
  let open Bechamel in
  print_endline "== Micro-benchmarks (bechamel, monotonic clock) ==\n";
  let doc = Registry.generate ~scale:0.02 Registry.Xmark in
  let base = Summary.collect doc in
  let summary = Summary.assemble ~p_variance:0.0 ~o_variance:0.0 base in
  let estimator = Estimator.create summary in
  let pf = Summary.pf_table base in
  let simple_q = Pattern.of_string "//item/description//{keyword}" in
  let branch_q = Pattern.of_string "//item[/mailbox/mail]//{keyword}" in
  let branch_spec = Plan.join_of_shape (Pattern.shape branch_q) in
  let order_q = Pattern.of_string "//item[/payment/folls::{description}]" in
  let join = Path_join.create summary in
  let tests =
    [
      Test.make ~name:"doc_of_tree (xmark 2%)"
        (Staged.stage (fun () ->
             ignore (Registry.generate ~scale:0.02 Registry.Xmark)));
      Test.make ~name:"collect_summary"
        (Staged.stage (fun () -> ignore (Summary.collect doc)));
      Test.make ~name:"p_histogram_build_all(v=0)"
        (Staged.stage (fun () ->
             ignore (P_histogram.build_all ~variance:0.0 pf)));
      Test.make ~name:"assemble(v=2)"
        (Staged.stage (fun () ->
             ignore (Summary.assemble ~p_variance:2.0 ~o_variance:2.0 base)));
      Test.make ~name:"path_join(branch)"
        (Staged.stage (fun () ->
             ignore (Path_join.exec join branch_spec)));
      (* cold: fresh caches per run, the first-estimate cost a query
         optimizer pays; warm: repeated estimation of a known query *)
      Test.make ~name:"estimate_cold(simple)"
        (Staged.stage (fun () ->
             ignore (Estimator.estimate (Estimator.create summary) simple_q)));
      Test.make ~name:"estimate_cold(branch)"
        (Staged.stage (fun () ->
             ignore (Estimator.estimate (Estimator.create summary) branch_q)));
      Test.make ~name:"estimate_cold(order)"
        (Staged.stage (fun () ->
             ignore (Estimator.estimate (Estimator.create summary) order_q)));
      Test.make ~name:"estimate_warm(order)"
        (Staged.stage (fun () -> ignore (Estimator.estimate estimator order_q)));
      Test.make ~name:"truth(branch)"
        (Staged.stage (fun () -> ignore (Truth.selectivity doc branch_q)));
      (* persistence: full codec round-trip costs, the cold-start
         alternative to collect+assemble *)
      Test.make ~name:"synopsis_encode"
        (Staged.stage (fun () -> ignore (Summary.encode summary)));
      Test.make ~name:"synopsis_decode"
        (Staged.stage
           (let bytes = Summary.encode summary in
            fun () -> ignore (Summary.decode bytes)));
      Test.make ~name:"xsketch_estimate(branch)"
        (Staged.stage
           (let sk = Xsketch.build ~budget_bytes:8192 doc in
            fun () -> ignore (Xsketch.estimate sk branch_q)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let analysis =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let rows =
    List.map
      (fun test ->
        let elt = List.hd (Test.elements test) in
        let raw = Benchmark.run cfg instances elt in
        let ols = Analyze.one analysis Toolkit.Instance.monotonic_clock raw in
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        [ Test.name test; Tablefmt.fmt_seconds (ns *. 1e-9) ])
      tests
  in
  print_endline
    (Tablefmt.render_table
       ~header:[ "operation"; "time/run" ]
       ~align:[ Tablefmt.Left; Tablefmt.Right ]
       rows);
  print_newline ()

let () =
  let scale = ref 0.25 in
  let cap = ref 600 in
  let micro = ref true in
  let markdown = ref "" in
  let ids = ref [] in
  let spec =
    [
      ("--scale", Arg.Set_float scale, "S dataset scale factor (default 0.25)");
      ("--cap", Arg.Set_int cap, "N max queries per class, 0 = unlimited (default 600)");
      ("--no-micro", Arg.Clear micro, " skip bechamel micro-benchmarks");
      ("--micro-only", Arg.Unit (fun () -> ids := [ "none" ]), " only micro-benchmarks");
      ("--markdown", Arg.Set_string markdown, "FILE also write a markdown report");
    ]
  in
  Arg.parse spec (fun id -> ids := id :: !ids) "bench/main.exe [options] [ids]";
  let ids =
    match List.rev !ids with
    | [] -> Experiments.all_ids
    | [ "none" ] -> []
    | ids -> ids
  in
  if ids <> [] then begin
    let config =
      {
        Env.default_config with
        scale = !scale;
        max_queries_per_class = (if !cap = 0 then None else Some !cap);
      }
    in
    Printf.printf
      "== Reproduction of the evaluation (scale %g, query cap %s) ==\n\n%!"
      !scale
      (if !cap = 0 then "none" else string_of_int !cap);
    let envs =
      List.map
        (fun name ->
          let env, seconds =
            Env.time (fun () -> Env.prepare ~config name)
          in
          Printf.printf "prepared %s: %d elements, workload %d+%d queries (%s)\n%!"
            (Registry.to_string name)
            (Doc.size (Env.doc env))
            (Workload.total_without_order (Env.workload env))
            (Workload.total_with_order (Env.workload env))
            (Tablefmt.fmt_seconds seconds);
          env)
        Registry.all
    in
    print_newline ();
    let artefacts =
      List.map
        (fun id ->
          let artefact, seconds = Env.time (fun () -> Experiments.run envs id) in
          Printf.printf "%s\n(%s computed in %s)\n\n%!"
            (Experiments.render artefact)
            id
            (Tablefmt.fmt_seconds seconds);
          artefact)
        ids
    in
    if !markdown <> "" then begin
      let doc =
        Xpest_harness.Report.document
          ~title:"xpest: reproduced evaluation"
          ~preamble:
            [
              Printf.sprintf
                "Profile: dataset scale %g, query cap %s.  See EXPERIMENTS.md \
                 for the paper-vs-measured reading guide."
                !scale
                (if !cap = 0 then "none" else string_of_int !cap);
            ]
          artefacts
      in
      let oc = open_out !markdown in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote markdown report to %s\n%!" !markdown
    end
  end;
  if !micro then microbenches ()
