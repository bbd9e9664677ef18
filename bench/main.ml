(* Experiment runner: regenerates every table and figure of the
   paper's evaluation (Section 7), plus the ablations and the serving
   experiment.

     dune exec bench/main.exe                    # everything, bench profile
     dune exec bench/main.exe -- t3 f10          # selected artefacts
     dune exec bench/main.exe -- --scale 1.0 --cap 0   # paper-scale

   The default profile uses scale 0.25 and caps query classes at 600
   queries so a full run finishes in minutes; EXPERIMENTS.md records
   the profile used for the committed results.  Throughput is measured
   by the performance ledger (perfbench/), not here. *)

module Registry = Xpest_datasets.Registry
module Doc = Xpest_xml.Doc
module Workload = Xpest_workload.Workload
module Env = Xpest_harness.Env
module Experiments = Xpest_harness.Experiments
module Tablefmt = Xpest_util.Tablefmt

let () =
  let scale = ref 0.25 in
  let cap = ref 600 in
  let markdown = ref "" in
  let ids = ref [] in
  let spec =
    [
      ("--scale", Arg.Set_float scale, "S dataset scale factor (default 0.25)");
      ("--cap", Arg.Set_int cap, "N max queries per class, 0 = unlimited (default 600)");
      ("--markdown", Arg.Set_string markdown, "FILE also write a markdown report");
    ]
  in
  Arg.parse spec (fun id -> ids := id :: !ids) "bench/main.exe [options] [ids]";
  let ids = match List.rev !ids with [] -> Experiments.all_ids | ids -> ids in
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
