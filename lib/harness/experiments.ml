module Registry = Xpest_datasets.Registry
module Doc = Xpest_xml.Doc
module Tablefmt = Xpest_util.Tablefmt
module Summary = Xpest_synopsis.Summary
module Pf_table = Xpest_synopsis.Pf_table
module Po_table = Xpest_synopsis.Po_table
module P_histogram = Xpest_synopsis.P_histogram
module Labeler = Xpest_encoding.Labeler
module Pid_tree = Xpest_encoding.Pid_tree
module Workload = Xpest_workload.Workload
module Estimator = Xpest_estimator.Estimator
module Catalog = Xpest_catalog.Catalog
module Counters = Xpest_util.Counters
module Xsketch = Xpest_baseline.Xsketch

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
}

type figure = {
  fid : string;
  ftitle : string;
  x_label : string;
  y_label : string;
  series : (string * (float * float) list) list;
}

type artefact = Table of table | Figures of figure list

let render = function
  | Table t ->
      Tablefmt.render_table
        ~title:(Printf.sprintf "%s  %s" t.id t.title)
        ~header:t.header
        ~align:(Tablefmt.Left :: List.map (fun _ -> Tablefmt.Right) (List.tl t.header))
        t.rows
  | Figures figs ->
      String.concat "\n"
        (List.map
           (fun f ->
             Tablefmt.render_series
               ~title:(Printf.sprintf "%s  %s" f.fid f.ftitle)
               ~x_label:f.x_label ~y_label:f.y_label ~series:f.series ())
           figs)

let kb bytes = Float.of_int bytes /. 1024.0
let fmt = Tablefmt.fmt_float
let fmt_kb bytes = Printf.sprintf "%.2f" (kb bytes)
let dsname env = Registry.to_string (Env.name env)

let variance_sweep = [ 0.0; 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 12.0; 14.0 ]

(* ------------------------------------------------------------------ *)

let table1 envs =
  Table
    {
      id = "T1";
      title = "Characteristics of Datasets";
      header = [ "Dataset"; "Size"; "#(Distinct Eles)"; "#(Eles)" ];
      rows =
        List.map
          (fun env ->
            let doc = Env.doc env in
            [
              dsname env;
              Tablefmt.fmt_bytes (Doc.serialized_byte_size doc);
              string_of_int (Doc.num_tags doc);
              string_of_int (Doc.size doc);
            ])
          envs;
    }

let table2 envs =
  Table
    {
      id = "T2";
      title = "Query Workload";
      header =
        [ "Dataset"; "Simple"; "Branch"; "Total (no order)"; "With Order" ];
      rows =
        List.map
          (fun env ->
            let w = Env.workload env in
            [
              dsname env;
              string_of_int (List.length w.Workload.simple);
              string_of_int (List.length w.Workload.branch);
              string_of_int (Workload.total_without_order w);
              string_of_int (Workload.total_with_order w);
            ])
          envs;
    }

let table3 envs =
  Table
    {
      id = "T3";
      title = "Space Requirement of Encoding Table and Path Id Binary Tree";
      header =
        [
          "Dataset"; "#(Dist Paths)"; "Pid Size (Byte)"; "#(Dist Pid)";
          "EncTab (KB)"; "PidTab (KB)"; "Pid Bin-Tree (KB)";
        ];
      rows =
        List.map
          (fun env ->
            let s = Env.summary env ~p_variance:0.0 ~o_variance:0.0 ~with_order:false in
            let labeler = Summary.labeler s in
            let tree =
              Pid_tree.build (Array.to_list (Labeler.distinct_pids labeler))
            in
            [
              dsname env;
              string_of_int (Summary.num_paths s);
              string_of_int (Labeler.pid_byte_size labeler);
              string_of_int (Labeler.num_distinct labeler);
              fmt_kb (Summary.encoding_table_bytes s);
              fmt_kb (Labeler.pid_table_byte_size labeler);
              Printf.sprintf "%s (uncompressed %s)"
                (fmt_kb (Pid_tree.byte_size tree))
                (fmt_kb (Pid_tree.uncompressed_byte_size tree));
            ])
          envs;
    }

let histo_size_range envs ~get =
  List.map
    (fun env ->
      let sizes =
        List.map
          (fun v -> get env v)
          variance_sweep
      in
      let lo = List.fold_left min (List.hd sizes) sizes in
      let hi = List.fold_left max (List.hd sizes) sizes in
      (env, lo, hi))
    envs

let table4 envs =
  let rows =
    List.concat_map
      (fun (env, lo, hi) ->
        (* p-histogram build time at variance 0 (the largest) *)
        let base = Env.base env in
        let pf = Summary.pf_table base in
        let _, p_time =
          Env.time (fun () -> P_histogram.build_all ~variance:0.0 pf)
        in
        (* XSketch at a budget matching our total memory *)
        let s = Env.summary env ~p_variance:0.0 ~o_variance:0.0 ~with_order:false in
        let budget = Summary.total_bytes s in
        let sk, sk_time =
          Env.time (fun () -> Xsketch.build ~budget_bytes:budget (Env.doc env))
        in
        [
          [
            dsname env ^ " (this paper)";
            Tablefmt.fmt_seconds (Env.collect_paths_seconds env);
            Printf.sprintf "%s ~ %s KB" (fmt_kb lo) (fmt_kb hi);
            Tablefmt.fmt_seconds p_time;
          ];
          [
            dsname env ^ " (XSketch)";
            "-";
            Printf.sprintf "%s KB (%d classes)"
              (fmt_kb (Xsketch.byte_size sk))
              (Xsketch.num_classes sk);
            Tablefmt.fmt_seconds sk_time;
          ];
        ])
      (histo_size_range envs ~get:(fun env v ->
           Summary.p_histogram_bytes
             (Env.summary env ~p_variance:v ~o_variance:0.0 ~with_order:false)))
  in
  Table
    {
      id = "T4";
      title = "Construction Time for Queries without Order Axes";
      header = [ "Dataset"; "Collecting Time"; "Statistics Size"; "Build Time" ];
      rows;
    }

let table5 envs =
  let rows =
    List.map
      (fun (env, lo, hi) ->
        (* time at an off-sweep variance so memoization cannot hide
           the build cost *)
        let _, o_time =
          Env.time (fun () ->
              Env.summary env ~p_variance:0.0 ~o_variance:3.0 ~with_order:true)
        in
        [
          dsname env;
          Tablefmt.fmt_seconds (Env.collect_order_seconds env);
          Printf.sprintf "%s ~ %s KB" (fmt_kb lo) (fmt_kb hi);
          Tablefmt.fmt_seconds o_time;
        ])
      (histo_size_range envs ~get:(fun env v ->
           Summary.o_histogram_bytes
             (Env.summary env ~p_variance:0.0 ~o_variance:v ~with_order:true)))
  in
  Table
    {
      id = "T5";
      title = "Construction Time for Order Data";
      header =
        [ "Dataset"; "Collecting Order Time"; "O-Histo Size"; "O-Histo Build Time" ];
      rows;
    }

(* ------------------------------------------------------------------ *)

let figure9 envs =
  Figures
    (List.map
       (fun env ->
         let p_points =
           List.map
             (fun v ->
               ( v,
                 kb
                   (Summary.p_histogram_bytes
                      (Env.summary env ~p_variance:v ~o_variance:0.0
                         ~with_order:false)) ))
             variance_sweep
         in
         let o_points =
           List.map
             (fun v ->
               ( v,
                 kb
                   (Summary.o_histogram_bytes
                      (Env.summary env ~p_variance:0.0 ~o_variance:v
                         ~with_order:true)) ))
             variance_sweep
         in
         {
           fid = "F9/" ^ dsname env;
           ftitle =
             Printf.sprintf "P- and O-Histogram Memory Usage (%s)" (dsname env);
           x_label = "intra-bucket variance";
           y_label = "memory (KB)";
           series = [ ("P-Histo", p_points); ("O-Histo", o_points) ];
         })
       envs)

let figure10 envs =
  Figures
    (List.map
       (fun env ->
         let points select =
           List.map
             (fun v ->
               let s =
                 Env.summary env ~p_variance:v ~o_variance:0.0 ~with_order:false
               in
               let est = Env.estimator env ~p_variance:v ~o_variance:0.0 ~with_order:false in
               let x = kb (Summary.p_histogram_bytes s) in
               ( x,
                 Metrics.mean_rel_error_batch (select env)
                   (Estimator.estimate_many est) ))
             variance_sweep
         in
         let simple = points (fun e -> Env.queries e `Simple) in
         let branch = points (fun e -> Env.queries e `Branch) in
         let all =
           points (fun e -> Env.queries e `Simple @ Env.queries e `Branch)
         in
         {
           fid = "F10/" ^ dsname env;
           ftitle =
             Printf.sprintf "Estimation Error of Queries without Order Axes (%s)"
               (dsname env);
           x_label = "p-histogram memory (KB)";
           y_label = "relative error";
           series =
             [
               ("simple queries", simple);
               ("branch queries", branch);
               ("all queries", all);
             ];
         })
       envs)

let figure11 envs =
  Figures
    (List.map
       (fun env ->
         let queries = Env.queries env `Simple @ Env.queries env `Branch in
         let ours =
           List.map
             (fun v ->
               let s =
                 Env.summary env ~p_variance:v ~o_variance:0.0 ~with_order:false
               in
               let est =
                 Env.estimator env ~p_variance:v ~o_variance:0.0 ~with_order:false
               in
               ( kb (Summary.total_bytes s),
                 Metrics.mean_rel_error_batch queries
                   (Estimator.estimate_many est) ))
             variance_sweep
         in
         (* XSketch across a budget range spanning ours *)
         let budgets =
           let xs = List.map fst ours in
           let lo = List.fold_left min (List.hd xs) xs in
           let hi = List.fold_left max (List.hd xs) xs in
           [ lo *. 0.5; lo; (lo +. hi) /. 2.0; hi; hi *. 1.5 ]
         in
         let sketch =
           List.map
             (fun b ->
               let sk =
                 Xsketch.build
                   ~budget_bytes:(int_of_float (b *. 1024.0))
                   (Env.doc env)
               in
               ( kb (Xsketch.byte_size sk),
                 Metrics.mean_rel_error queries (Xsketch.estimate sk) ))
             budgets
         in
         {
           fid = "F11/" ^ dsname env;
           ftitle = Printf.sprintf "P-Histogram vs XSketch (%s)" (dsname env);
           x_label = "total memory usage (KB)";
           y_label = "relative error";
           series = [ ("p-histo", ours); ("xsketch", sketch) ];
         })
       envs)

let order_figure ~fid ~title ~cls envs =
  let p_variances = [ 0.0; 1.0; 5.0; 10.0 ] in
  let o_variances = [ 0.0; 1.0; 2.0; 4.0; 8.0; 14.0 ] in
  Figures
    (List.map
       (fun env ->
         let series =
           List.map
             (fun pv ->
               let points =
                 List.map
                   (fun ov ->
                     let s =
                       Env.summary env ~p_variance:pv ~o_variance:ov
                         ~with_order:true
                     in
                     let est =
                       Env.estimator env ~p_variance:pv ~o_variance:ov
                         ~with_order:true
                     in
                     ( kb (Summary.o_histogram_bytes s),
                       Metrics.mean_rel_error_batch (Env.queries env cls)
                         (Estimator.estimate_many est) ))
                   o_variances
               in
               (Printf.sprintf "p-histo.v=%s" (fmt pv), points))
             p_variances
         in
         {
           fid = fid ^ "/" ^ dsname env;
           ftitle = Printf.sprintf "%s (%s)" title (dsname env);
           x_label = "o-histogram memory (KB)";
           y_label = "relative error";
           series;
         })
       envs)

let figure12 =
  order_figure ~fid:"F12"
    ~title:"Estimation Error of Queries with Order Axes (Branch Part)"
    ~cls:`Order_branch

let figure13 =
  order_figure ~fid:"F13"
    ~title:"Estimation Error of Queries with Order Axes (Trunk Part)"
    ~cls:`Order_trunk

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)

let ablation_order envs =
  let rows =
    List.concat_map
      (fun env ->
        let est = Env.estimator env ~p_variance:0.0 ~o_variance:0.0 ~with_order:true in
        let order_blind q =
          Estimator.estimate est
            (Xpest_xpath.Pattern.v
               (Xpest_xpath.Pattern.counterpart (Xpest_xpath.Pattern.shape q))
               (Xpest_xpath.Pattern.counterpart_position
                  (Xpest_xpath.Pattern.target q)))
        in
        let s = Env.summary env ~p_variance:0.0 ~o_variance:0.0 ~with_order:true in
        let budget = Summary.total_bytes s + Summary.o_histogram_bytes s in
        let sk = Xsketch.build ~budget_bytes:budget (Env.doc env) in
        let ph = Xpest_baseline.Position_histogram.build (Env.doc env) in
        List.map
          (fun (cls, label) ->
            let queries = Env.queries env cls in
            let err f = Printf.sprintf "%.4f" (Metrics.mean_rel_error queries f) in
            [
              dsname env ^ " / " ^ label;
              Printf.sprintf "%.4f"
                (Metrics.mean_rel_error_batch queries
                   (Estimator.estimate_many est));
              err order_blind;
              err (Xsketch.estimate sk);
              err (Xpest_baseline.Position_histogram.estimate ph);
            ])
          [ (`Order_branch, "branch target"); (`Order_trunk, "trunk target") ])
      envs
  in
  Table
    {
      id = "A1";
      title = "Ablation: value of the order statistics (mean relative error)";
      header =
        [ "Dataset / class"; "order-aware"; "order-blind"; "xsketch"; "pos-histo" ];
      rows;
    }

let ablation_chain_pruning envs =
  let rows =
    List.map
      (fun env ->
        let s = Env.summary env ~p_variance:0.0 ~o_variance:0.0 ~with_order:false in
        let with_cp = Estimator.create ~chain_pruning:true s in
        let without_cp = Estimator.create ~chain_pruning:false s in
        let queries = Env.queries env `Simple @ Env.queries env `Branch in
        let err e =
          Printf.sprintf "%.4f"
            (Metrics.mean_rel_error_batch queries (Estimator.estimate_many e))
        in
        [ dsname env; err without_cp; err with_cp ])
      envs
  in
  Table
    {
      id = "A2";
      title =
        "Ablation: chain-feasibility pruning in the path join (order-free \
         workload, mean relative error)";
      header = [ "Dataset"; "pairwise join (paper)"; "chain-pruned join" ];
      rows;
    }

(* ------------------------------------------------------------------ *)
(* Serving.                                                             *)

(* S1 — the serving layer: one catalog over every (dataset, variance)
   summary with a resident capacity one short of the key count, so the
   batch evicts and reloads mid-run, versus a loop that rebuilds a
   fresh single-summary estimator per key.  The loop doubles as the
   bit-identity reference.  The batch runs forward then reversed: a
   cyclic scan is LRU's worst case (every access misses), the reverse
   pass exercises the resident-hit path.  Throughput is the ledger's
   (perfbench/ serve-hot and serve-churn), not this table's. *)
let serving envs =
  let variances = [ 0.0; 2.0 ] in
  let loader (k : Catalog.key) =
    let env =
      List.find (fun env -> String.equal (dsname env) k.Catalog.dataset) envs
    in
    Env.summary env ~p_variance:k.Catalog.variance
      ~o_variance:k.Catalog.variance ~with_order:true
  in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun env ->
           let patterns =
             Workload.patterns
               (Env.queries env `Simple @ Env.queries env `Branch
               @ Env.queries env `Order_branch
               @ Env.queries env `Order_trunk)
           in
           List.concat_map
             (fun v ->
               Array.to_list
                 (Array.map
                    (fun q ->
                      ({ Catalog.dataset = dsname env; variance = v }, q))
                    patterns))
             variances)
         envs)
  in
  let n = Array.length pairs in
  let rev_pairs =
    Array.init n (fun i -> pairs.(n - 1 - i))
  in
  let nkeys = List.length envs * List.length variances in
  let capacity = max 1 (nkeys - 1) in
  (* reference: a fresh estimator per key per pass — serving the same
     batches without a catalog, and the identity oracle *)
  let reference () =
    let out = Array.make n 0.0 in
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun (k, _) ->
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          let est = Estimator.create (loader k) in
          Array.iteri
            (fun j (k', q) -> if k' = k then out.(j) <- Estimator.estimate est q)
            pairs
        end)
      pairs;
    out
  in
  let make_catalog () =
    Catalog.create_r ~resident_capacity:capacity
      ~loader:(fun k -> Ok (loader k))
      ()
  in
  (* result passes, counters off *)
  let cat = make_catalog () in
  let routed = Catalog.estimate_batch_r cat pairs in
  let routed_rev = Catalog.estimate_batch_r cat rev_pairs in
  let cstats : Catalog.stats = Catalog.stats cat in
  let loop = reference () in
  let same r v =
    match r with
    | Ok x -> Int64.bits_of_float x = Int64.bits_of_float v
    | Error _ -> false
  in
  let identical = ref true in
  Array.iteri
    (fun i r ->
      if not (same r loop.(i) && same routed_rev.(n - 1 - i) loop.(i)) then
        identical := false)
    routed;
  (* metrics passes, counters on: the pool-shared plan cache turns the
     second variance of each dataset into pure plan hits *)
  let counter name =
    match List.assoc_opt name (Counters.counters ()) with
    | Some v -> v
    | None -> 0
  in
  let plan_counts run =
    Counters.with_enabled (fun () ->
        run ();
        (counter "estimator.plan_cache.hit", counter "estimator.plan_cache.miss"))
  in
  let routed_hits, routed_misses =
    plan_counts (fun () ->
        let cat = make_catalog () in
        ignore (Catalog.estimate_batch_r cat pairs);
        ignore (Catalog.estimate_batch_r cat rev_pairs))
  in
  let loop_hits, loop_misses =
    plan_counts (fun () ->
        ignore (reference ());
        ignore (reference ()))
  in
  let i2 = string_of_int in
  Table
    {
      id = "S1";
      title =
        Printf.sprintf
          "Serving: routed catalog vs per-summary loop (%d summaries, \
           resident capacity %d, 2 passes)"
          nkeys capacity;
      header = [ "measure"; "routed catalog"; "per-summary loop" ];
      rows =
        [
          [ "routed queries"; i2 (2 * n); i2 (2 * n) ];
          [ "distinct summaries"; i2 nkeys; i2 nkeys ];
          [ "summary loads"; i2 cstats.Catalog.loads; i2 (2 * nkeys) ];
          [ "summary pool hits"; i2 cstats.Catalog.hits; "0" ];
          [ "summary evictions"; i2 cstats.Catalog.evictions; "n/a" ];
          [ "plan compiles (cache misses)"; i2 routed_misses; i2 loop_misses ];
          [ "plan-cache hits"; i2 routed_hits; i2 loop_hits ];
          [
            "bit-identical to fresh estimator";
            (if !identical then "yes" else "NO");
            "reference";
          ];
        ];
    }

let all_ids =
  [ "t1"; "t2"; "t3"; "t4"; "t5"; "f9"; "f10"; "f11"; "f12"; "f13"; "a1"; "a2";
    "s1" ]

let run envs id =
  match String.lowercase_ascii id with
  | "t1" -> table1 envs
  | "t2" -> table2 envs
  | "t3" -> table3 envs
  | "t4" -> table4 envs
  | "t5" -> table5 envs
  | "f9" -> figure9 envs
  | "f10" -> figure10 envs
  | "f11" -> figure11 envs
  | "f12" -> figure12 envs
  | "f13" -> figure13 envs
  | "a1" -> ablation_order envs
  | "a2" -> ablation_chain_pruning envs
  | "s1" -> serving envs
  | other -> invalid_arg (Printf.sprintf "Experiments.run: unknown id %S" other)
