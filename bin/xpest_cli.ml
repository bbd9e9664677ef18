(* xpest: command-line front end to the estimation system.

   Subcommands:
     generate    write a synthetic dataset as XML
     stats       show document / synopsis statistics
     synopsis    save, load and inspect synopsis files
     catalog     build and serve many synopses behind one routing service
     plan        print the compiled query-plan IR of XPath patterns
     estimate    estimate the selectivity of XPath patterns
     workload    generate and summarize a query workload

   The paper's tables and figures are reproduced by bench/main.exe. *)

module Registry = Xpest_datasets.Registry
module Doc = Xpest_xml.Doc
module Pattern = Xpest_xpath.Pattern
module Truth = Xpest_xpath.Truth
module Summary = Xpest_synopsis.Summary
module Labeler = Xpest_encoding.Labeler
module Pid_tree = Xpest_encoding.Pid_tree
module Plan = Xpest_plan.Plan
module Estimator = Xpest_estimator.Estimator
module Workload = Xpest_workload.Workload
module Tablefmt = Xpest_util.Tablefmt
module Counters = Xpest_util.Counters
module Loader_pool = Xpest_util.Loader_pool
module Cache_config = Xpest_plan.Cache_config
module Fault = Xpest_util.Fault
module E = Xpest_util.Xpest_error
module Synopsis_io = Xpest_synopsis.Synopsis_io
module Manifest = Xpest_synopsis.Manifest
module Sketch = Xpest_synopsis.Sketch
module Catalog = Xpest_catalog.Catalog
module Admission = Xpest_catalog.Admission
module Metrics = Xpest_harness.Metrics

open Cmdliner

(* ---------------- shared arguments ---------------- *)

let source_conv =
  let parse s =
    match Registry.of_string s with
    | Some name -> Ok (`Dataset name)
    | None ->
        if Sys.file_exists s then Ok (`File s)
        else
          Error
            (`Msg
               (Printf.sprintf
                  "%S is neither a dataset (ssplays|dblp|xmark) nor a file" s))
  in
  let print ppf = function
    | `Dataset name -> Format.pp_print_string ppf (Registry.to_string name)
    | `File f -> Format.pp_print_string ppf f
  in
  Arg.conv (parse, print)

let source =
  Arg.(
    required
    & pos 0 (some source_conv) None
    & info [] ~docv:"SOURCE" ~doc:"Dataset name (ssplays|dblp|xmark) or an XML file.")

let scale =
  Arg.(
    value & opt float 0.1
    & info [ "scale" ] ~docv:"S"
        ~doc:"Scale factor for synthetic datasets (1.0 = paper-size).")

let seed =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"N" ~doc:"Generator seed (default per dataset).")

let p_variance_arg =
  Arg.(value & opt float 0.0 & info [ "p-variance" ] ~docv:"V" ~doc:"P-histogram variance.")

let o_variance_arg =
  Arg.(value & opt float 0.0 & info [ "o-variance" ] ~docv:"V" ~doc:"O-histogram variance.")

let load_doc source ~scale ~seed =
  match source with
  | `Dataset name -> Registry.generate ~scale ?seed name
  | `File path -> Doc.of_tree (Xpest_xml.Parser.parse_file path)

(* ---------------- generate ---------------- *)

let generate_cmd =
  let run source scale seed output =
    let tree =
      match source with
      | `Dataset name -> Registry.generate_tree ~scale ?seed name
      | `File path -> Xpest_xml.Parser.parse_file path
    in
    match output with
    | Some path ->
        Xpest_xml.Printer.to_file path tree;
        Printf.printf "wrote %s (%d elements)\n" path (Xpest_xml.Tree.size tree)
    | None -> print_string (Xpest_xml.Printer.to_string tree)
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic dataset as XML.")
    Term.(const run $ source $ scale $ seed $ output)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let run source scale seed p_variance o_variance =
    let doc = load_doc source ~scale ~seed in
    let s = Summary.build ~p_variance ~o_variance doc in
    let labeler = Summary.labeler s in
    let pid_tree =
      Pid_tree.build (Array.to_list (Labeler.distinct_pids labeler))
    in
    let rows =
      [
        [ "elements"; string_of_int (Doc.size doc) ];
        [ "distinct tags"; string_of_int (Doc.num_tags doc) ];
        [ "serialized size"; Tablefmt.fmt_bytes (Doc.serialized_byte_size doc) ];
        [ "max depth"; string_of_int (Doc.max_depth doc) ];
        [
          "distinct root-to-leaf paths";
          string_of_int (Summary.num_paths s);
        ];
        [ "path id size"; Printf.sprintf "%d bytes" (Labeler.pid_byte_size labeler) ];
        [ "distinct path ids"; string_of_int (Labeler.num_distinct labeler) ];
        [ "encoding table"; Tablefmt.fmt_bytes (Summary.encoding_table_bytes s) ];
        [ "path id table"; Tablefmt.fmt_bytes (Labeler.pid_table_byte_size labeler) ];
        [
          "pid binary tree";
          Printf.sprintf "%s (uncompressed %s)"
            (Tablefmt.fmt_bytes (Pid_tree.byte_size pid_tree))
            (Tablefmt.fmt_bytes (Pid_tree.uncompressed_byte_size pid_tree));
        ];
        [
          Printf.sprintf "p-histograms (v=%g)" p_variance;
          Tablefmt.fmt_bytes (Summary.p_histogram_bytes s);
        ];
        [
          Printf.sprintf "o-histograms (v=%g)" o_variance;
          Tablefmt.fmt_bytes (Summary.o_histogram_bytes s);
        ];
        [ "total (enc + tree + p-histo)"; Tablefmt.fmt_bytes (Summary.total_bytes s) ];
      ]
    in
    print_endline
      (Tablefmt.render_table ~header:[ "statistic"; "value" ]
         ~align:[ Tablefmt.Left; Tablefmt.Right ]
         rows)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show document and synopsis statistics.")
    Term.(const run $ source $ scale $ seed $ p_variance_arg $ o_variance_arg)

(* ---------------- synopsis save / load / info ---------------- *)

let synopsis_save source scale seed p_variance o_variance output =
  let doc = load_doc source ~scale ~seed in
  let s = Summary.build ~p_variance ~o_variance doc in
  Summary.save s output;
  Printf.printf "wrote %s (%s: p-histograms %s, o-histograms %s)\n" output
    (Tablefmt.fmt_bytes
       (let st = Unix.stat output in
        st.Unix.st_size))
    (Tablefmt.fmt_bytes (Summary.p_histogram_bytes s))
    (Tablefmt.fmt_bytes (Summary.o_histogram_bytes s))

let synopsis_output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Synopsis output file.")

let synopsis_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"A synopsis file written by `synopsis save`.")

(* Operational failures keep a one-line contract: `xpest: <error>` on
   stderr, exit 1.  Typed errors render as kind: path [section]: reason
   (see README "Error handling"). *)
let or_die_e = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("xpest: " ^ E.to_string e);
      exit 1

(* A query outside the fragment is an input error under the same
   contract; [where] locates it in a query file. *)
let parse_query ?where qs =
  match Pattern.of_string qs with
  | q -> q
  | exception Invalid_argument msg ->
      prerr_endline
        (match where with
        | Some where -> Printf.sprintf "xpest: %s: %s" where msg
        | None -> "xpest: " ^ msg);
      exit 1

(* Bucket/box counts per histogram family: the numbers variance-target
   tuning turns (higher variance -> fewer buckets -> smaller synopsis,
   larger error). *)
let histogram_rows s =
  let describe what unit counts =
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
    let largest =
      List.fold_left
        (fun (bt, bn) (t, n) -> if n > bn then (t, n) else (bt, bn))
        ("-", 0) counts
    in
    if counts = [] then [ [ what ^ "s"; "none" ] ]
    else
      [
        [
          what ^ "s";
          Printf.sprintf "%d tags, %d %s" (List.length counts) total unit;
        ];
        [
          "largest " ^ what;
          Printf.sprintf "%s (%d %s)" (fst largest) (snd largest) unit;
        ];
      ]
  in
  describe "p-histogram" "buckets" (Summary.p_histogram_buckets s)
  @ describe "o-histogram" "boxes" (Summary.o_histogram_boxes s)

let manifest_entry_rows m =
  List.map
    (fun (e : Manifest.entry) ->
      [
        Catalog.key_to_string
          { Catalog.dataset = e.Manifest.dataset; variance = e.Manifest.variance };
        e.Manifest.file;
        Tablefmt.fmt_bytes e.Manifest.bytes;
        Printf.sprintf "%016Lx" e.Manifest.checksum;
      ])
    m.Manifest.entries

let synopsis_info_cmd =
  let run file =
    let i = or_die_e (Synopsis_io.info_typed file) in
    let kind = Synopsis_io.kind i in
    let decodable = i.Synopsis_io.supported && i.Synopsis_io.checksum_ok in
    let rows =
      [
        [ "file"; i.Synopsis_io.path ];
        [
          "kind";
          (match kind with
          | `Synopsis -> "synopsis"
          | `Catalog_manifest -> "catalog manifest"
          | `Sketch -> "fallback sketch"
          | `Unknown -> "unknown");
        ];
        [ "wire format version"; string_of_int i.Synopsis_io.version ];
        [ "supported"; (if i.Synopsis_io.supported then "yes" else "no") ];
        [
          "on-disk size";
          Printf.sprintf "%s (%d bytes)"
            (Tablefmt.fmt_bytes i.Synopsis_io.total_bytes)
            i.Synopsis_io.total_bytes;
        ];
        [ "checksum (fnv1a64)"; Printf.sprintf "%016Lx" i.Synopsis_io.checksum ];
        [ "checksum ok"; (if i.Synopsis_io.checksum_ok then "yes" else "NO") ];
      ]
      @ List.map
          (fun (name, bytes) ->
            [ "section " ^ name; Tablefmt.fmt_bytes bytes ])
          i.Synopsis_io.sections
      @ (if i.Synopsis_io.checksum_ok then
           [ [ "container overhead"; Tablefmt.fmt_bytes (Synopsis_io.overhead_bytes i) ] ]
         else [])
      @
      match kind with
      | `Synopsis when decodable ->
          histogram_rows (or_die_e (Synopsis_io.load_typed file))
      | `Sketch when decodable ->
          let sk = or_die_e (Sketch.load_typed file) in
          [
            [ "distinct tags"; string_of_int (Sketch.num_tags sk) ];
            [ "total elements"; string_of_int (Sketch.total_elements sk) ];
          ]
      | `Synopsis | `Catalog_manifest | `Sketch | `Unknown -> []
    in
    print_endline
      (Tablefmt.render_table ~header:[ "field"; "value" ]
         ~align:[ Tablefmt.Left; Tablefmt.Right ]
         rows);
    (match kind with
    | `Catalog_manifest when decodable ->
        let m = or_die_e (Manifest.load_typed file) in
        print_newline ();
        print_endline
          (Tablefmt.render_table
             ~header:[ "key"; "file"; "size"; "checksum" ]
             ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ]
             (manifest_entry_rows m))
    | `Synopsis | `Catalog_manifest | `Sketch | `Unknown -> ());
    if not i.Synopsis_io.checksum_ok then begin
      prerr_endline "xpest: checksum mismatch - file is corrupted or truncated";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Report a synopsis or catalog-manifest file's version, checksum, \
             per-component sizes, per-histogram bucket counts and (for \
             manifests) the entry table.")
    Term.(const run $ synopsis_file_arg)

let synopsis_load_cmd =
  let run file metrics =
    let work () =
      let s = or_die_e (Synopsis_io.load_typed file) in
      let rows =
        [
          [ "distinct tags"; string_of_int (Array.length (Summary.tags s)) ];
          [
            "distinct root-to-leaf paths";
            string_of_int (Summary.num_paths s);
          ];
          [ "p-variance"; Printf.sprintf "%g" (Summary.p_variance s) ];
          [ "o-variance"; Printf.sprintf "%g" (Summary.o_variance s) ];
          [ "p-histograms"; Tablefmt.fmt_bytes (Summary.p_histogram_bytes s) ];
          [ "o-histograms"; Tablefmt.fmt_bytes (Summary.o_histogram_bytes s) ];
          [ "total (modeled)"; Tablefmt.fmt_bytes (Summary.total_bytes s) ];
        ]
      in
      print_endline
        (Tablefmt.render_table ~header:[ "statistic"; "value" ]
           ~align:[ Tablefmt.Left; Tablefmt.Right ]
           rows)
    in
    if metrics then begin
      Metrics.with_counters work;
      Printf.printf "\nObservability counters:\n%s" (Metrics.render_counters ())
    end
    else work ()
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print observability counters.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Load a synopsis file (verifying its checksum) and print its \
             statistics.")
    Term.(const run $ synopsis_file_arg $ metrics)

let synopsis_cmd =
  Cmd.group
    (Cmd.info "synopsis"
       ~doc:"Persist and inspect estimation synopses.")
    [
      Cmd.v
        (Cmd.info "save"
           ~doc:"Build the estimation synopsis and persist it to disk.")
        Term.(
          const synopsis_save $ source $ scale $ seed $ p_variance_arg $ o_variance_arg
          $ synopsis_output_arg);
      synopsis_load_cmd;
      synopsis_info_cmd;
    ]

(* ---------------- catalog ---------------- *)

let key_conv =
  let parse s =
    match Catalog.key_of_string s with
    | Ok k -> Ok k
    | Error msg -> Error (`Msg msg)
  in
  let print ppf k = Format.pp_print_string ppf (Catalog.key_to_string k) in
  Arg.conv (parse, print)

let catalog_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Catalog directory (holds synopsis files and \
                                the $(b,catalog.manifest)).")

let manifest_path dir = Filename.concat dir Catalog.manifest_filename

let load_manifest dir =
  let path = manifest_path dir in
  if Sys.file_exists path then or_die_e (Manifest.load_typed path)
  else begin
    prerr_endline
      (Printf.sprintf "xpest: no %s in %s (run `xpest catalog build` first)"
         Catalog.manifest_filename dir);
    exit 1
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let catalog_build_cmd =
  let run dir keys scale seed =
    mkdir_p dir;
    let manifest = ref (
      let path = manifest_path dir in
      if Sys.file_exists path then or_die_e (Manifest.load_typed path)
      else Manifest.empty)
    in
    (* one generated document per dataset, shared across its variances *)
    let docs = Hashtbl.create 4 in
    let doc_of dataset =
      match Hashtbl.find_opt docs dataset with
      | Some doc -> doc
      | None ->
          let name =
            match Registry.of_string dataset with
            | Some name -> name
            | None ->
                prerr_endline
                  (Printf.sprintf
                     "xpest: %S is not a dataset (ssplays|dblp|xmark)" dataset);
                exit 1
          in
          let doc = Registry.generate ~scale ?seed name in
          Hashtbl.add docs dataset doc;
          doc
    in
    List.iter
      (fun (key : Catalog.key) ->
        let doc = doc_of key.Catalog.dataset in
        let s =
          Summary.build ~p_variance:key.Catalog.variance
            ~o_variance:key.Catalog.variance doc
        in
        manifest := Catalog.save_entry ~dir !manifest key s;
        let e =
          match
            Manifest.find !manifest ~dataset:key.Catalog.dataset
              ~variance:key.Catalog.variance
          with
          | Some e -> e
          | None -> assert false
        in
        Printf.printf "built %s -> %s (%s)\n%!"
          (Catalog.key_to_string key)
          e.Manifest.file
          (Tablefmt.fmt_bytes e.Manifest.bytes))
      keys;
    (* one fallback sketch per distinct dataset — the degradation
       ladder's last rung, built from the same generated document the
       summaries came from *)
    let datasets =
      List.sort_uniq String.compare
        (List.map (fun (k : Catalog.key) -> k.Catalog.dataset) keys)
    in
    List.iter
      (fun dataset ->
        let sketch = Sketch.build (doc_of dataset) in
        manifest := Catalog.save_sketch ~dir !manifest dataset sketch;
        let e =
          match Manifest.find_sketch !manifest ~dataset with
          | Some e -> e
          | None -> assert false
        in
        Printf.printf "built %s sketch -> %s (%s)\n%!" dataset
          e.Manifest.s_file
          (Tablefmt.fmt_bytes e.Manifest.s_bytes))
      datasets;
    Manifest.save !manifest (manifest_path dir);
    Printf.printf "wrote %s (%d entries, %d sketches)\n" (manifest_path dir)
      (List.length !manifest.Manifest.entries)
      (List.length !manifest.Manifest.sketches)
  in
  let keys =
    Arg.(
      non_empty
      & pos_right 0 key_conv []
      & info [] ~docv:"KEY"
          ~doc:
            "Catalog keys as $(i,dataset)[@$(i,variance)], e.g. dblp@2; a \
             bare dataset means variance 0.  The variance is used for both \
             histogram families.")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Build synopsis files for the given (dataset, variance) keys and \
             write/extend the catalog manifest.")
    Term.(const run $ catalog_dir_arg $ keys $ scale $ seed)

(* One rendering of the loader circuit breaker's state, shared by
   `catalog estimate` stats output and `catalog info --health`. *)
let render_breaker (bv : Admission.breaker_view) =
  match bv.Admission.state with
  | `Closed -> "closed"
  | `Half_open -> "half-open (probe in flight)"
  | `Open ->
      Printf.sprintf "OPEN (probe in %d tick(s), cooldown %d)"
        bv.Admission.remaining_ticks bv.Admission.cooldown

let catalog_info_cmd =
  let run dir health =
    let m = load_manifest dir in
    (* one row per manifest record, synopses then sketches, each
       checked by the serving loader's own typed verification (header
       parse, size and body checksum against the manifest) *)
    let rows =
      List.map
        (fun (e : Manifest.entry) ->
          let key =
            {
              Catalog.dataset = e.Manifest.dataset;
              variance = e.Manifest.variance;
            }
          in
          ( Catalog.key_to_string key, e.Manifest.file, e.Manifest.bytes,
            e.Manifest.checksum, Catalog.manifest_verify ~dir m key ))
        m.Manifest.entries
      @ List.map
          (fun (e : Manifest.sketch_entry) ->
            ( e.Manifest.s_dataset ^ " (sketch)", e.Manifest.s_file,
              e.Manifest.s_bytes, e.Manifest.s_checksum,
              Result.map ignore (Catalog.sketch_check ~dir e) ))
          m.Manifest.sketches
    in
    let status = function
      | Ok () -> "ok"
      | Error err -> String.uppercase_ascii (E.kind err)
    in
    if health then begin
      print_endline
        (Tablefmt.render_table
           ~header:[ "key"; "file"; "status"; "detail" ]
           ~align:
             [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Left; Tablefmt.Left ]
           (List.map
              (fun (key, file, _, _, r) ->
                let detail =
                  match r with Ok () -> "" | Error err -> E.to_string err
                in
                [ key; file; status r; detail ])
              rows));
      (* what full residency would cost: the wire bytes of every entry,
         the number to size --resident-bytes against *)
      let total_bytes =
        List.fold_left
          (fun acc (e : Manifest.entry) -> acc + e.Manifest.bytes)
          0 m.Manifest.entries
      in
      Printf.printf
        "catalog: %d entries, %s wire bytes if fully resident\n"
        (List.length m.Manifest.entries)
        (Tablefmt.fmt_bytes total_bytes);
      (* persisted serving health, breaker included, when present *)
      let hpath = Filename.concat dir Catalog.health_filename in
      if Sys.file_exists hpath then begin
        let cat = Catalog.of_manifest ~dir m in
        match Catalog.load_health cat hpath with
        | Ok n ->
            Printf.printf "health state: %d tracked key(s); loader breaker %s\n"
              n
              (render_breaker (Catalog.breaker cat))
        | Error e ->
            Printf.printf "health state: unreadable (%s)\n" (E.to_string e)
      end;
      let unhealthy =
        List.length
          (List.filter (fun (_, _, _, _, r) -> Result.is_error r) rows)
      in
      if unhealthy > 0 then begin
        prerr_endline
          (Printf.sprintf "xpest: %d/%d catalog entries unhealthy" unhealthy
             (List.length rows));
        exit 1
      end
    end
    else
      print_endline
        (Tablefmt.render_table
           ~header:[ "key"; "file"; "size"; "checksum"; "status" ]
           ~align:
             [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
               Tablefmt.Left ]
           (List.map
              (fun (key, file, bytes, checksum, r) ->
                [ key; file; Tablefmt.fmt_bytes bytes;
                  Printf.sprintf "%016Lx" checksum; status r ])
              rows))
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:"Also print each unhealthy row's typed error, the catalog's \
                fully-resident wire size and any persisted health state; \
                exit 1 if any entry is unhealthy.")
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Show the catalog's entry table and verify each synopsis and \
             sketch file (header, size, body checksum) against its \
             manifest record.")
    Term.(const run $ catalog_dir_arg $ health)

(* A routed query file: one `key<TAB>xpath` pair per line. *)
let read_routed_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno acc =
        match input_line ic with
        | line ->
            let trimmed = String.trim line in
            let acc =
              if String.length trimmed = 0 || trimmed.[0] = '#' then acc
              else
                match String.index_opt line '\t' with
                | None ->
                    prerr_endline
                      (Printf.sprintf
                         "xpest: %s:%d: expected `key<TAB>xpath`" path lineno);
                    exit 1
                | Some i ->
                    let keys = String.trim (String.sub line 0 i) in
                    let qs =
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    in
                    let key =
                      match Catalog.key_of_string keys with
                      | Ok k -> k
                      | Error msg ->
                          prerr_endline
                            (Printf.sprintf "xpest: %s:%d: %s" path lineno msg);
                          exit 1
                    in
                    (key, parse_query ~where:(Printf.sprintf "%s:%d" path lineno) qs)
                    :: acc
            in
            loop (lineno + 1) acc
        | exception End_of_file -> List.rev acc
      in
      loop 1 [])

let run_catalog_estimate dir queries_file resident resident_bytes sketch_bytes
    pins metrics fault_rate fault_seed load_domains health_state
    deadline max_queued_loads breaker_threshold =
    (* one typed one-line error contract for every count-valued knob *)
    let require_at_least_1 flag v =
      if v < 1 then begin
        prerr_endline
          (Printf.sprintf "xpest: --%s must be at least 1 (got %d)" flag v);
        exit 1
      end
    in
    require_at_least_1 "load-domains" load_domains;
    require_at_least_1 "resident" resident;
    Option.iter (require_at_least_1 "resident-bytes") resident_bytes;
    Option.iter (require_at_least_1 "sketch-bytes") sketch_bytes;
    Option.iter (require_at_least_1 "deadline") deadline;
    Option.iter (require_at_least_1 "max-queued-loads") max_queued_loads;
    Option.iter (require_at_least_1 "breaker-threshold") breaker_threshold;
    let admission =
      { Admission.deadline; max_queued_loads; breaker_threshold }
    in
    let admission_active =
      deadline <> None || max_queued_loads <> None || breaker_threshold <> None
    in
    let pairs = Array.of_list (read_routed_file queries_file) in
    if Array.length pairs = 0 then begin
      prerr_endline "xpest: no routed queries in the file";
      exit 1
    end;
    let m = load_manifest dir in
    (* --fault-rate substitutes a fault-injecting storage interface: a
       reproducible chaos demo of the quarantine machinery and the
       degradation ladder.  With loads fanned out, the schedule must
       not depend on cross-key read order — the keyed injector
       (per-path deterministic) keeps the demo reproducible at any
       --load-domains. *)
    let io =
      if fault_rate <= 0.0 then None
      else
        let cfg = Fault.uniform ~seed:fault_seed ~rate:fault_rate in
        let injector =
          if load_domains > 1 then Fault.create_keyed cfg else Fault.create cfg
        in
        Some (Fault.io injector Fault.Io.default)
    in
    (* --resident-bytes switches the resident set from a summary count
       to an exact wire-byte budget *)
    let config =
      match resident_bytes with
      | None -> None
      | Some b ->
          Some { Cache_config.default with Cache_config.resident_bytes = Some b }
    in
    let cat =
      Catalog.of_manifest ~resident_capacity:resident ?config ?io ?sketch_bytes
        ~admission ~dir m
    in
    (* --pin: hot keys the eviction policy must never displace *)
    List.iter
      (fun keys ->
        match Catalog.key_of_string keys with
        | Ok key -> Catalog.pin cat key
        | Error msg ->
            prerr_endline (Printf.sprintf "xpest: --pin %s: %s" keys msg);
            exit 1)
      pins;
    (* --health-state: fold persisted quarantine/backoff state in before
       the batch and write the updated state back after it, so repeated
       invocations keep skipping known-bad keys without re-probing *)
    (match health_state with
    | Some path when Sys.file_exists path ->
        let n = or_die_e (Catalog.load_health cat path) in
        Printf.printf "health: restored %d tracked key(s) from %s\n%!" n path
    | Some _ | None -> ());
    (* --load-domains > 1 adds the pipeline's loader pool: provable
       cold misses start loading before their acquire turn *)
    Loader_pool.with_pool ~domains:load_domains @@ fun loads ->
    let work () =
      let results = Catalog.estimate_batch_r ~loads cat pairs in
      let statuses = Catalog.last_batch_statuses cat in
      let failed = ref 0 in
      let first_error = ref None in
      let rows =
        Array.to_list
          (Array.mapi
             (fun i (key, q) ->
               let estimate, status =
                 match results.(i) with
                 | Ok v -> (
                     ( Tablefmt.fmt_float v,
                       (* name the answer's tier: anything below EXACT is
                          an approximation, not the asked-for summary *)
                       match statuses.(i) with
                       | Catalog.Served -> "EXACT"
                       | Catalog.Fallback sib ->
                           Printf.sprintf "FALLBACK (via %s)"
                             (Catalog.key_to_string sib)
                       | Catalog.Sketch -> "SKETCH"
                       | Catalog.Shed -> "EXACT" ))
                 | Error e ->
                     incr failed;
                     if !first_error = None then first_error := Some e;
                     ("-", String.uppercase_ascii (E.kind e))
               in
               [
                 Catalog.key_to_string key;
                 Pattern.to_string q;
                 estimate;
                 status;
               ])
             pairs)
      in
      print_endline
        (Tablefmt.render_table
           ~header:[ "key"; "query"; "estimate"; "status" ]
           ~align:
             [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Left ]
           rows);
      let s = Catalog.stats cat in
      Printf.printf
        "\ncatalog: %d/%d resident, %d loads, %d hits, %d evictions; \
         plan cache peak %d, %d evictions\n"
        s.Catalog.resident s.Catalog.resident_capacity s.Catalog.loads
        s.Catalog.hits s.Catalog.evictions
        s.Catalog.plan_cache.Xpest_util.Bounded_cache.s_peak
        s.Catalog.plan_cache.Xpest_util.Bounded_cache.s_evictions;
      Printf.printf
        "residency: %s resident%s; segments: %d protected, %d probationary, \
         %d pinned\n"
        (Tablefmt.fmt_bytes s.Catalog.resident_bytes)
        (match resident_bytes with
        | Some b -> Printf.sprintf " of %s budget" (Tablefmt.fmt_bytes b)
        | None -> "")
        s.Catalog.resident_protected s.Catalog.resident_probationary
        s.Catalog.resident_pinned;
      if s.Catalog.failures > 0 || s.Catalog.retries > 0 then
        Printf.printf "resilience: %d failures, %d retries, %d quarantines\n"
          s.Catalog.failures s.Catalog.retries s.Catalog.quarantines;
      (* the degradation ladder's answer mix: how many queries each
         rung actually served this run *)
      let answered = Array.length pairs - !failed in
      let exact_queries =
        answered - s.Catalog.fallback_queries - s.Catalog.sketch_queries
      in
      if s.Catalog.fallback_queries > 0 || s.Catalog.sketch_queries > 0 then
        Printf.printf "tiers: %d EXACT, %d FALLBACK, %d SKETCH\n"
          exact_queries s.Catalog.fallback_queries s.Catalog.sketch_queries;
      if s.Catalog.sketch_resident > 0 || s.Catalog.sketch_failures > 0 then
        Printf.printf
          "sketch tier: %d resident sketch(es), %s of %s pinned budget, %d \
           unavailable\n"
          s.Catalog.sketch_resident
          (Tablefmt.fmt_bytes s.Catalog.sketch_bytes)
          (Tablefmt.fmt_bytes s.Catalog.sketch_budget)
          s.Catalog.sketch_failures;
      if s.Catalog.skipped_directives > 0 then
        Printf.printf
          "health: %d unknown directive line(s) skipped on load\n"
          s.Catalog.skipped_directives;
      if admission_active then begin
        let a = Catalog.admission_stats cat in
        Printf.printf
          "admission: %d shed (%d deadline, %d overload, %d breaker), %d \
           served degraded\n"
          (Admission.total_sheds a)
          a.Admission.s_deadline_sheds a.Admission.s_overload_sheds
          a.Admission.s_breaker_sheds s.Catalog.shed_served_queries;
        if breaker_threshold <> None then
          Printf.printf "breaker: %s; %d open(s), %d probe(s)\n"
            (render_breaker (Catalog.breaker cat))
            a.Admission.s_breaker_opens a.Admission.s_probes
      end;
      if load_domains > 1 then
        Printf.printf
          "pipeline: %d loads started ahead of their acquire turn (%d load \
           domains)\n"
          s.Catalog.prefetched_loads load_domains;
      (* persist updated failure history even when queries failed —
         especially then: the failures are what the next run must know *)
      (match health_state with
      | Some path ->
          Catalog.save_health cat path;
          Printf.printf "health: wrote %d tracked key(s) to %s\n"
            (List.length (Catalog.health cat)) path
      | None -> ());
      if !failed > 0 then begin
        (match !first_error with
        | Some e ->
            prerr_endline
              (Printf.sprintf "xpest: %d/%d routed queries failed (first: %s)"
                 !failed (Array.length pairs) (E.to_string e))
        | None -> ());
        exit 1
      end
    in
    if metrics then begin
      Metrics.with_counters work;
      (* per-summary attribution: counter deltas bracketed around each
         routed group (Counters.delta_between) *)
      List.iter
        (fun (key, delta) ->
          Printf.printf "\ncounters for %s:\n" (Catalog.key_to_string key);
          print_string
            (Tablefmt.render_table ~header:[ "counter"; "value" ]
               ~align:[ Tablefmt.Left; Tablefmt.Right ]
               (List.map (fun (n, v) -> [ n; string_of_int v ]) delta)))
        (Catalog.last_batch_metrics cat);
      Printf.printf "\nObservability counters (whole run):\n%s"
        (Metrics.render_counters ())
    end
    else work ()

let catalog_estimate_cmd =
  let run dir queries_file resident resident_bytes sketch_bytes pins metrics
      fault_rate fault_seed load_domains health_state deadline
      max_queued_loads breaker_threshold =
    try
      run_catalog_estimate dir queries_file resident resident_bytes
        sketch_bytes pins metrics fault_rate fault_seed load_domains
        health_state deadline max_queued_loads breaker_threshold
    with Invalid_argument msg | Sys_error msg ->
      (* non-serving failures: unparseable queries, unreadable files
         (the serving path itself reports per-query typed errors) *)
      prerr_endline ("xpest: " ^ msg);
      exit 1
  in
  let queries_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Routed query file: one $(i,key)<TAB>$(i,xpath) per line (blank \
             lines and # comments skipped).  The whole file is estimated in \
             one routed batch.")
  in
  let resident =
    Arg.(
      value
      & opt int Catalog.default_resident_capacity
      & info [ "resident" ] ~docv:"N"
          ~doc:"Resident-set capacity: how many summaries stay loaded at \
                once (scan-resistant segmented LRU beyond that).  Ignored \
                when $(b,--resident-bytes) sets a byte budget instead.")
  in
  let resident_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "resident-bytes" ] ~docv:"BYTES"
          ~doc:"Bound the resident set by exact wire bytes instead of \
                summary count: summaries stay loaded while their encoded \
                sizes fit the budget, evicting probationary entries first.")
  in
  let sketch_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "sketch-bytes" ] ~docv:"BYTES"
          ~doc:"Byte budget for the pinned fallback-sketch region (default \
                256 KiB).  A hard ceiling: a manifest sketch that does not \
                fit is refused at install (counted unavailable), never \
                admitted over budget, and the resident-set evictor can \
                never reclaim the region.")
  in
  let pins =
    Arg.(
      value & opt_all string []
      & info [ "pin" ] ~docv:"KEY"
          ~doc:"Pin a summary key (repeatable): never evicted while the \
                process runs, whatever the budget pressure.  Pinned \
                summaries still count toward the budget.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print observability counters, attributed per summary.")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:"Inject storage faults (read errors, truncation, bit flips) \
                into synopsis loads with probability $(docv) per read — a \
                reproducible demonstration of the catalog's fault \
                tolerance.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Deterministic seed for the injected fault schedule.")
  in
  let load_domains =
    Arg.(
      value & opt int 1
      & info [ "load-domains" ] ~docv:"N"
          ~doc:"Fan summary loads out across $(docv) domains: cold misses \
                the pipeline can prove necessary start loading before their \
                acquire turn and overlap estimation, while eviction, \
                retry and quarantine decisions stay single-owner — results \
                are bit-identical to $(b,--load-domains 1).  Pays off when \
                a batch touches several non-resident summaries.  \
                Per-summary $(b,--metrics) attribution is unavailable in \
                pipelined runs.")
  in
  let health_state =
    Arg.(
      value
      & opt (some string) None
      & info [ "health-state" ] ~docv:"FILE"
          ~doc:"Persist the per-key failure history (quarantine deadlines, \
                backoffs, failure counts) across invocations: restore it \
                from $(docv) before the batch if the file exists, write \
                the updated state back after.  Conventionally \
                $(i,DIR)/catalog.health.")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"TICKS"
          ~doc:"Per-batch deadline budget in logical ticks: a resident hit \
                costs 1 tick, a cold load costs 8.  Queries whose modeled \
                cost no longer fits the remaining budget are shed with a \
                typed DEADLINE-EXCEEDED error before any I/O happens; a \
                catalog with fallback sketches answers them from the \
                degradation ladder instead.  Unset means unbounded.")
  in
  let max_queued_loads =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-queued-loads" ] ~docv:"N"
          ~doc:"Bound the cold summary loads one batch may admit (at least \
                1); queries beyond the bound are shed with a typed \
                OVERLOADED error.  Shedding is a deterministic function of \
                input order and the logical clock, identical at any \
                $(b,--load-domains).")
  in
  let breaker_threshold =
    Arg.(
      value
      & opt (some int) None
      & info [ "breaker-threshold" ] ~docv:"K"
          ~doc:"Open a circuit breaker over the loader after $(docv) \
                consecutive load failures (or 4 consecutive \
                queue-saturated batches): cold loads are refused while \
                open, resident keys keep serving, and a half-open probe \
                after a doubling cooldown (base 16 ticks, cap 256) decides \
                whether to close it.  Unset disables the breaker.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Route a batch of (key, query) pairs across the catalog's \
             summaries from one shared plan space.  Failed keys fail only \
             their own queries; use $(b,--fault-rate) to watch the \
             degradation behavior under injected storage faults.")
    Term.(
      const run $ catalog_dir_arg $ queries_file $ resident $ resident_bytes
      $ sketch_bytes $ pins $ metrics $ fault_rate $ fault_seed
      $ load_domains $ health_state $ deadline $ max_queued_loads
      $ breaker_threshold)

let catalog_clear_quarantine_cmd =
  let run dir keys all health_file =
    try
      (match (keys, all) with
      | [], false ->
          prerr_endline
            "xpest: clear-quarantine needs at least one KEY (or --all)";
          exit 1
      | _ :: _, true ->
          prerr_endline
            "xpest: --all discards every tracked key; do not also name keys";
          exit 1
      | _ -> ());
      let path =
        match health_file with
        | Some p -> p
        | None -> Filename.concat dir Catalog.health_filename
      in
      if not (Sys.file_exists path) then begin
        prerr_endline
          (Printf.sprintf "xpest: no health state at %s (nothing to clear)"
             path);
        exit 1
      end;
      let m = load_manifest dir in
      let cat = Catalog.of_manifest ~dir m in
      ignore (or_die_e (Catalog.load_health cat path));
      let describe (h : Catalog.key_health) =
        let state =
          match h.Catalog.h_state with
          | Catalog.Quarantined { until } ->
              Printf.sprintf "quarantined until tick %d" until
          | Catalog.Healthy -> "healthy"
        in
        Printf.printf
          "%s: cleared (was %s; %d lifetime failures, %d quarantines, next \
           backoff %d)\n"
          (Catalog.key_to_string h.Catalog.h_key)
          state h.Catalog.h_failures h.Catalog.h_quarantines
          h.Catalog.h_next_backoff
      in
      if all then begin
        match Catalog.clear_all_quarantine cat with
        | [] -> print_endline "no tracked keys (already clear)"
        | cleared -> List.iter describe cleared
      end
      else
        List.iter
          (fun key ->
            match Catalog.clear_quarantine cat key with
            | None ->
                Printf.printf "%s: not tracked (already clear)\n"
                  (Catalog.key_to_string key)
            | Some h -> describe h)
          keys;
      Catalog.save_health cat path;
      Printf.printf "wrote %s (%d tracked key(s) remain)\n" path
        (List.length (Catalog.health cat))
    with Invalid_argument msg | Sys_error msg ->
      prerr_endline ("xpest: " ^ msg);
      exit 1
  in
  let keys =
    Arg.(
      value
      & pos_right 0 key_conv []
      & info [] ~docv:"KEY"
          ~doc:"Catalog keys as $(i,dataset)[@$(i,variance)] whose failure \
                history should be discarded.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Discard the failure history of every tracked key (the \
                circuit breaker's state, if any, is kept — it guards the \
                loader as a whole, not any one key).")
  in
  let health_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "health-state" ] ~docv:"FILE"
          ~doc:"Health-state file to operate on (default \
                $(i,DIR)/catalog.health).")
  in
  Cmd.v
    (Cmd.info "clear-quarantine"
       ~doc:"Operator override for the failure state machine: discard the \
             persisted failure history of the given keys — quarantine \
             deadline, doubled backoff, lifetime counts — so the next \
             serving run probes their storage immediately.")
    Term.(const run $ catalog_dir_arg $ keys $ all $ health_file)

let catalog_cmd =
  Cmd.group
    (Cmd.info "catalog"
       ~doc:"Build and serve many estimation synopses behind one routing \
             service.")
    [
      catalog_build_cmd; catalog_info_cmd; catalog_estimate_cmd;
      catalog_clear_quarantine_cmd;
    ]

(* ---------------- plan ---------------- *)

(* Plans are summary-independent: the compiler needs only the pattern,
   so this command takes no dataset. *)
let plan_cmd =
  let run queries =
    List.iteri
      (fun i qs ->
        if i > 0 then print_newline ();
        print_string (Plan.to_string (Plan.compile (parse_query qs))))
      queries
  in
  let queries =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:
            "XPath patterns in the paper's fragment; mark the target node \
             with braces, e.g. //A[/C/folls::{B}/D].")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Compile queries into the estimation engine's query-plan IR and \
          print it: chain decomposition, join graph, anchoring, and the \
          estimation equation chosen at compile time.")
    Term.(const run $ queries)

(* ---------------- estimate ---------------- *)

(* One query per line; blank and '#' lines skipped.  Queries are
   parsed here, so an error names its line. *)
let read_batch_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno acc =
        match input_line ic with
        | line ->
            let line = String.trim line in
            let acc =
              if String.length line = 0 || line.[0] = '#' then acc
              else parse_query ~where:(Printf.sprintf "%s:%d" path lineno) line :: acc
            in
            loop (lineno + 1) acc
        | exception End_of_file -> List.rev acc
      in
      loop 1 [])

let estimate_cmd =
  let run source scale seed p_variance o_variance synopsis check explain metrics
      batch queries =
    (* parsed before any synopsis is built, so a malformed query fails
       at once *)
    let patterns =
      Array.of_list
        (List.map parse_query queries
        @ match batch with Some f -> read_batch_file f | None -> [])
    in
    if patterns = [||] then begin
      prerr_endline "xpest: no queries (pass QUERY arguments or --batch FILE)";
      exit 1
    end;
    let work () =
    (* the document itself is only needed to build a fresh synopsis or
       to compute exact answers for --check *)
    let doc = lazy (load_doc source ~scale ~seed) in
    let s =
      match synopsis with
      | Some path -> or_die_e (Synopsis_io.load_typed path)
      | None -> Summary.build ~p_variance ~o_variance (Lazy.force doc)
    in
    (* named datasets get cache capacities sized from their workloads'
       working-set peaks (Cache_config.for_dataset); files and unknown
       names keep the shared default *)
    let config =
      match source with
      | `Dataset name -> Cache_config.for_dataset (Registry.to_string name)
      | `File _ -> Cache_config.default
    in
    let est = Estimator.create ~config s in
    (* one compile-dedupe-execute pass over the whole query list *)
    let estimates = Estimator.estimate_many est patterns in
    let rows =
      List.mapi
        (fun i q ->
          let estimate = estimates.(i) in
          let base = [ Pattern.to_string q; Tablefmt.fmt_float estimate ] in
          if check then
            let actual = Truth.selectivity (Lazy.force doc) q in
            let err =
              Xpest_util.Stats.relative_error ~actual:(Float.of_int actual)
                ~estimate
            in
            base @ [ string_of_int actual; Printf.sprintf "%.1f%%" (100.0 *. err) ]
          else base)
        (Array.to_list patterns)
    in
    let header =
      if check then [ "query"; "estimate"; "actual"; "rel. error" ]
      else [ "query"; "estimate" ]
    in
    print_endline
      (Tablefmt.render_table ~header
         ~align:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
         rows);
    if explain then
      Array.iter
        (fun q ->
          let e = Estimator.explain est q in
          Printf.printf "\n%s  ->  %s\n" (Pattern.to_string q)
            (Tablefmt.fmt_float e.Estimator.value);
          List.iter (fun line -> Printf.printf "  - %s\n" line)
            e.Estimator.derivation)
        patterns
    in
    if metrics then begin
      Metrics.with_counters work;
      Printf.printf "\nObservability counters:\n%s"
        (Metrics.render_counters ())
    end
    else work ()
  in
  let queries =
    Arg.(
      value
      & pos_right 0 string []
      & info [] ~docv:"QUERY"
          ~doc:
            "XPath patterns in the paper's fragment; mark the target node \
             with braces, e.g. //A[/C/folls::{B}/D].")
  in
  let batch =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Read additional queries from $(docv), one per line (blank lines \
             and lines starting with # are skipped); the whole batch is \
             estimated in one compile-dedupe-execute pass.")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Also compute the exact selectivity.")
  in
  let synopsis =
    Arg.(
      value
      & opt (some string) None
      & info [ "synopsis" ] ~docv:"FILE"
          ~doc:"Estimate from a synopsis saved by $(b,synopsis save) instead \
                of building one from the source document.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print the estimation derivation (which equations fired).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Enable observability counters (cache hits, prunings, \
                per-equation counts, build/load timers) and print them after \
                the run.")
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Estimate the selectivity of XPath patterns.")
    Term.(
      const run $ source $ scale $ seed $ p_variance_arg $ o_variance_arg
      $ synopsis $ check $ explain $ metrics $ batch $ queries)

(* ---------------- workload ---------------- *)

let workload_cmd =
  let run source scale seed wseed attempts =
    let doc = load_doc source ~scale ~seed in
    let config =
      { Workload.default_config with seed = wseed; num_simple = attempts; num_branch = attempts }
    in
    let w = Workload.generate ~config doc in
    let show name items =
      Printf.printf "%s: %d queries\n" name (List.length items);
      List.iteri
        (fun i (it : Workload.item) ->
          if i < 5 then
            Printf.printf "  %s  (selectivity %d)\n"
              (Pattern.to_string it.pattern)
              it.actual)
        items
    in
    show "simple" w.simple;
    show "branch" w.branch;
    show "order (branch target)" w.order_branch_target;
    show "order (trunk target)" w.order_trunk_target
  in
  let wseed =
    Arg.(value & opt int Workload.default_config.seed
         & info [ "workload-seed" ] ~docv:"N" ~doc:"Workload generator seed.")
  in
  let attempts =
    Arg.(value & opt int 1000
         & info [ "attempts" ] ~docv:"N" ~doc:"Generation attempts per class.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a query workload and print a sample.")
    Term.(const run $ source $ scale $ seed $ wseed $ attempts)

let () =
  let doc = "Selectivity estimation for XPath expressions with order axes (ICDE 2006)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "xpest" ~version:"1.0.0" ~doc)
          [
            generate_cmd; stats_cmd; synopsis_cmd; catalog_cmd; plan_cmd;
            estimate_cmd; workload_cmd;
          ]))
