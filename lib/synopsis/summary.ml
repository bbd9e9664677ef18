module Doc = Xpest_xml.Doc
module Bitvec = Xpest_util.Bitvec
module Counters = Xpest_util.Counters
module Fault = Xpest_util.Fault
module Encoding_table = Xpest_encoding.Encoding_table
module Labeler = Xpest_encoding.Labeler
module Pid_tree = Xpest_encoding.Pid_tree

(* Observability: synopsis construction vs. load-from-disk wall time,
   and a decode split into the container (header, checksum, section
   table) and the sections.  No-ops unless [Counters.set_enabled true]. *)
let t_build = Counters.create_timer "summary.build"
let t_load = Counters.create_timer "summary.load"
let t_save = Counters.create_timer "summary.save"
let t_decode_container = Counters.create_timer "summary.decode.container"
let t_decode_sections = Counters.create_timer "summary.decode.sections"

type base = {
  doc : Doc.t;
  table : Encoding_table.t;
  labeler : Labeler.t;
  pf : Pf_table.t;
  po : Po_table.t option;
}

module Pid_tbl = Hashtbl.Make (struct
  type t = Bitvec.t

  let equal = Bitvec.equal
  let hash = Bitvec.hash
end)

(* Everything estimation needs, independent of the document: this is
   what [save]/[load] persist. *)
type core = {
  table : Encoding_table.t;
  pids : Bitvec.t array;
  pid_index : int Pid_tbl.t;
  root_pid : Bitvec.t;
  tag_names : string array;
  code_of : (string, int) Hashtbl.t;
  p_variance : float;
  o_variance : float;
  p_histos : (string, P_histogram.t) Hashtbl.t;
  o_histos : (string, O_histogram.t) Hashtbl.t;
}

(* [wire_bytes] memoizes the exact encoded size (0 = not yet known):
   [decode] learns it for free from the input, [encode]/[size_bytes]
   fill it in on first use.  [tree_bytes] memoizes the modeled size of
   the paper's path-id tree (-1 = not yet known), built from [pids] on
   first use; estimation never reads the tree, so neither building nor
   loading pays for it.  Both writes are idempotent (every computation
   yields the same int), which makes the benign race of two domains
   memoizing at once harmless.  (Not [Lazy.t]: forcing one lazy value
   from two domains at once raises.) *)
type t = {
  core : core;
  b : base option;
  mutable wire_bytes : int;
  mutable tree_bytes : int;
}

let collect_with ~order doc =
  let table = Encoding_table.build doc in
  let labeler = Labeler.label doc table in
  let pf = Pf_table.build labeler in
  let po = if order then Some (Po_table.build labeler) else None in
  { doc; table; labeler; pf; po }

let collect doc = collect_with ~order:true doc
let collect_paths_only doc = collect_with ~order:false doc
let without_order b = { b with po = None }

let alpha_ranks_of_names names =
  let sorted = Array.copy names in
  Array.sort String.compare sorted;
  let rank_of_name = Hashtbl.create (Array.length names) in
  Array.iteri (fun rank name -> Hashtbl.replace rank_of_name name rank) sorted;
  Array.map (fun name -> Hashtbl.find rank_of_name name) names

let build_histos ~p_variance ~o_variance ~pf ~po ~ntags ~alpha_ranks =
  let p_histos = Hashtbl.create 64 in
  List.iter
    (fun (tag, h) -> Hashtbl.replace p_histos tag h)
    (P_histogram.build_all ~variance:p_variance pf);
  let o_histos = Hashtbl.create 64 in
  (match po with
  | None -> ()
  | Some po ->
      let tag_alpha_rank code = alpha_ranks.(code) in
      List.iter
        (fun tag ->
          match Hashtbl.find_opt p_histos tag with
          | None -> ()
          | Some ph ->
              let cells = Po_table.cells po tag in
              let histo =
                O_histogram.build ~variance:o_variance ~ntags ~tag_alpha_rank
                  ~pid_order:(P_histogram.pid_order ph) cells
              in
              Hashtbl.replace o_histos tag histo)
        (Pf_table.tags pf));
  (p_histos, o_histos)

let assemble ?(p_variance = 0.0) ?(o_variance = 0.0) (b : base) =
  let doc = b.doc in
  let ntags = Doc.num_tags doc in
  let tag_names = Array.init ntags (Doc.tag_name doc) in
  let alpha_ranks = alpha_ranks_of_names tag_names in
  let p_histos, o_histos =
    build_histos ~p_variance ~o_variance ~pf:b.pf ~po:b.po ~ntags ~alpha_ranks
  in
  let pids = Labeler.distinct_pids b.labeler in
  let pid_index = Pid_tbl.create (Array.length pids) in
  Array.iteri (fun i pid -> Pid_tbl.replace pid_index pid i) pids;
  let code_of = Hashtbl.create ntags in
  Array.iteri (fun code name -> Hashtbl.replace code_of name code) tag_names;
  {
    core =
      {
        table = b.table;
        pids;
        pid_index;
        root_pid = Labeler.pid b.labeler (Doc.root doc);
        tag_names;
        code_of;
        p_variance;
        o_variance;
        p_histos;
        o_histos;
      };
    b = Some b;
    wire_bytes = 0;
    tree_bytes = -1;
  }

let build ?p_variance ?o_variance doc =
  Counters.time t_build (fun () ->
      assemble ?p_variance ?o_variance (collect doc))

let from_document_error what =
  invalid_arg
    (Printf.sprintf
       "Summary.%s: not available on a synopsis loaded from disk" what)

let doc t = match t.b with Some b -> b.doc | None -> from_document_error "doc"
let base t = match t.b with Some b -> b | None -> from_document_error "base"

let labeler t =
  match t.b with Some b -> b.labeler | None -> from_document_error "labeler"

let encoding_table t = t.core.table
let root_pid t = t.core.root_pid
let tags t = Array.copy t.core.tag_names
let pf_table (b : base) = b.pf
let po_table (b : base) = b.po
let p_variance t = t.core.p_variance
let o_variance t = t.core.o_variance

(* A pid's index is its slot in [pids], the column key of the
   o-histograms; with duplicate pids (never built, but a file could
   hold them) [pid_index] keeps the last slot, so lookups go through
   it then. *)
let tag_entries t tag =
  match Hashtbl.find_opt t.core.p_histos tag with
  | None -> []
  | Some h ->
      let distinct = Pid_tbl.length t.core.pid_index = Array.length t.core.pids in
      Array.to_list (P_histogram.pid_order h)
      |> List.filter_map (fun idx ->
             match P_histogram.frequency h idx with
             | Some f ->
                 let pid = t.core.pids.(idx) in
                 Some ((if distinct then idx else Pid_tbl.find t.core.pid_index pid), pid, f)
             | None -> None)

let tag_pids t tag = List.map (fun (_, pid, f) -> (pid, f)) (tag_entries t tag)

let tag_total t tag =
  List.fold_left (fun acc (_, f) -> acc +. f) 0.0 (tag_pids t tag)

let order_lookup t ~tag ~other ~region =
  match (Hashtbl.find_opt t.core.o_histos tag, Hashtbl.find_opt t.core.code_of other) with
  | Some h, Some other_tag -> O_histogram.row_lookup h ~other_tag ~region
  | None, _ | Some _, None -> fun _ -> 0.0

let order_frequency t ~tag ~pid ~other ~region =
  match Pid_tbl.find_opt t.core.pid_index pid with
  | Some pid_index -> order_lookup t ~tag ~other ~region pid_index
  | None -> 0.0

let p_histogram_buckets t =
  Hashtbl.fold
    (fun tag h acc -> (tag, List.length (P_histogram.buckets h)) :: acc)
    t.core.p_histos []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let o_histogram_boxes t =
  Hashtbl.fold
    (fun tag h acc -> (tag, List.length (O_histogram.boxes h)) :: acc)
    t.core.o_histos []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let p_histogram_bytes t =
  Hashtbl.fold (fun _ h acc -> acc + P_histogram.byte_size h) t.core.p_histos 0

let o_histogram_bytes t =
  Hashtbl.fold (fun _ h acc -> acc + O_histogram.byte_size h) t.core.o_histos 0

let encoding_table_bytes t = Encoding_table.byte_size t.core.table

let pid_tree_bytes t =
  if t.tree_bytes < 0 then
    t.tree_bytes <- Pid_tree.byte_size (Pid_tree.build (Array.to_list t.core.pids));
  t.tree_bytes

let total_bytes t =
  encoding_table_bytes t + pid_tree_bytes t + p_histogram_bytes t

(* ------------------------------------------------------------------ *)
(* Persistence: named sections in Wire's versioned, checksummed
   container (no Marshal, so files are stable across compiler
   versions).  Section payloads are written in a canonical order
   (histograms sorted by tag), so saving, loading and saving again is
   byte-identical.                                                     *)

let section_meta = "meta"
let section_table = "encoding_table"
let section_pids = "path_ids"
let section_tags = "tags"
let section_phist = "p_histograms"
let section_ohist = "o_histograms"

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_sections t =
  let open Wire in
  let c = t.core in
  let section f =
    let buf = Buffer.create 1024 in
    f buf;
    Buffer.contents buf
  in
  [
    ( section_meta,
      section (fun buf ->
          put_float buf c.p_variance;
          put_float buf c.o_variance) );
    ( section_table,
      section (fun buf ->
          put_list buf
            (fun buf p -> put_list buf put_string p)
            (Encoding_table.paths c.table)) );
    ( section_pids,
      section (fun buf ->
          put_array buf put_bitvec c.pids;
          put_bitvec buf c.root_pid) );
    (section_tags, section (fun buf -> put_array buf put_string c.tag_names));
    ( section_phist,
      section (fun buf ->
          let entries = sorted_bindings c.p_histos in
          put_int buf (List.length entries);
          List.iter
            (fun (tag, h) ->
              put_string buf tag;
              put_list buf
                (fun buf (b : P_histogram.bucket) ->
                  put_array buf put_int b.pid_indices;
                  put_array buf put_int b.frequencies)
                (P_histogram.buckets h))
            entries) );
    ( section_ohist,
      section (fun buf ->
          (* boxes + the column order they were built with *)
          let entries = sorted_bindings c.o_histos in
          put_int buf (List.length entries);
          List.iter
            (fun (tag, h) ->
              put_string buf tag;
              (match Hashtbl.find_opt c.p_histos tag with
              | Some ph -> put_array buf put_int (P_histogram.pid_order ph)
              | None -> put_int buf 0);
              put_list buf
                (fun buf (b : O_histogram.box) ->
                  put_int buf b.x_start;
                  put_int buf b.y_start;
                  put_int buf b.x_end;
                  put_int buf b.y_end;
                  put_float buf b.frequency)
                (O_histogram.boxes h))
            entries) );
  ]

let of_sections sections =
  let open Wire in
  let section name =
    match List.assoc_opt name sections with
    | Some payload ->
        reader ~context:(Printf.sprintf "synopsis section %S" name) payload
    | None ->
        invalid_arg
          (Printf.sprintf "synopsis file: missing section %S" name)
  in
  let r = section section_meta in
  let p_variance = get_float r in
  let o_variance = get_float r in
  expect_end r;
  let r = section section_table in
  let paths = get_list r (fun r -> get_list r get_string) in
  expect_end r;
  let table = Encoding_table.of_paths paths in
  let r = section section_pids in
  let pids = get_array r get_bitvec in
  let root_pid = get_bitvec r in
  (* The path-id tree is built only on demand, so its preconditions are
     checked here, where a bad file can still be rejected as corrupt. *)
  if Array.length pids = 0 then fail r "no path ids";
  let width = Bitvec.width root_pid in
  if width = 0 then fail r "zero-width path id";
  if Array.exists (fun pid -> Bitvec.width pid <> width) pids then
    fail r "path ids of mixed widths";
  expect_end r;
  let r = section section_tags in
  let tag_names = get_array r get_string in
  expect_end r;
  let ntags = Array.length tag_names in
  let alpha_ranks = alpha_ranks_of_names tag_names in
  let p_histos = Hashtbl.create 64 in
  let r = section section_phist in
  let np = get_int r in
  for _ = 1 to np do
    let tag = get_string r in
    let buckets =
      get_list r (fun r ->
          let pid_indices = get_array r get_int in
          (* estimation indexes [pids] by these: a bad one is a
             corrupt file here, not an [Internal] error on every
             query *)
          if Array.exists (fun i -> i < 0 || i >= Array.length pids) pid_indices then
            fail r "p-histogram pid index out of range";
          let frequencies = get_array r get_int in
          P_histogram.bucket_of_parts ~pid_indices ~frequencies)
    in
    Hashtbl.replace p_histos tag (P_histogram.of_buckets buckets)
  done;
  expect_end r;
  let o_histos = Hashtbl.create 64 in
  let r = section section_ohist in
  let no = get_int r in
  for _ = 1 to no do
    let tag = get_string r in
    let pid_order = get_array r get_int in
    let boxes =
      get_list r (fun r ->
          let x_start = get_int r in
          let y_start = get_int r in
          let x_end = get_int r in
          let y_end = get_int r in
          let frequency = get_float r in
          { O_histogram.x_start; y_start; x_end; y_end; frequency })
    in
    Hashtbl.replace o_histos tag
      (O_histogram.of_boxes ~ntags
         ~tag_alpha_rank:(fun code -> alpha_ranks.(code))
         ~pid_order boxes)
  done;
  expect_end r;
  let pid_index = Pid_tbl.create (Array.length pids) in
  Array.iteri (fun i pid -> Pid_tbl.replace pid_index pid i) pids;
  let code_of = Hashtbl.create ntags in
  Array.iteri (fun code name -> Hashtbl.replace code_of name code) tag_names;
  {
    core =
      {
        table;
        pids;
        pid_index;
        root_pid;
        tag_names;
        code_of;
        p_variance;
        o_variance;
        p_histos;
        o_histos;
      };
    b = None;
    wire_bytes = 0;
    tree_bytes = -1;
  }

let encode t =
  let data = Wire.encode_container (to_sections t) in
  t.wire_bytes <- String.length data;
  data

(* The header is read first, as [Synopsis_io.info] reads it, so
   [expect] may reject it before the version check; one hash of the
   body serves both.  Decode failures past the container layer would
   indicate a bug in the codec itself (the checksum has already vouched
   for the bytes), but still surface them as a clean error. *)
let decode ?expect data =
  let sections =
    Counters.time t_decode_container (fun () ->
        let h = Wire.read_header data in
        Option.iter (fun f -> f h) expect;
        Wire.decode_with_header h data)
  in
  Counters.time t_decode_sections (fun () ->
      let t = of_sections sections in
      t.wire_bytes <- String.length data;
      t)

(* Exact residency cost in bytes: the canonical wire size.  Loaded
   summaries know it for free; built summaries pay one [encode] on
   first call and memoize. *)
let size_bytes t =
  if t.wire_bytes = 0 then ignore (encode t);
  t.wire_bytes

(* Crash-safe: the encoded bytes land via temp-file + atomic rename,
   so a process killed mid-save never leaves a torn synopsis behind —
   the previous file (if any) survives byte-identical.  [io] is the
   write-abort injection seam for the chaos suites. *)
let save ?io t path =
  Counters.time t_save (fun () -> Fault.atomic_write ?io path (encode t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = Counters.time t_load (fun () -> decode (read_file path))
