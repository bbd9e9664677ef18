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

(* Everything estimation needs, independent of the document: this is
   what [save]/[load] persist, held as a few flat arrays per section
   (see summary.mli for the layout).  [assemble] and [decode] both
   build it; every array of more than 256 words goes straight to the
   major heap, so a load leaves little in the minor heap. *)
type flat = {
  p_variance : float;
  o_variance : float;
  tag_names : string array;
  by_name : int array;
  by_hash : int array;
  path_start : int array;
  path_tag : int array;
  stride : int;
  pid_words : int array;
  p_first : int array;
  p_stop : int array;
  bucket_start : int array;
  slot_pid : int array;
  slot_count : int array;
  bucket_avg : float array;
  o_first : int array;
  o_stop : int array;
  box_x0 : int array;
  box_y0 : int array;
  box_x1 : int array;
  box_y1 : int array;
  box_avg : float array;
}

(* [wire_bytes] memoizes the exact encoded size (0 = not yet known):
   [decode] learns it for free from the input, [encode]/[size_bytes]
   fill it in on first use.  [tree_bytes] memoizes the modeled size of
   the paper's path-id tree (-1 = not yet known), built from the pids
   on first use; estimation never reads the tree, so neither building
   nor loading pays for it.  Both writes are idempotent (every
   computation yields the same int), which makes the benign race of two
   domains memoizing at once harmless.  (Not [Lazy.t]: forcing one lazy
   value from two domains at once raises.) *)
type t = {
  core : flat;
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

(* ------------------------------------------------------------------ *)
(* Reading the flat core.                                              *)

let num_paths_of f = Array.length f.path_start - 1
let npids f = (Array.length f.pid_words / f.stride) - 1

(* A tag's row: its p-histogram's slots, empty without one. *)
(* True iff pids [i] and [j] of [words] ([stride] words each) are equal
   from word [w] on. *)
let rec same_words words stride i j w =
  w = stride
  || (words.((i * stride) + w) = words.((j * stride) + w) && same_words words stride i j (w + 1))

let same_pid f i j = same_words f.pid_words f.stride i j 0

let row_start f code =
  if code < 0 || f.p_first.(code) < 0 then 0 else f.bucket_start.(f.p_first.(code))

let row_stop f code =
  if code < 0 || f.p_first.(code) < 0 then 0 else f.bucket_start.(f.p_stop.(code))

(* True iff [s]'s bytes [pos + i .. pos + len - 1] are [name]'s from
   [i] on, [name] being [len] bytes long.  Top-level and closure-free,
   like [probe]: a tag lookup allocates nothing. *)
let rec equal_from s pos len name i =
  i = len
  || (String.unsafe_get s (pos + i) = String.unsafe_get name i && equal_from s pos len name (i + 1))

(* True iff [s]'s bytes [pos .. pos + len - 1] are [name]. *)
let equal_sub s pos len name = len = String.length name && equal_from s pos len name 0

(* FNV-1a over [s]'s bytes [pos + i .. pos + len - 1], in an int. *)
let rec hash_sub s pos len i h =
  if i = len then h lxor (h lsr 29)
  else hash_sub s pos len (i + 1) ((h lxor Char.code (String.unsafe_get s (pos + i))) * 0x100000001b3)

(* [by_hash] holds ranks in name order, open-addressed on the names'
   hashes and at most half full: the rank of the tag named by [s]'s
   bytes [pos .. pos + len - 1], probing from slot [k], -1 outside the
   vocabulary. *)
let rec probe names by_name by_hash s pos len k =
  let v = by_hash.(k) in
  if v < 0 || equal_sub s pos len names.(by_name.(v)) then v
  else probe names by_name by_hash s pos len ((k + 1) land (Array.length by_hash - 1))

let rank_sub names by_name by_hash s pos len =
  probe names by_name by_hash s pos len (hash_sub s pos len 0 0 land (Array.length by_hash - 1))

let rank f name = rank_sub f.tag_names f.by_name f.by_hash name 0 (String.length name)

let code f name =
  let r = rank f name in
  if r < 0 then -1 else f.by_name.(r)

(* Tag codes in name order. *)
let names_order names =
  let order = Array.init (Array.length names) Fun.id in
  Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) order;
  order

(* The ranks of [by_name] hashed on their names (see [probe]). *)
let names_table names by_name =
  let bits = ref 1 in
  while 1 lsl !bits < 2 * Array.length names do
    incr bits
  done;
  let mask = (1 lsl !bits) - 1 in
  let by_hash = Array.make (mask + 1) (-1) in
  Array.iteri
    (fun rank code ->
      let name = names.(code) in
      let k = ref (hash_sub name 0 (String.length name) 0 0 land mask) in
      while by_hash.(!k) >= 0 do
        k := (!k + 1) land mask
      done;
      by_hash.(!k) <- rank)
    by_name;
  by_hash

(* One loop per bucket, its sum from 0 in slot order: the average the
   p-histogram builder computes, bit for bit. *)
let bucket_averages bucket_start slot_count =
  let nb = Array.length bucket_start - 1 in
  let avg = Array.make nb 0.0 in
  for b = 0 to nb - 1 do
    let sum = ref 0.0 in
    for s = bucket_start.(b) to bucket_start.(b + 1) - 1 do
      sum := !sum +. Float.of_int slot_count.(s)
    done;
    avg.(b) <- !sum /. Float.of_int (bucket_start.(b + 1) - bucket_start.(b))
  done;
  avg

(* ------------------------------------------------------------------ *)
(* Assembling the flat core from a document's statistics.              *)

let assemble ?(p_variance = 0.0) ?(o_variance = 0.0) (b : base) =
  let doc = b.doc in
  let ntags = Doc.num_tags doc in
  let tag_names = Array.init ntags (Doc.tag_name doc) in
  let by_name = names_order tag_names in
  let by_hash = names_table tag_names by_name in
  let code_of name = by_name.(rank_sub tag_names by_name by_hash name 0 (String.length name)) in
  let alpha_rank = Array.make ntags 0 in
  Array.iteri (fun r code -> alpha_rank.(code) <- r) by_name;
  (* paths as tag codes *)
  let paths = Array.of_list (Encoding_table.paths b.table) in
  let npaths = Array.length paths in
  let path_start = Array.make (npaths + 1) 0 in
  Array.iteri (fun p path -> path_start.(p + 1) <- path_start.(p) + List.length path) paths;
  let path_tag = Array.make path_start.(npaths) 0 in
  Array.iteri
    (fun p path ->
      List.iteri (fun d tag -> path_tag.(path_start.(p) + d) <- code_of tag) path)
    paths;
  (* pids, then the root's *)
  let pids = Labeler.distinct_pids b.labeler in
  let root = Labeler.pid b.labeler (Doc.root doc) in
  let stride = Bitvec.words_for (Bitvec.width root) in
  let pid_words = Array.make ((Array.length pids + 1) * stride) 0 in
  Array.iteri (fun i pid -> Bitvec.blit_words pid pid_words (i * stride)) pids;
  Bitvec.blit_words root pid_words (Array.length pids * stride);
  (* the histograms by tag code, laid out in name order as a file
     holds them *)
  let p_histos = Array.make ntags None in
  List.iter
    (fun (tag, h) -> p_histos.(code_of tag) <- Some h)
    (P_histogram.build_all ~variance:p_variance b.pf);
  let o_histos =
    Array.mapi
      (fun code ph ->
        match (b.po, ph) with
        | Some po, Some ph ->
            Some
              (O_histogram.build ~variance:o_variance ~ntags
                 ~tag_alpha_rank:(fun c -> alpha_rank.(c))
                 ~pid_order:(P_histogram.pid_order ph)
                 (Po_table.cells po tag_names.(code)))
        | None, _ | _, None -> None)
      p_histos
  in
  let buckets = Array.map (Option.fold ~none:[] ~some:P_histogram.buckets) p_histos in
  let boxes = Array.map (Option.fold ~none:[] ~some:O_histogram.boxes) o_histos in
  let p_first = Array.make ntags (-1) and p_stop = Array.make ntags (-1) in
  let o_first = Array.make ntags (-1) and o_stop = Array.make ntags (-1) in
  let nb = ref 0 and ns = ref 0 and nx = ref 0 in
  Array.iter
    (fun code ->
      if Option.is_some p_histos.(code) then begin
        p_first.(code) <- !nb;
        List.iter
          (fun (bk : P_histogram.bucket) ->
            incr nb;
            ns := !ns + Array.length bk.pid_indices)
          buckets.(code);
        p_stop.(code) <- !nb
      end;
      if Option.is_some o_histos.(code) then begin
        o_first.(code) <- !nx;
        nx := !nx + List.length boxes.(code);
        o_stop.(code) <- !nx
      end)
    by_name;
  let bucket_start = Array.make (!nb + 1) 0 in
  let slot_pid = Array.make !ns 0 and slot_count = Array.make !ns 0 in
  let box_x0 = Array.make !nx 0 and box_y0 = Array.make !nx 0 in
  let box_x1 = Array.make !nx 0 and box_y1 = Array.make !nx 0 in
  let box_avg = Array.make !nx 0.0 in
  Array.iter
    (fun code ->
      List.iteri
        (fun i (bk : P_histogram.bucket) ->
          let bi = p_first.(code) + i in
          let s = bucket_start.(bi) and n = Array.length bk.pid_indices in
          Array.blit bk.pid_indices 0 slot_pid s n;
          Array.blit bk.frequencies 0 slot_count s n;
          bucket_start.(bi + 1) <- s + n)
        buckets.(code);
      List.iteri
        (fun i (x : O_histogram.box) ->
          let k = o_first.(code) + i in
          box_x0.(k) <- x.x_start;
          box_y0.(k) <- x.y_start;
          box_x1.(k) <- x.x_end;
          box_y1.(k) <- x.y_end;
          box_avg.(k) <- x.frequency)
        boxes.(code))
    by_name;
  {
    core =
      {
        p_variance;
        o_variance;
        tag_names;
        by_name;
        by_hash;
        path_start;
        path_tag;
        stride;
        pid_words;
        p_first;
        p_stop;
        bucket_start;
        slot_pid;
        slot_count;
        bucket_avg = bucket_averages bucket_start slot_count;
        o_first;
        o_stop;
        box_x0;
        box_y0;
        box_x1;
        box_y1;
        box_avg;
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

let flat t = t.core
let tag_code t name = code t.core name
let num_paths t = num_paths_of t.core

let path_names f p =
  Array.init (f.path_start.(p + 1) - f.path_start.(p)) (fun d ->
      f.tag_names.(f.path_tag.(f.path_start.(p) + d)))

let paths t = List.init (num_paths t) (fun p -> Array.to_list (path_names t.core p))

let gap_tags t ~encoding ~anc ~desc =
  if encoding < 1 || encoding > num_paths t then
    invalid_arg (Printf.sprintf "Summary.gap_tags: encoding %d" encoding);
  Encoding_table.path_gaps (path_names t.core (encoding - 1)) ~anc ~desc

let pid t i = Bitvec.of_words ~width:(num_paths t) t.core.pid_words (i * t.core.stride)
let root_pid t = pid t (npids t.core)
let tags t = Array.copy t.core.tag_names
let pf_table (b : base) = b.pf
let po_table (b : base) = b.po
let p_variance t = t.core.p_variance
let o_variance t = t.core.o_variance

(* [f acc pid_index average] over a tag's row, in row order. *)
let fold_row t tag f acc =
  let c = t.core in
  let code = code c tag in
  if code < 0 || c.p_first.(code) < 0 then acc
  else begin
    let acc = ref acc in
    for b = c.p_first.(code) to c.p_stop.(code) - 1 do
      for s = c.bucket_start.(b) to c.bucket_start.(b + 1) - 1 do
        acc := f !acc c.slot_pid.(s) c.bucket_avg.(b)
      done
    done;
    !acc
  end

let tag_pids t tag = List.rev (fold_row t tag (fun acc i avg -> (pid t i, avg) :: acc) [])
let tag_total t tag = fold_row t tag (fun acc _ avg -> acc +. avg) 0.0

(* The first box of the tag's o-histogram holding cell (column, row),
   in box order, as the builder's lookup finds it. *)
let order_lookup t ~tag ~other ~region =
  let c = t.core in
  let code = code c tag and r = rank c other in
  if code < 0 || r < 0 || c.o_first.(code) < 0 then fun _ -> 0.0
  else begin
    let y = (match region with Po_table.Before -> 0 | After -> Array.length c.tag_names) + r in
    let lo = c.o_first.(code) and hi = c.o_stop.(code) in
    fun x ->
      let rec scan k =
        if k = hi then 0.0
        else if
          c.box_y0.(k) <= y && y <= c.box_y1.(k) && c.box_x0.(k) <= x && x <= c.box_x1.(k)
        then c.box_avg.(k)
        else scan (k + 1)
      in
      scan lo
  end

let order_frequency t ~tag ~pid:p ~other ~region =
  let code = code t.core tag in
  let lo = row_start t.core code and hi = row_stop t.core code in
  let rec column s =
    if s = hi then 0.0
    else if Bitvec.equal p (pid t t.core.slot_pid.(s)) then
      order_lookup t ~tag ~other ~region (s - lo)
    else column (s + 1)
  in
  column lo

(* (tag, count) of the tags holding a histogram, in name order. *)
let per_tag t first stop =
  Array.fold_right
    (fun code acc ->
      if first.(code) < 0 then acc
      else (t.core.tag_names.(code), stop.(code) - first.(code)) :: acc)
    t.core.by_name []

let p_histogram_buckets t = per_tag t t.core.p_first t.core.p_stop
let o_histogram_boxes t = per_tag t t.core.o_first t.core.o_stop

(* The models of P_histogram.byte_size, O_histogram.byte_size and
   Encoding_table.byte_size, over the flat arrays. *)
let p_histogram_bytes t =
  (6 * (Array.length t.core.bucket_start - 1)) + (2 * Array.length t.core.slot_pid)

let o_histogram_bytes t = 20 * Array.length t.core.box_avg

let encoding_table_bytes t =
  let c = t.core in
  Array.fold_left
    (fun acc code -> acc + String.length c.tag_names.(code) + 1)
    (4 * num_paths_of c) c.path_tag

let pid_tree_bytes t =
  if t.tree_bytes < 0 then
    t.tree_bytes <- Pid_tree.byte_size (Pid_tree.build (List.init (npids t.core) (pid t)));
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

let to_sections t =
  let open Wire in
  let c = t.core in
  let section f =
    let buf = Buffer.create 1024 in
    f buf;
    Buffer.contents buf
  in
  let put_tag buf code = put_string buf c.tag_names.(code) in
  let put_slots buf get lo hi =
    put_int buf (hi - lo);
    for s = lo to hi - 1 do
      put_int buf get.(s)
    done
  in
  let put_count buf first =
    put_int buf (Array.fold_left (fun n f -> if f < 0 then n else n + 1) 0 first)
  in
  let width = num_paths_of c in
  [
    ( section_meta,
      section (fun buf ->
          put_float buf c.p_variance;
          put_float buf c.o_variance) );
    ( section_table,
      section (fun buf ->
          put_int buf width;
          for p = 0 to width - 1 do
            put_int buf (c.path_start.(p + 1) - c.path_start.(p));
            for d = c.path_start.(p) to c.path_start.(p + 1) - 1 do
              put_tag buf c.path_tag.(d)
            done
          done) );
    ( section_pids,
      section (fun buf ->
          let put_pid i =
            put_int buf width;
            put_string buf (Bitvec.packed_of_words ~width c.pid_words (i * c.stride))
          in
          put_int buf (npids c);
          for i = 0 to npids c do
            put_pid i
          done) );
    (section_tags, section (fun buf -> put_array buf put_string c.tag_names));
    ( section_phist,
      section (fun buf ->
          put_count buf c.p_first;
          Array.iter
            (fun code ->
              if c.p_first.(code) >= 0 then begin
                put_tag buf code;
                put_int buf (c.p_stop.(code) - c.p_first.(code));
                for b = c.p_first.(code) to c.p_stop.(code) - 1 do
                  put_slots buf c.slot_pid c.bucket_start.(b) c.bucket_start.(b + 1);
                  put_slots buf c.slot_count c.bucket_start.(b) c.bucket_start.(b + 1)
                done
              end)
            c.by_name) );
    ( section_ohist,
      section (fun buf ->
          (* boxes + the column order they were built with *)
          put_count buf c.o_first;
          Array.iter
            (fun code ->
              if c.o_first.(code) >= 0 then begin
                put_tag buf code;
                put_slots buf c.slot_pid (row_start c code) (row_stop c code);
                put_int buf (c.o_stop.(code) - c.o_first.(code));
                for k = c.o_first.(code) to c.o_stop.(code) - 1 do
                  put_int buf c.box_x0.(k);
                  put_int buf c.box_y0.(k);
                  put_int buf c.box_x1.(k);
                  put_int buf c.box_y1.(k);
                  put_float buf c.box_avg.(k)
                done
              end)
            c.by_name) );
  ]

(* Each section decodes straight into its arrays, with no structure per
   tag, pid or bucket in between.  Every index a later read trusts is
   checked here, so a file the checksum vouches for but that names a
   tag, pid, column or row out of range is corrupt at load, never an
   [Internal] answer later. *)
(* [Wire.get_int] with its one- and two-byte cases inlined (tag
   lengths and box rows take one byte, pid indices and counts mostly
   two): the loops below read tens of thousands of ints, and a call for
   each would be most of their cost. *)
let[@inline] read_int (r : Wire.reader) =
  let pos = r.pos in
  if pos + 1 < r.stop then begin
    let b0 = Char.code (String.unsafe_get r.data pos) in
    if b0 < 0x80 then begin
      r.pos <- pos + 1;
      b0
    end
    else
      let b1 = Char.code (String.unsafe_get r.data (pos + 1)) in
      if b1 < 0x80 then begin
        r.pos <- pos + 2;
        (b0 land 0x7f) lor (b1 lsl 7)
      end
      else Wire.get_int r
  end
  else Wire.get_int r

(* What a decode parses into before it knows its counts, kept per
   domain (loads also run on the loader pool's domains) and grown, never
   shrunk: a stream of loads allocates only the arrays it keeps. *)
type scratch = { mutable ints : int array; mutable floats : float array }

let scratch_key = Domain.DLS.new_key (fun () -> { ints = [||]; floats = [||] })

(* The domain's scratch, with at least [ni] ints and [nf] floats of
   whatever a previous decode left. *)
let scratch ni nf =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.ints < ni then s.ints <- Array.make ni 0;
  if Array.length s.floats < nf then s.floats <- Array.make nf 0.0;
  s

let of_sections sections =
  let open Wire in
  let section name =
    match List.assoc_opt name sections with
    | Some r -> r
    | None ->
        invalid_arg
          (Printf.sprintf "synopsis file: missing section %S" name)
  in
  let skip r n =
    if n < 0 || r.pos + n > r.stop then fail r "truncated string";
    r.pos <- r.pos + n
  in
  let r = section section_meta in
  let p_variance = get_float r in
  let o_variance = get_float r in
  expect_end r;
  (* the vocabulary first: paths and histograms name tags by it *)
  let r = section section_tags in
  let tag_names = get_array r get_string in
  expect_end r;
  let ntags = Array.length tag_names in
  let by_name = names_order tag_names in
  for i = 1 to ntags - 1 do
    if String.equal tag_names.(by_name.(i - 1)) tag_names.(by_name.(i)) then
      fail r "duplicate tag"
  done;
  let by_hash = names_table tag_names by_name in
  let find s pos n = rank_sub tag_names by_name by_hash s pos n in
  (* A tag name read in place: its rank, -1 outside the vocabulary.
     Histogram sections list their tags in name order, so the rank
     [next] is tried first. *)
  let get_rank r next =
    let n = read_int r in
    let pos = r.pos in
    skip r n;
    if next < ntags && equal_sub r.data pos n tag_names.(by_name.(next)) then next
    else find r.data pos n
  in
  let r = section section_table in
  let npaths = get_count r in
  let path_start = Array.make (npaths + 1) 0 in
  (* A tag takes a byte at least: the paths' tags go to a scratch region
     the section cannot overfill.  Paths in encoding order mostly share
     a prefix with the one before, so a tag is first compared with the
     one at its depth there. *)
  let room = r.stop - r.pos in
  let tags_of = (scratch room 0).ints in
  for p = 0 to npaths - 1 do
    let len = get_count r in
    if len = 0 then fail r "empty path";
    let at = path_start.(p) in
    let prev = if p = 0 then 0 else path_start.(p - 1) in
    let prev_len = at - prev in
    if at + len > room then fail r "too many path tags";
    for d = 0 to len - 1 do
      let n = read_int r in
      let pos = r.pos in
      skip r n;
      tags_of.(at + d) <-
        (if d < prev_len && equal_sub r.data pos n tag_names.(tags_of.(prev + d)) then
           tags_of.(prev + d)
         else
           let k = find r.data pos n in
           if k < 0 then fail r "path tag not in the tag vocabulary" else by_name.(k))
    done;
    path_start.(p + 1) <- at + len
  done;
  expect_end r;
  let path_tag = Array.sub tags_of 0 path_start.(npaths) in
  (* The path-id tree is built only on demand, and the join reads pids
     as path sets, so their shape is checked here, where a bad file can
     still be rejected as corrupt. *)
  let r = section section_pids in
  let npids = get_count r in
  if npids = 0 then fail r "no path ids";
  let width =
    let at = r.pos in
    let w = read_int r in
    r.pos <- at;
    w
  in
  if width = 0 then fail r "zero-width path id";
  if width < 0 || width / 8 > (r.stop - r.pos) / (npids + 1) then
    fail r "truncated path ids";
  let stride = Bitvec.words_for width in
  let pid_words = Array.make ((npids + 1) * stride) 0 in
  for i = 0 to npids do
    if read_int r <> width then fail r "path ids of mixed widths";
    let n = read_int r in
    if n <> (width + 7) / 8 then fail r "path id length mismatch";
    let at = r.pos in
    skip r n;
    if not (Bitvec.packed_into ~width r.data at pid_words (i * stride)) then
      fail r "nonzero padding bits in a path id"
  done;
  expect_end r;
  if width <> npaths then fail r "path id width differs from the path count";
  (* a pid's index is its identity in the rows and the anchor, so no
     two may be equal: an open-addressed table of pid indices, hashed
     on their words *)
  let bits = ref 1 in
  while 1 lsl !bits < 2 * npids do
    incr bits
  done;
  let seen = (scratch (1 lsl !bits) 0).ints and mask = (1 lsl !bits) - 1 in
  Array.fill seen 0 (1 lsl !bits) (-1);
  for i = 0 to npids - 1 do
    (* the words folded, then multiplicative hashing read from the top
       bits, which every bit of the fold reaches *)
    let h = ref 0 in
    for w = i * stride to ((i + 1) * stride) - 1 do
      h := (31 * !h) + pid_words.(w)
    done;
    let slot = ref (((!h * 0x2545F4914F6CDD1D) land max_int) lsr (62 - !bits)) in
    while seen.(!slot) >= 0 do
      if same_words pid_words stride i seen.(!slot) 0 then fail r "duplicate path ids";
      slot := (!slot + 1) land mask
    done;
    seen.(!slot) <- i
  done;
  (* The histograms are read in one pass into the scratch, in regions
     as large as their section can fill (a slot takes two bytes at least,
     a bucket four, a box twelve), then copied out at their length. *)
  let r = section section_phist in
  let p_first = Array.make ntags (-1) and p_stop = Array.make ntags (-1) in
  let ntagged = get_count r in
  let room = r.stop - r.pos in
  (* regions: pids listed (by tag), slot pids, slot counts, bucket starts *)
  let ss = room / 2 and sb = (room / 4) + 1 in
  let buf = (scratch (npids + ss + ss + sb) 0).ints in
  Array.fill buf 0 npids (-1);
  let slot_at = npids and count_at = npids + ss and bucket_at = npids + ss + ss in
  buf.(bucket_at) <- 0;
  let nb = ref 0 and next = ref 0 in
  for _ = 1 to ntagged do
    let rank = get_rank r !next in
    if rank < 0 then fail r "p-histogram tag not in the tag vocabulary";
    next := rank + 1;
    let code = by_name.(rank) in
    if p_first.(code) >= 0 then fail r "duplicate p-histogram tag";
    let buckets = get_count r in
    if !nb + buckets >= sb then fail r "too many p-histogram buckets";
    p_first.(code) <- !nb;
    for _ = 1 to buckets do
      let s = buf.(bucket_at + !nb) in
      let k = get_count r in
      if k = 0 then fail r "empty p-histogram bucket";
      if s + k > ss then fail r "too many p-histogram slots";
      for j = s to s + k - 1 do
        let i = read_int r in
        (* estimation indexes the pids by these *)
        if i < 0 || i >= npids then fail r "p-histogram pid index out of range";
        if buf.(i) = code then fail r "p-histogram pid listed twice";
        buf.(i) <- code;
        buf.(slot_at + j) <- i
      done;
      if get_count r <> k then fail r "p-histogram bucket length mismatch";
      for j = s to s + k - 1 do
        buf.(count_at + j) <- read_int r
      done;
      incr nb;
      buf.(bucket_at + !nb) <- s + k
    done;
    p_stop.(code) <- !nb
  done;
  expect_end r;
  let nslots = buf.(bucket_at + !nb) in
  let bucket_start = Array.sub buf bucket_at (!nb + 1) in
  let slot_pid = Array.sub buf slot_at nslots and slot_count = Array.sub buf count_at nslots in
  let row code =
    if p_first.(code) < 0 then (0, 0)
    else (bucket_start.(p_first.(code)), bucket_start.(p_stop.(code)))
  in
  let r = section section_ohist in
  let o_first = Array.make ntags (-1) and o_stop = Array.make ntags (-1) in
  let ntagged = get_count r in
  let room = (r.stop - r.pos) / 12 in
  (* regions: x0, y0, x1, y1 *)
  let sc = scratch (4 * room) room in
  let buf = sc.ints and avg = sc.floats in
  let n = ref 0 and next = ref 0 in
  for _ = 1 to ntagged do
    let rank = get_rank r !next in
    if rank < 0 then fail r "o-histogram tag not in the tag vocabulary";
    next := rank + 1;
    let code = by_name.(rank) in
    if o_first.(code) >= 0 then fail r "duplicate o-histogram tag";
    (* the columns are the tag's row *)
    let lo, hi = row code in
    if get_count r <> hi - lo then fail r "o-histogram pid order differs from the p-histogram's";
    for s = lo to hi - 1 do
      if read_int r <> slot_pid.(s) then
        fail r "o-histogram pid order differs from the p-histogram's"
    done;
    let boxes = get_count r in
    if !n + boxes > room then fail r "too many o-histogram boxes";
    o_first.(code) <- !n;
    for k = !n to !n + boxes - 1 do
      let x0 = read_int r in
      let y0 = read_int r in
      let x1 = read_int r in
      let y1 = read_int r in
      if x0 < 0 || x0 > x1 || x1 >= hi - lo || y0 < 0 || y0 > y1 || y1 >= 2 * ntags then
        fail r "o-histogram box outside its grid";
      if r.pos + 8 > r.stop then fail r "truncated float";
      buf.(k) <- x0;
      buf.(room + k) <- y0;
      buf.((2 * room) + k) <- x1;
      buf.((3 * room) + k) <- y1;
      avg.(k) <- Int64.float_of_bits (String.get_int64_be r.data r.pos);
      r.pos <- r.pos + 8
    done;
    n := !n + boxes;
    o_stop.(code) <- !n
  done;
  expect_end r;
  let cut i = Array.sub buf (i * room) !n in
  let box_x0 = cut 0 and box_y0 = cut 1 and box_x1 = cut 2 and box_y1 = cut 3 in
  let box_avg = Array.sub avg 0 !n in
  {
    core =
      {
        p_variance;
        o_variance;
        tag_names;
        by_name;
        by_hash;
        path_start;
        path_tag;
        stride;
        pid_words;
        p_first;
        p_stop;
        bucket_start;
        slot_pid;
        slot_count;
        bucket_avg = bucket_averages bucket_start slot_count;
        o_first;
        o_stop;
        box_x0;
        box_y0;
        box_x1;
        box_y1;
        box_avg;
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
        Wire.section_readers ~context:(Printf.sprintf "synopsis section %S") h data)
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
