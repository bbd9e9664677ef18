module Bitvec = Xpest_util.Bitvec
module Counters = Xpest_util.Counters
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Plan = Xpest_plan.Plan
module Bounded_cache = Xpest_util.Bounded_cache
module Cache_config = Xpest_plan.Cache_config

(* Observability: run-cache effectiveness and pruning volume of the
   join.  All no-ops unless [Counters.set_enabled true].  Created once
   here and handed to the per-estimator run cache (see
   Xpest_util.Bounded_cache). *)
let c_run_hit = Counters.create "path_join.run_cache.hit"
let c_run_miss = Counters.create "path_join.run_cache.miss"
let c_run_evict = Counters.create "path_join.run_cache.evict"
let c_chain_pruned = Counters.create "path_join.pruned.chain_rows"
let c_anchor_pruned = Counters.create "path_join.pruned.anchor_rows"
let c_fixpoint_pruned = Counters.create "path_join.pruned.fixpoint_rows"
let t_run = Counters.create_timer "path_join.run_uncached"
let t_masks = Counters.create_timer "path_join.masks"
let t_fixpoint = Counters.create_timer "path_join.fixpoint"

(* A tag's p-histogram row, built once per summary on first use and
   shared, never copied, by every join over the tag.  Entry j is slot
   [lo + j] of the summary's p-histogram arrays (so j is the pid's
   column in the tag's o-histogram): [freq.(j)] is its frequency
   estimate, and path numbers [bits_at.(j) .. bits_at.(j + 1) - 1] of
   [bits] the paths its pid holds, listed once when the row is built,
   [bit_wide] bytes a path number (as wide as the summary's path count
   needs; bytes, which the GC does not scan).  Sets of entries are
   [words]-word bitsets, bit j standing for entry j.  Only the paths
   the tag holds get a slice: the set of entries whose pid holds the
   path.  [index] maps a path to 1 + its slice's number (0 where the
   tag does not hold the path), [wide] bytes per path; slice k is at
   [slices.(k * words ..)].  [tag] is the tag's code, -1 for a tag
   outside the summary.  [pairs] is the address in the join's memo of
   the first of the row's directories of container sets, 0 for none
   (see [containers]). *)
type row = {
  tag : int;
  lo : int;
  freq : float array;
  bits_at : int array;
  bits : Bytes.t;
  bit_wide : int;
  words : int;
  wide : int;
  index : Bytes.t;
  slices : int array;
  mutable pairs : int;
}

(* Unsigned numbers of [wide] (1, 2 or 4) bytes each, packed in a byte
   string: [wide_for n] is the width that holds the numbers below
   [n]. *)
let wide_for n = if n <= 0x100 then 1 else if n <= 0x10000 then 2 else 4

let get_num b wide i =
  match wide with
  | 1 -> Bytes.get_uint8 b i
  | 2 -> Bytes.get_uint16_le b (2 * i)
  | _ -> Int32.to_int (Bytes.get_int32_le b (4 * i))

let set_num b wide i v =
  match wide with
  | 1 -> Bytes.set_uint8 b i v
  | 2 -> Bytes.set_uint16_le b (2 * i) v
  | _ -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)

let nth_bit row b = get_num row.bits row.bit_wide b

(* A query node's survivors: a row set over its tag's row. *)
type jnode = { position : Pattern.position; row : row; set : int array }

type result = { summary : Summary.t; nodes : jnode array }

(* A pid is a bitvector over root-to-leaf paths (bit b = the path with
   encoding b + 1), so "a per-path property holds on some path of this
   pid" is one test of the pid's bits against the mask of paths where
   it holds.  Masks are path sets of [nw] words, [mask_bits] paths a
   word, computed bit-parallel over all paths at once from the depth
   index below, which is built once per summary from its coded paths
   and only read afterwards.  Tag ids are the summary's tag codes. *)
type t = {
  summary : Summary.t;
  flat : Summary.flat;
  chain_pruning : bool;
  npaths : int;
  nw : int;  (* words per path set *)
  depths : int;  (* the longest path's length *)
  cell : int array;
      (* tag id * depths + depth -> the offset in [index] of the paths
         carrying the tag at that depth (the root at depth 0), -1 where
         no path does *)
  index : int array;  (* the non-empty cells' path sets, packed *)
  occ_at : int array;
  occ : int array;
      (* tag id -> [occ.(occ_at.(id) .. occ_at.(id + 1) - 1)], the
         depths where [cell] is not -1, ascending *)
  rows : row array;
      (* tag id -> its row, [unbuilt] until first use: every catalog
         load creates a join, and a query touches few tags *)
  slot : int array;
      (* one cell per path, -1 but while a row is built (see
         [build_row]) *)
  mutable scratch : int array;
      (* the row sets a pruning step builds, reused by every step so
         that a fixpoint visit allocates nothing *)
  mutable paths : int array;
      (* the path sets a mask computation builds *)
  mutable live : Bytes.t;
      (* per path set of a chain's recurrence in [paths]: whether it is
         non-empty *)
  mutable memo : Bytes.t array;
  mutable memo_top : int;
      (* the containment memo: blocks of [memo_block] bytes, of which
         the first [memo_top] are handed out, from byte 8 on (see
         [containers]).
         Building [rows], writing the scratch buffers and filling the
         memo are safe because a join serves one domain at a time, like
         its run cache. *)
  (* one estimate joins the same shape repeatedly (counterpart,
     simplified counterpart, Q'), and join output only depends on the
     shape given a fixed summary: results are memoized on the spec's
     compiled key, one per distinct shape *)
  run_cache : (int, result) Bounded_cache.t;
}

(* Row sets: bit j of a set stands for row entry j, [slice_bits]
   entries per word. *)
let slice_bits = 62
let slice_words n = (n + slice_bits - 1) / slice_bits

(* Path sets: bit p of word p / [mask_bits] stands for path p, the
   layout of the summary's pid words. *)
let mask_bits = 62

(* The set of all [n] entries. *)
let full n =
  let set = Array.make (slice_words n) ((1 lsl slice_bits) - 1) in
  if n mod slice_bits > 0 then set.(n / slice_bits) <- (1 lsl (n mod slice_bits)) - 1;
  set

(* The slice number of path [p] in [row], -1 if the tag does not
   hold it. *)
let slice_of (row : row) p = get_num row.index row.wide p - 1

(* The row of tag [code], read from the summary's flat arrays: list
   each entry's paths from its pid's words, number the paths the
   entries hold as they are first met, fill their slices, then write
   the index, which is as wide as the number of held paths needs: a
   byte per path for all but the tags near the root of a document with
   many paths.  [slot], one cell per path, maps a held path to its
   number while the row is built and is -1 everywhere before and
   after. *)
let build_row (f : Summary.flat) slot code =
  let lo = Summary.row_start f code in
  let n = Summary.row_stop f code - lo in
  let freq = Array.make n 0.0 in
  if n > 0 then
    for b = f.p_first.(code) to f.p_stop.(code) - 1 do
      for s = f.bucket_start.(b) to f.bucket_start.(b + 1) - 1 do
        freq.(s - lo) <- f.bucket_avg.(b)
      done
    done;
  let stride = f.stride and words = f.pid_words in
  let bits_at = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let w0 = f.slot_pid.(lo + j) * stride and c = ref 0 in
    for w = w0 to w0 + stride - 1 do
      c := !c + Bitvec.popcount_word words.(w)
    done;
    bits_at.(j + 1) <- bits_at.(j) + !c
  done;
  let bit_wide = wide_for (Array.length slot) in
  let bits = Bytes.create (bits_at.(n) * bit_wide) in
  for j = 0 to n - 1 do
    let w0 = f.slot_pid.(lo + j) * stride and k = ref bits_at.(j) in
    for wi = 0 to stride - 1 do
      let w = ref words.(w0 + wi) in
      while !w <> 0 do
        let low = !w land - !w in
        set_num bits bit_wide !k ((wi * mask_bits) + Bitvec.bit_index low);
        incr k;
        w := !w lxor low
      done
    done
  done;
  let nbits = bits_at.(n) in
  let count = ref 0 in
  for b = 0 to nbits - 1 do
    let p = get_num bits bit_wide b in
    if slot.(p) < 0 then begin
      slot.(p) <- !count;
      incr count
    end
  done;
  let words = slice_words n in
  let wide = wide_for (!count + 1) in
  let slices = Array.make (!count * words) 0 in
  let index = Bytes.make (Array.length slot * wide) '\000' in
  for j = 0 to n - 1 do
    let word = j / slice_bits and bit = 1 lsl (j mod slice_bits) in
    for b = bits_at.(j) to bits_at.(j + 1) - 1 do
      let o = (slot.(get_num bits bit_wide b) * words) + word in
      slices.(o) <- slices.(o) lor bit
    done
  done;
  for b = 0 to nbits - 1 do
    let p = get_num bits bit_wide b in
    if slot.(p) >= 0 then begin
      set_num index wide p (slot.(p) + 1);
      slot.(p) <- -1
    end
  done;
  { tag = code; lo; freq; bits_at; bits; bit_wide; words; wide; index; slices; pairs = 0 }

let empty_row =
  {
    tag = -1;
    lo = 0;
    freq = [||];
    bits_at = [| 0 |];
    bits = Bytes.empty;
    bit_wide = 1;
    words = 0;
    wide = 1;
    index = Bytes.empty;
    slices = [||];
    pairs = 0;
  }

let unbuilt = { empty_row with tag = -2 }

let create ?(chain_pruning = true) ?(config = Cache_config.default) summary =
  let f = Summary.flat summary in
  let ntags = Array.length f.tag_names and npaths = Array.length f.path_start - 1 in
  let nw = (npaths + mask_bits - 1) / mask_bits in
  let depths = ref 0 in
  for p = 0 to npaths - 1 do
    depths := max !depths (f.path_start.(p + 1) - f.path_start.(p))
  done;
  let depths = !depths in
  (* offsets in path order of first occurrence, then the bits *)
  let cell = Array.make (ntags * depths) (-1) and ncells = ref 0 in
  for p = 0 to npaths - 1 do
    for i = f.path_start.(p) to f.path_start.(p + 1) - 1 do
      let c = (f.path_tag.(i) * depths) + i - f.path_start.(p) in
      if cell.(c) < 0 then begin
        cell.(c) <- !ncells * nw;
        incr ncells
      end
    done
  done;
  let index = Array.make (!ncells * nw) 0 in
  for p = 0 to npaths - 1 do
    for i = f.path_start.(p) to f.path_start.(p + 1) - 1 do
      let o = cell.((f.path_tag.(i) * depths) + i - f.path_start.(p)) + (p / mask_bits) in
      index.(o) <- index.(o) lor (1 lsl (p mod mask_bits))
    done
  done;
  let occ_at = Array.make (ntags + 1) 0 and occ = Array.make !ncells 0 in
  for id = 0 to ntags - 1 do
    let n = ref occ_at.(id) in
    for d = 0 to depths - 1 do
      if cell.((id * depths) + d) >= 0 then begin
        occ.(!n) <- d;
        incr n
      end
    done;
    occ_at.(id + 1) <- !n
  done;
  {
    summary;
    flat = f;
    chain_pruning;
    npaths;
    nw;
    depths;
    cell;
    index;
    occ_at;
    occ;
    rows = Array.make ntags unbuilt;
    slot = Array.make npaths (-1);
    scratch = [||];
    paths = [||];
    live = Bytes.empty;
    memo = [||];
    memo_top = 8;
    run_cache =
      Bounded_cache.create ~capacity:config.Cache_config.run ~hit:c_run_hit
        ~miss:c_run_miss ~evict:c_run_evict ();
  }

(* A tag outside the summary gets id -1: it is on no path and has no
   pids. *)
let id_of t tag = Summary.tag_code t.summary tag

(* The offset in [t.index] of the paths carrying tag [id] at depth
   [d]; -1 where none does or out of range. *)
let at t id d = if id < 0 || d < 0 || d >= t.depths then -1 else t.cell.((id * t.depths) + d)

(* The depths where tag [id] occurs are [t.occ.(occ_lo t id ..
   occ_hi t id - 1)], ascending. *)
let occ_lo t id = if id < 0 then 0 else t.occ_at.(id)
let occ_hi t id = if id < 0 then 0 else t.occ_at.(id + 1)

(* The path-set kernels: [nw]-word AND (with its zero test), OR and
   membership tests over sets held in int arrays at word offsets,
   written in place. *)

(* [dst.(o ..) <- a.(ia ..) land b.(ib ..)]; true iff not empty. *)
let inter_into dst o a ia b ib nw =
  let any = ref 0 in
  for i = 0 to nw - 1 do
    let v = a.(ia + i) land b.(ib + i) in
    dst.(o + i) <- v;
    any := !any lor v
  done;
  !any <> 0

(* [dst.(o ..) <- dst.(o ..) lor a.(ia ..)]. *)
let union_into dst o a ia nw =
  for i = 0 to nw - 1 do
    dst.(o + i) <- dst.(o + i) lor a.(ia + i)
  done

(* [dst.(o ..) <- dst.(o ..) lor (a.(ia ..) land b.(ib ..))]. *)
let union_inter_into dst o a ia b ib nw =
  for i = 0 to nw - 1 do
    dst.(o + i) <- dst.(o + i) lor (a.(ia + i) land b.(ib + i))
  done

(* True iff path [p] is in the set at [s.(o ..)]. *)
let mem_path s o p = s.(o + (p / mask_bits)) land (1 lsl (p mod mask_bits)) <> 0

(* True iff one of the paths [row] lists for entry [j] is in the set
   at [s.(o ..)]. *)
let meets s o row j =
  let hit = ref false and b = ref row.bits_at.(j) and b1 = row.bits_at.(j + 1) in
  while (not !hit) && !b < b1 do
    hit := mem_path s o (nth_bit row !b);
    incr b
  done;
  !hit

(* The non-empty flags of a chain's (node, depth) path sets. *)
let is_live live c = Bytes.unsafe_get live c <> '\000'
let mark live c = Bytes.unsafe_set live c '\001'

(* [t.paths] and [t.live], grown to at least [size] words and
   [flags] bytes. *)
let path_scratch t size flags =
  if Array.length t.paths < size then t.paths <- Array.make size 0;
  if Bytes.length t.live < flags then t.live <- Bytes.make flags '\000';
  t.paths

(* The chain masks of [spec] in [t.paths]: a chain's recurrence works
   below [masks_base], which leaves room for a chain through every
   spec node, and the chains' masks follow, chain after chain. *)
let masks_base t (spec : Plan.join_spec) =
  ((2 * Array.length spec.Plan.nodes * t.depths) + 1) * t.nw

let mask_scratch t (spec : Plan.join_spec) =
  let k = Array.length spec.Plan.nodes in
  ignore
    (path_scratch t
       (masks_base t spec + (List.length spec.Plan.chains * k * t.nw))
       (2 * k * t.depths))

(* Per chain node i, the paths into which the whole chain embeds with
   node i somewhere on them, written to [t.paths] at [m + i * nw]
   ([mask_scratch] sized the buffers).  Child steps demand adjacent
   depths, descendant steps any deeper one; an anchored head must sit
   at depth 0.  The forward/backward embedding recurrence runs over
   depths, one path set per (node, depth), so every path is decided at
   once.  Set c (forward i * depths + d, backward k * depths + i *
   depths + d) is at word c * nw, and flag c of [t.live] says it is
   not empty.  A node's sets are empty wherever its tag does not
   occur, so each loop walks only the occurrence depths of the tags it
   reads.  [nodes] gives each spec node's tag id, through its row. *)
let chain_masks_into t (spec : Plan.join_spec) nodes (c : Plan.chain) m =
  let ids = c.Plan.node_ids and nw = t.nw and depths = t.depths and index = t.index in
  let occ = t.occ in
  let k = Array.length ids in
  let cells = k * depths in
  let acc = 2 * cells * nw and s = t.paths and live = t.live in
  Bytes.fill live 0 (2 * cells) '\000';
  (* forward (i, d): prefix s_0..s_i embeds with s_i at depth d *)
  for i = 0 to k - 1 do
    let id = nodes.(ids.(i)).row.tag and here = i * depths in
    let d0 = occ_lo t id and d1 = occ_hi t id in
    if i = 0 then
      for n = d0 to d1 - 1 do
        let d = occ.(n) in
        if (not c.Plan.anchored) || d = 0 then begin
          Array.blit index (at t id d) s ((here + d) * nw) nw;
          mark live (here + d)
        end
      done
    else begin
      let prev = nodes.(ids.(i - 1)).row.tag and up = here - depths in
      match spec.Plan.node_axes.(ids.(i)) with
      | Pattern.Child ->
          for n = d0 to d1 - 1 do
            let d = occ.(n) in
            if
              d > 0
              && is_live live (up + d - 1)
              && inter_into s ((here + d) * nw) index (at t id d) s ((up + d - 1) * nw) nw
            then mark live (here + d)
          done
      | Pattern.Descendant ->
          (* [acc]: forward (i - 1) at some depth < d *)
          Array.fill s acc nw 0;
          let above = ref false and p = ref (occ_lo t prev) and p1 = occ_hi t prev in
          for n = d0 to d1 - 1 do
            let d = occ.(n) in
            while !p < p1 && occ.(!p) < d do
              if is_live live (up + occ.(!p)) then begin
                union_into s acc s ((up + occ.(!p)) * nw) nw;
                above := true
              end;
              incr p
            done;
            if !above && inter_into s ((here + d) * nw) index (at t id d) s acc nw then
              mark live (here + d)
          done
    end
  done;
  (* backward (i, d): suffix s_i..s_{k-1} embeds with s_i at depth d *)
  for i = k - 1 downto 0 do
    let id = nodes.(ids.(i)).row.tag and here = cells + (i * depths) in
    let d0 = occ_lo t id and d1 = occ_hi t id in
    if i = k - 1 then
      for n = d0 to d1 - 1 do
        let d = occ.(n) in
        Array.blit index (at t id d) s ((here + d) * nw) nw;
        mark live (here + d)
      done
    else begin
      let next = nodes.(ids.(i + 1)).row.tag and down = here + depths in
      match spec.Plan.node_axes.(ids.(i + 1)) with
      | Pattern.Child ->
          for n = d0 to d1 - 1 do
            let d = occ.(n) in
            if
              d + 1 < depths
              && is_live live (down + d + 1)
              && inter_into s ((here + d) * nw) index (at t id d) s ((down + d + 1) * nw) nw
            then mark live (here + d)
          done
      | Pattern.Descendant ->
          (* [acc]: backward (i + 1) at some depth > d *)
          Array.fill s acc nw 0;
          let below = ref false and p = ref (occ_hi t next - 1) and p0 = occ_lo t next in
          for n = d1 - 1 downto d0 do
            let d = occ.(n) in
            while !p >= p0 && occ.(!p) > d do
              if is_live live (down + occ.(!p)) then begin
                union_into s acc s ((down + occ.(!p)) * nw) nw;
                below := true
              end;
              decr p
            done;
            if !below && inter_into s ((here + d) * nw) index (at t id d) s acc nw then
              mark live (here + d)
          done
    end
  done;
  (* mask i: the OR over depths of forward (i, d) AND backward (i, d) *)
  for i = 0 to k - 1 do
    let o = m + (i * nw) and id = nodes.(ids.(i)).row.tag in
    Array.fill s o nw 0;
    for n = occ_lo t id to occ_hi t id - 1 do
      let f = (i * depths) + occ.(n) in
      if is_live live f && is_live live (cells + f) then
        union_inter_into s o s (f * nw) s ((cells + f) * nw) nw
    done
  done

(* The paths on which tag [a] stands in [axis]'s relation to tag [b],
   written to [s.(o ..)]: immediately above it for a child step
   (∨_d at(a, d-1) ∧ at(b, d)), anywhere above it for a descendant
   step (∨_d (∨_{p<d} at(a, p)) ∧ at(b, d)), d ranging over [b]'s
   depths; [s.(acc ..)] accumulates the ∨_{p<d}. *)
let edge_mask_into t s o ~acc ~(axis : Pattern.axis) a b =
  let nw = t.nw and index = t.index and occ = t.occ in
  let d0 = occ_lo t b and d1 = occ_hi t b in
  Array.fill s o nw 0;
  match axis with
  | Child ->
      for n = d0 to d1 - 1 do
        let d = occ.(n) in
        let up = at t a (d - 1) in
        if up >= 0 then union_inter_into s o index up index (at t b d) nw
      done
  | Descendant ->
      Array.fill s acc nw 0;
      let above = ref false and p = ref (occ_lo t a) and p1 = occ_hi t a in
      for n = d0 to d1 - 1 do
        let d = occ.(n) in
        while !p < p1 && occ.(!p) < d do
          union_into s acc index (at t a occ.(!p)) nw;
          above := true;
          incr p
        done;
        if !above then union_inter_into s o s acc index (at t b d) nw
      done

(* Tag [id]'s row, built on first use. *)
let row t id =
  if id < 0 then empty_row
  else begin
    let r = t.rows.(id) in
    if r != unbuilt then r
    else begin
      let r = build_row t.flat t.slot id in
      t.rows.(id) <- r;
      r
    end
  end

(* Every node of [spec] with its tag's whole row. *)
let start_nodes t (spec : Plan.join_spec) =
  Array.map
    (fun (n : Plan.jnode) ->
      let row = row t (id_of t n.Plan.tag) in
      { position = n.Plan.position; row; set = full (Array.length row.freq) })
    spec.Plan.nodes

(* The path set at [s.(o ..)] as a bitvector. *)
let to_bitvec t s o = Bitvec.of_bits (Array.init t.npaths (mem_path s o))

(* The oracle's views of the masks: copies out of the scratch. *)
let chain_masks t spec c =
  let nodes = start_nodes t spec and m = masks_base t spec in
  mask_scratch t spec;
  chain_masks_into t spec nodes c m;
  Array.init (Array.length c.Plan.node_ids) (fun i -> to_bitvec t t.paths (m + (i * t.nw)))

let edge_mask t ~axis ~anc ~desc =
  let s = path_scratch t (2 * t.nw) 0 in
  edge_mask_into t s 0 ~acc:t.nw ~axis (id_of t anc) (id_of t desc);
  to_bitvec t s 0

(* [t.scratch], at least [size] words long, its first [size] zeroed. *)
let scratch t size =
  if Array.length t.scratch < size then t.scratch <- Array.make size 0
  else Array.fill t.scratch 0 size 0;
  t.scratch

(* Keep the entries of [node.set] that are also in [s.(at ..)], and
   count the dropped ones. *)
let restrict counter node s at =
  let set = node.set and dropped = ref 0 in
  for i = 0 to Array.length set - 1 do
    dropped := !dropped + Bitvec.popcount_word (set.(i) land lnot s.(at + i));
    set.(i) <- set.(i) land s.(at + i)
  done;
  Counters.add counter !dropped;
  !dropped

(* Chain pruning: keep the entries whose pid holds a path of the mask
   at [masks.(o ..)], the OR of those paths' slices. *)
let chain_prune t node masks o =
  let row = node.row in
  let w = row.words in
  let s = scratch t w in
  if w > 0 then
    for wi = 0 to t.nw - 1 do
      let word = ref masks.(o + wi) in
      while !word <> 0 do
        let low = !word land - !word in
        let k = slice_of row ((wi * mask_bits) + Bitvec.bit_index low) in
        if k >= 0 then
          for i = 0 to w - 1 do
            s.(i) <- s.(i) lor row.slices.((k * w) + i)
          done;
        word := !word lxor low
      done
    done;
  ignore (restrict c_chain_pruned node s 0)

(* Anchor: keep only the entry (if any) whose pid is the root's, the
   last of the summary's pid words. *)
let anchor t node =
  let f = t.flat and row = node.row in
  let s = scratch t row.words in
  let root = (Array.length f.pid_words / f.stride) - 1 in
  for j = 0 to Array.length row.freq - 1 do
    if Summary.same_pid f f.slot_pid.(row.lo + j) root then
      s.(j / slice_bits) <- 1 lsl (j mod slice_bits)
  done;
  ignore (restrict c_anchor_pruned node s 0)

(* The containment memo.  For an edge (x, y), the x pids containing a
   y pid are the AND of the slices, in x's row, of the y pid's paths:
   its container set, which depends on the two rows alone, not on any
   query's survivors.  It is computed the first time a fixpoint visit
   asks for it and kept for the join's lifetime: a pass over the XMark
   workload asks for 302,459 container sets of 7,021 distinct (row,
   entry) pairs, and most of them in a join's first round, so a memo
   that lived for one join run would save little.  The memo is byte
   blocks of [memo_block] bytes, large enough to be allocated outside
   the minor heap, not scanned by the GC, and filled in place as the
   memo grows, so all but the last block are full.  Addresses are byte
   offsets into the blocks laid end to end, and every allocation starts
   at a multiple of 8, so no 4- or 8-byte number straddles two blocks.
   Numbers are written and read in the host's byte order, since the
   memo never leaves the process. *)
let memo_shift = 13
let memo_block = 1 lsl memo_shift

external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external bytes_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external bytes_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let memo_get t a =
  Int64.to_int (bytes_get64 t.memo.(a lsr memo_shift) (a land (memo_block - 1)))

let memo_set t a v =
  bytes_set64 t.memo.(a lsr memo_shift) (a land (memo_block - 1)) (Int64.of_int v)

(* 4-byte numbers: a tag, or an address held as a word address (a / 8),
   0 for none: byte 0 is never handed out. *)
let memo_get32 t a =
  Int32.to_int (bytes_get32 t.memo.(a lsr memo_shift) (a land (memo_block - 1))) land 0xFFFF_FFFF

let memo_set32 t a v =
  bytes_set32 t.memo.(a lsr memo_shift) (a land (memo_block - 1)) (Int32.of_int v)

(* [n] bytes of the memo, rounded up to a multiple of 8: their
   address. *)
let memo_alloc t n =
  let a = t.memo_top in
  t.memo_top <- a + ((n + 7) land lnot 7);
  while Array.length t.memo * memo_block < t.memo_top do
    t.memo <- Array.append t.memo [| Bytes.create memo_block |]
  done;
  a

(* The address of the directory of [y]'s entries' container sets in
   [x]: a 4-byte slot per entry of [y], holding the address of the
   entry's set once [container] has computed it.  Made on the first
   call for the pair.  A directory follows a header of [y]'s tag and
   the address of the next one of [x], so [x.pairs] heads a list of
   them in the memo.  A directory found is moved to the front: a row's
   next lookups are mostly for the same tag (over the XMark workload
   this cuts the steps of a pass's lookups from 120k to 30k).  Both
   rows are built and not empty: the shared [empty_row] and [unbuilt]
   never get a memo. *)
let containers t x y =
  let d = ref x.pairs and prev = ref 0 in
  while !d <> 0 && memo_get32 t !d <> y.tag do
    prev := !d;
    d := memo_get32 t (!d + 4) lsl 3
  done;
  if !d <> 0 then begin
    if !prev <> 0 then begin
      memo_set32 t (!prev + 4) (memo_get32 t (!d + 4));
      memo_set32 t (!d + 4) (x.pairs lsr 3);
      x.pairs <- !d
    end;
    !d + 8
  end
  else begin
    let n = Array.length y.freq in
    let d = memo_alloc t (8 + (4 * n)) in
    memo_set32 t d y.tag;
    memo_set32 t (d + 4) (x.pairs lsr 3);
    for j = 0 to n - 1 do
      memo_set32 t (d + 8 + (4 * j)) 0
    done;
    x.pairs <- d;
    d + 8
  end

(* The address of entry j's container set in [x], [x.words] words,
   computed on first use; [dir] is [containers t x y]. *)
let container t x y dir j =
  let a = memo_get32 t (dir + (4 * j)) lsl 3 in
  if a <> 0 then a
  else begin
    let w = x.words in
    let a = memo_alloc t (8 * w) in
    for i = 0 to w - 1 do
      memo_set t (a + (8 * i)) ((1 lsl slice_bits) - 1)
    done;
    for b = y.bits_at.(j) to y.bits_at.(j + 1) - 1 do
      let k = slice_of x (nth_bit y b) in
      for i = 0 to w - 1 do
        let v = if k < 0 then 0 else memo_get t (a + (8 * i)) land x.slices.((k * w) + i) in
        memo_set t (a + (8 * i)) v
      done
    done;
    memo_set32 t (dir + (4 * j)) (a lsr 3);
    a
  end

let memo_bytes t = t.memo_top - 8

(* One fixpoint visit of the edge (x, y): a y pid survives iff some x
   pid contains it (and, without chain pruning, it meets the edge's
   relation mask at [t.paths.(rel ..)]; [rel] is -1 with chain
   pruning), an x pid iff it contains a surviving y pid.  A y pid's
   partners are x's set ANDed with its container set from the memo,
   and x's survivors the OR of the surviving y pids' partners.  The
   word loops run over the non-zero words of x's set only: a large
   row's survivors usually fit in one word.  True iff anything was
   pruned. *)
let visit t x y rel =
  let xs = x.set and ys = y.set and w = x.row.words in
  let lo = ref 0 and hi = ref (w - 1) in
  while !lo < w && xs.(!lo) = 0 do incr lo done;
  while !hi >= !lo && xs.(!hi) = 0 do decr hi done;
  let lo = !lo and hi = !hi in
  (* scratch: x's survivors *)
  let s = scratch t w in
  let dir = if lo <= hi && Array.length ys > 0 then containers t x.row y.row else 0 in
  let dropped = ref 0 in
  for wi = 0 to Array.length ys - 1 do
    let word = ref ys.(wi) and b = ref 0 in
    while !word <> 0 do
      if !word land 1 <> 0 then begin
        let j = (wi * slice_bits) + !b in
        let any = ref 0 in
        if lo <= hi && (rel < 0 || meets t.paths rel y.row j) then begin
          let e = container t x.row y.row dir j in
          for i = lo to hi do
            let v = xs.(i) land memo_get t (e + (8 * i)) in
            s.(i) <- s.(i) lor v;
            any := !any lor v
          done
        end;
        if !any = 0 then begin
          ys.(wi) <- ys.(wi) land lnot (1 lsl !b);
          incr dropped
        end
      end;
      word := !word lsr 1;
      incr b
    done
  done;
  Counters.add c_fixpoint_pruned !dropped;
  restrict c_fixpoint_pruned x s 0 > 0 || !dropped > 0

(* The masks of the chains from the one whose masks go to [m] on. *)
let rec chains_masks t spec nodes m = function
  | [] -> ()
  | (c : Plan.chain) :: rest ->
      chain_masks_into t spec nodes c m;
      chains_masks t spec nodes (m + (Array.length c.Plan.node_ids * t.nw)) rest

(* Chain pruning: a pid can label a witness of chain node i only if
   the entire chain embeds into one of the pid's path types with node
   i somewhere on it. *)
let rec prune_chains t nodes m = function
  | [] -> ()
  | (c : Plan.chain) :: rest ->
      let ids = c.Plan.node_ids in
      for i = 0 to Array.length ids - 1 do
        chain_prune t nodes.(ids.(i)) t.paths (m + (i * t.nw))
      done;
      prune_chains t nodes (m + (Array.length ids * t.nw)) rest

(* Without chain pruning: edge e's relation mask, to [t.paths] at
   [e * nw]. *)
let rec edge_masks t nodes ~acc e = function
  | [] -> ()
  | (edge : Plan.jedge) :: rest ->
      edge_mask_into t t.paths (e * t.nw) ~acc ~axis:edge.Plan.axis
        nodes.(edge.Plan.parent).row.tag nodes.(edge.Plan.child).row.tag;
      edge_masks t nodes ~acc (e + 1) rest

(* One round of the fixpoint over the edges from the [e]th on; true
   iff anything was pruned. *)
let rec visit_edges t nodes e changed = function
  | [] -> changed
  | (edge : Plan.jedge) :: rest ->
      let rel = if t.chain_pruning then -1 else e * t.nw in
      let pruned = visit t nodes.(edge.Plan.parent) nodes.(edge.Plan.child) rel in
      visit_edges t nodes (e + 1) (changed || pruned) rest

(* Execute a compiled join spec (the chain/edge extraction happened at
   Plan compile time).  Masks and pruning steps work in the join's
   scratch buffers: a run allocates its result's nodes, a few closures
   and no path set. *)
let run_uncached t (spec : Plan.join_spec) =
  let nodes = start_nodes t spec in
  (* Every edge (x, y) lies on a chain in which x immediately precedes
     y, so y's chain mask lies inside the edge's relation mask and the
     pids chain pruning keeps all meet it: the edge masks are needed
     only without chain pruning.  Since [Pid_Y ⊆ Pid_X], the paths an
     edge's two pids share are [Pid_Y]'s, so the tag relation of an
     edge only depends on the descendant-side pid. *)
  if t.chain_pruning then begin
    let m = masks_base t spec in
    mask_scratch t spec;
    Counters.time t_masks (fun () -> chains_masks t spec nodes m spec.Plan.chains);
    prune_chains t nodes m spec.Plan.chains
  end
  else begin
    let acc = List.length spec.Plan.edges * t.nw in
    ignore (path_scratch t (acc + t.nw) 0);
    Counters.time t_masks (fun () -> edge_masks t nodes ~acc 0 spec.Plan.edges)
  end;
  (* Anchor: a Child first step means "child of the virtual document
     node", i.e. the document root itself: only the root's pid (the
     all-paths vector) on a matching tag can survive. *)
  (match spec.Plan.first_axis with
  | Pattern.Descendant -> ()
  | Pattern.Child -> anchor t nodes.(0));
  Counters.time t_fixpoint (fun () ->
      while visit_edges t nodes 0 false spec.Plan.edges do
        ()
      done);
  { summary = t.summary; nodes }

(* Memoized on the spec's compiled key: a hit is one int lookup. *)
let exec t (spec : Plan.join_spec) =
  match Bounded_cache.find t.run_cache spec.Plan.key with
  | r -> r
  | exception Not_found ->
      let r = Counters.time t_run (fun () -> run_uncached t spec) in
      Bounded_cache.add t.run_cache spec.Plan.key r;
      r

let same_position (a : Pattern.position) (b : Pattern.position) =
  match (a, b) with
  | In_trunk i, In_trunk j | In_branch i, In_branch j | In_tail i, In_tail j -> i = j
  | In_first i, In_first j | In_second i, In_second j -> i = j
  | (In_trunk _ | In_branch _ | In_tail _ | In_first _ | In_second _), _ -> false

let find result position =
  let nodes = result.nodes in
  let rec go i =
    if i = Array.length nodes then
      invalid_arg "Path_join: position not in the joined shape"
    else if same_position nodes.(i).position position then nodes.(i)
    else go (i + 1)
  in
  go 0

(* [f acc j] over the node's surviving entries j, in row order. *)
let fold_survivors f acc node =
  let acc = ref acc in
  Array.iteri
    (fun wi word ->
      let word = ref word and j = ref (wi * slice_bits) in
      while !word <> 0 do
        if !word land 1 <> 0 then acc := f !acc !j;
        word := !word lsr 1;
        incr j
      done)
    node.set;
  !acc

let pids result position =
  let node = find result position in
  let row = node.row and f = Summary.flat result.summary in
  List.rev
    (fold_survivors
       (fun acc j -> (Summary.pid result.summary f.slot_pid.(row.lo + j), row.freq.(j)) :: acc)
       [] node)

(* [f_Q(n)]: a float loop over the survivors, in row order from 0, so
   no partial sum is boxed. *)
let frequency result position =
  let node = find result position in
  let set = node.set and freq = node.row.freq in
  let acc = ref 0.0 in
  for wi = 0 to Array.length set - 1 do
    let word = ref set.(wi) and j = ref (wi * slice_bits) in
    while !word <> 0 do
      if !word land 1 <> 0 then acc := !acc +. freq.(!j);
      word := !word lsr 1;
      incr j
    done
  done;
  !acc

(* A survivor's row position is its column. *)
let order_sum result position cell =
  fold_survivors (fun acc j -> acc +. cell j) 0.0 (find result position)
