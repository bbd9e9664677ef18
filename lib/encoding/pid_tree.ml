module Bitvec = Xpest_util.Bitvec

type node =
  | Leaf of int
  | Node of { id : int; left : node; right : node }
  | Absent
  | Zeros of int (* compressed: all-0 suffix leading to this leaf id *)
  | Ones of int (* compressed: all-1 suffix *)

type t = {
  root : node;
  width : int;
  pids : Bitvec.t array; (* index i = path id with integer id i+1 *)
  ids : (Bitvec.t, int) Hashtbl.t;
  uncompressed_nodes : int;
  compressed_nodes : int;
}

(* The distinct pids sorted in lexicographic bit order, so every trie
   node covers a contiguous index range [lo, hi) whose pids share their
   first [depth] bits: the zeros at bit [depth] come first, then the
   ones.  A node's id is the split index [m] (id [m] is the last zero's
   id, and one less than the first one's), and a single-pid range is
   its remaining bits, emitted already compressed. *)
let build pid_list =
  (match pid_list with
  | [] -> invalid_arg "Pid_tree.build: no path ids"
  | first :: rest ->
      if List.exists (fun v -> Bitvec.width v = 0) pid_list then
        invalid_arg "Pid_tree.build: zero-width path id";
      if List.exists (fun v -> Bitvec.width v <> Bitvec.width first) rest then
        invalid_arg "Pid_tree.build: mixed widths");
  let pids = Array.of_list (List.sort_uniq Bitvec.lex_compare pid_list) in
  let width = Bitvec.width pids.(0) in
  let uncompressed = ref 0 and compressed = ref 0 in
  (* first index of [lo, hi) with bit [depth] set *)
  let rec split lo hi depth =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Bitvec.get pids.(mid) depth then split lo mid depth
      else split (mid + 1) hi depth
  in
  (* Uncompressed, pid [i]'s bits from [depth] on are a chain of
     [width - depth] nodes and a leaf.  Compression folds the trailing
     run of equal bits, leaf included, into one [Zeros]/[Ones] marker
     and keeps the nodes above it. *)
  let suffix i depth =
    uncompressed := !uncompressed + (width - depth + 1);
    if depth = width then begin
      incr compressed;
      Leaf (i + 1)
    end
    else begin
      let pid = pids.(i) in
      let last = Bitvec.get pid (width - 1) in
      let run = ref (width - 1) in
      while !run > depth && Bitvec.get pid (!run - 1) = last do
        decr run
      done;
      compressed := !compressed + (!run - depth);
      let node = ref (if last then Ones (i + 1) else Zeros (i + 1)) in
      for d = !run - 1 downto depth do
        node :=
          if Bitvec.get pid d then Node { id = i; left = Absent; right = !node }
          else Node { id = i + 1; left = !node; right = Absent }
      done;
      !node
    end
  in
  let rec go lo hi depth =
    if hi - lo = 1 then suffix lo depth
    else begin
      let m = split lo hi depth in
      incr uncompressed;
      incr compressed;
      let left = if m > lo then go lo m (depth + 1) else Absent in
      let right = if hi > m then go m hi (depth + 1) else Absent in
      Node { id = m; left; right }
    end
  in
  let root = go 0 (Array.length pids) 0 in
  let ids = Hashtbl.create (Array.length pids) in
  Array.iteri (fun i pid -> Hashtbl.replace ids pid (i + 1)) pids;
  {
    root;
    width;
    pids;
    ids;
    uncompressed_nodes = !uncompressed;
    compressed_nodes = !compressed;
  }

let root t = t.root
let num_pids t = Array.length t.pids
let bit_width t = t.width

let id_of_pid t pid = Hashtbl.find_opt t.ids pid

let pid_of_id t id =
  if id < 1 || id > num_pids t then
    invalid_arg (Printf.sprintf "Pid_tree.pid_of_id: %d out of range" id);
  (* Reconstruct by navigation, exercising the tree structure (the
     [pids] array is only the reverse index). *)
  let bits = Array.make t.width false in
  let rec go depth = function
    | Leaf _ -> ()
    | Absent -> assert false
    | Zeros _ -> () (* bits already false *)
    | Ones _ ->
        for i = depth to t.width - 1 do
          bits.(i) <- true
        done
    | Node { id = nid; left; right } ->
        if id <= nid then go (depth + 1) left
        else begin
          bits.(depth) <- true;
          go (depth + 1) right
        end
  in
  go 0 t.root;
  Bitvec.of_bits bits

let uncompressed_node_count t = t.uncompressed_nodes
let node_count t = t.compressed_nodes
let byte_size t = 5 * t.compressed_nodes
let uncompressed_byte_size t = 5 * t.uncompressed_nodes
