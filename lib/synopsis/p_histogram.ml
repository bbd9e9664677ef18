module Stats = Xpest_util.Stats

type bucket = {
  pid_indices : int array;
  frequencies : int array;
  avg_frequency : float;
}

type t = {
  buckets : bucket list;
  by_pid : (int, float) Hashtbl.t;
  order : int array;
}

(* Population standard deviation of [k] values with running sum and
   sum of squares: sqrt (sumsq/k - (sum/k)^2). *)
let stddev ~sum ~sumsq ~k =
  let k = Float.of_int k in
  let mean = sum /. k in
  Float.sqrt (Float.max 0.0 ((sumsq /. k) -. (mean *. mean)))

let build ~variance entries =
  if variance < 0.0 then invalid_arg "P_histogram.build: negative variance";
  let sorted = Array.copy entries in
  Array.sort
    (fun (a : Pf_table.entry) b ->
      let c = Int.compare a.frequency b.frequency in
      if c <> 0 then c else Int.compare a.pid_index b.pid_index)
    sorted;
  let n = Array.length sorted in
  let buckets = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let sum = ref 0.0 and sumsq = ref 0.0 in
    let continue = ref true in
    (* Greedy scan: absorb the next entry while the deviation of the
       extended bucket stays within the threshold. *)
    while !continue && !i < n do
      let f = Float.of_int sorted.(!i).frequency in
      let sum' = !sum +. f and sumsq' = !sumsq +. (f *. f) in
      if stddev ~sum:sum' ~sumsq:sumsq' ~k:(!i - start + 1) <= variance then begin
        sum := sum';
        sumsq := sumsq';
        incr i
      end
      else continue := false
    done;
    let members = Array.sub sorted start (!i - start) in
    buckets :=
      {
        pid_indices = Array.map (fun (e : Pf_table.entry) -> e.pid_index) members;
        frequencies = Array.map (fun (e : Pf_table.entry) -> e.frequency) members;
        avg_frequency = !sum /. Float.of_int (Array.length members);
      }
      :: !buckets
  done;
  let buckets = List.rev !buckets in
  let by_pid = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Array.iter
        (fun pid -> Hashtbl.replace by_pid pid b.avg_frequency)
        b.pid_indices)
    buckets;
  let order =
    Array.of_list (List.concat_map (fun b -> Array.to_list b.pid_indices) buckets)
  in
  { buckets; by_pid; order }

let build_all ~variance pf =
  List.map
    (fun tag -> (tag, build ~variance (Pf_table.entries pf tag)))
    (Pf_table.tags pf)

let buckets t = t.buckets
let frequency t pid = Hashtbl.find_opt t.by_pid pid
let pid_order t = t.order

let max_intra_variance t =
  List.fold_left
    (fun acc b ->
      Float.max acc (Stats.variance (Array.map Float.of_int b.frequencies)))
    0.0 t.buckets

let byte_size t =
  List.fold_left
    (fun acc b -> acc + 6 + (2 * Array.length b.pid_indices))
    0 t.buckets
