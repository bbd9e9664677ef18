(* Properties and differentials for the unified cache core
   (Xpest_util.Bounded_cache):

   - model differential: the Lru policy against a naive reference LRU
     (association list), op-for-op — recency order, lookup results,
     lengths;
   - cost conservation: [stats.s_cost] always equals the fold-summed
     per-entry cost, never exceeds capacity without pins, and
     [s_length = s_probationary + s_protected];
   - pin-never-evicted: a resident pinned key survives any amount of
     insert pressure until unpinned or explicitly removed;
   - segment invariant: the protected segment never outgrows
     [protected_ratio] of capacity (unit cost);
   - scan resistance: on a hot-keys-plus-cold-scan workload at the
     same budget, Segmented strictly out-hits plain Lru — the
     deterministic core of the catalog's thrash trace (test_catalog);
   - unit cases of the default cache: eviction counts, find_or_add's
     compute-once contract, overwrite, and the capacity bound. *)

module Bounded_cache = Xpest_util.Bounded_cache

(* ------------------------------------------------------------------ *)
(* Op sequences over a small key space.                                *)

type op =
  | Find of int
  | Add of int * int
  | Remove of int
  | Pin of int
  | Unpin of int
  | Clear

let op_gen ~pins =
  QCheck.Gen.(
    let key = int_range 0 9 in
    let base =
      [
        (4, map (fun k -> Find k) key);
        (6, map2 (fun k v -> Add (k, v)) key (int_range 0 100));
        (1, map (fun k -> Remove k) key);
        (1, return Clear);
      ]
    in
    let with_pins =
      if pins then
        (2, map (fun k -> Pin k) key)
        :: (1, map (fun k -> Unpin k) key)
        :: base
      else base
    in
    frequency with_pins)

let show_op = function
  | Find k -> Printf.sprintf "Find %d" k
  | Add (k, v) -> Printf.sprintf "Add (%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Pin k -> Printf.sprintf "Pin %d" k
  | Unpin k -> Printf.sprintf "Unpin %d" k
  | Clear -> "Clear"

let arb_ops ~pins n =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 n) (op_gen ~pins))

(* ------------------------------------------------------------------ *)
(* Reference model: plain LRU as an association list, MRU first.       *)

module Model = struct
  type t = { capacity : int; mutable entries : (int * int) list }

  let create capacity = { capacity; entries = [] }

  let find m k =
    match List.assoc_opt k m.entries with
    | None -> None
    | Some v ->
        m.entries <- (k, v) :: List.remove_assoc k m.entries;
        Some v

  let add m k v =
    let rest = List.remove_assoc k m.entries in
    let rest =
      if List.mem_assoc k m.entries then rest
      else if List.length rest >= m.capacity then
        List.filteri (fun i _ -> i < m.capacity - 1) rest
      else rest
    in
    m.entries <- (k, v) :: rest

  let remove m k = m.entries <- List.remove_assoc k m.entries
  let clear m = m.entries <- []
  let keys m = List.map fst m.entries
end

let test_lru_differential =
  QCheck.Test.make ~name:"Lru matches the reference model" ~count:300
    (arb_ops ~pins:false 80) (fun ops ->
      let cache = Bounded_cache.create ~capacity:4 () in
      let model = Model.create 4 in
      List.for_all
        (fun op ->
          (match op with
          | Find k ->
              let a = Bounded_cache.find_opt cache k and b = Model.find model k in
              if a <> b then QCheck.Test.fail_reportf "find %d diverged" k
          | Add (k, v) ->
              Bounded_cache.add cache k v;
              Model.add model k v
          | Remove k ->
              Bounded_cache.remove cache k;
              Model.remove model k
          | Clear ->
              Bounded_cache.clear cache;
              Model.clear model
          | Pin _ | Unpin _ -> ());
          Bounded_cache.keys_by_recency cache = Model.keys model
          && Bounded_cache.length cache = List.length model.Model.entries)
        ops)

(* ------------------------------------------------------------------ *)
(* Cost conservation under a non-unit cost function.                   *)

let entry_cost k _v = (k mod 3) + 1

let test_cost_conservation =
  QCheck.Test.make ~name:"cost = sum of entry costs, within budget"
    ~count:300 (arb_ops ~pins:false 80) (fun ops ->
      let cache =
        Bounded_cache.create ~capacity:8 ~policy:Bounded_cache.segmented
          ~cost:entry_cost ()
      in
      List.for_all
        (fun op ->
          (match op with
          | Find k -> ignore (Bounded_cache.find_opt cache k)
          | Add (k, v) -> Bounded_cache.add cache k v
          | Remove k -> Bounded_cache.remove cache k
          | Clear -> Bounded_cache.clear cache
          | Pin _ | Unpin _ -> ());
          let st = Bounded_cache.stats cache in
          let summed =
            Bounded_cache.fold (fun k v acc -> acc + entry_cost k v) cache 0
          in
          st.Bounded_cache.s_cost = summed
          && st.Bounded_cache.s_cost <= st.Bounded_cache.s_capacity
          && st.Bounded_cache.s_length
             = st.Bounded_cache.s_probationary + st.Bounded_cache.s_protected)
        ops)

(* ------------------------------------------------------------------ *)
(* Pinned residents survive any insert pressure.                       *)

let test_pin_never_evicted =
  QCheck.Test.make ~name:"pinned residents never evicted" ~count:300
    (arb_ops ~pins:true 80) (fun ops ->
      let cache =
        Bounded_cache.create ~capacity:3 ~policy:Bounded_cache.segmented ()
      in
      List.for_all
        (fun op ->
          (* snapshot the keys the op must not displace: resident and
             pinned, unless the op itself removes/unpins them *)
          let protected_now =
            List.filter
              (fun k -> Bounded_cache.pinned cache k)
              (Bounded_cache.keys_by_recency cache)
          in
          let exempt =
            match op with
            | Remove k | Unpin k -> Some k
            | Clear -> None
            | _ -> Some min_int
          in
          (match op with
          | Find k -> ignore (Bounded_cache.find_opt cache k)
          | Add (k, v) -> Bounded_cache.add cache k v
          | Remove k -> Bounded_cache.remove cache k
          | Pin k -> Bounded_cache.pin cache k
          | Unpin k -> Bounded_cache.unpin cache k
          | Clear -> Bounded_cache.clear cache);
          match (op, exempt) with
          | Clear, _ -> true (* clear legitimately drops everything *)
          | _, ex ->
              List.for_all
                (fun k -> Some k = ex || Bounded_cache.mem cache k)
                protected_now)
        ops)

(* ------------------------------------------------------------------ *)
(* Protected segment stays within its ratio (unit cost).               *)

let test_segment_bound =
  QCheck.Test.make ~name:"protected segment bounded by ratio" ~count:300
    QCheck.(pair (int_range 2 16) (arb_ops ~pins:false 80))
    (fun (capacity, ops) ->
      let cache =
        Bounded_cache.create ~capacity ~policy:Bounded_cache.segmented ()
      in
      let bound =
        max 1
          (int_of_float
             (Bounded_cache.default_protected_ratio *. float_of_int capacity))
      in
      List.for_all
        (fun op ->
          (match op with
          | Find k -> ignore (Bounded_cache.find_opt cache k)
          | Add (k, v) -> Bounded_cache.add cache k v
          | Remove k -> Bounded_cache.remove cache k
          | Clear -> Bounded_cache.clear cache
          | Pin _ | Unpin _ -> ());
          let st = Bounded_cache.stats cache in
          st.Bounded_cache.s_protected <= bound
          && st.Bounded_cache.s_cost <= capacity)
        ops)

(* ------------------------------------------------------------------ *)
(* Scan resistance: the cache-core twin of the catalog thrash trace.  *)

(* Hot keys are touched twice in a row each round (second touch =
   2Q promotion), then a cold scan wider than the budget flushes the
   probationary segment.  Plain LRU loses the hot keys to every scan
   and only scores the immediate repeats; Segmented keeps them
   protected from round 2 on. *)
let thrash_hits policy =
  let cache = Bounded_cache.create ~capacity:4 ~policy () in
  let touch k = ignore (Bounded_cache.find_or_add cache k (fun k -> k)) in
  for _round = 1 to 8 do
    List.iter touch [ 0; 0; 1; 1 ];
    for cold = 100 to 107 do
      touch cold
    done
  done;
  (Bounded_cache.stats cache).Bounded_cache.s_hits

let test_scan_resistance () =
  let lru = thrash_hits Bounded_cache.Lru in
  let seg = thrash_hits Bounded_cache.segmented in
  (* LRU: 2 immediate-repeat hits per round.  Segmented: 2 in round
     one, then all 4 hot touches hit. *)
  Alcotest.(check int) "lru hits" 16 lru;
  Alcotest.(check int) "segmented hits" 30 seg;
  Alcotest.(check bool) "segmented strictly out-hits lru" true (seg > lru)

(* ------------------------------------------------------------------ *)
(* Unit cases of the default (Lru, unit-cost) cache.                  *)

let test_cache_basics () =
  let c = Bounded_cache.create ~capacity:2 () in
  Bounded_cache.add c "a" 1;
  Bounded_cache.add c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Bounded_cache.find_opt c "a");
  (* "a" was just used, so inserting "c" evicts "b" *)
  Bounded_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Bounded_cache.find_opt c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Bounded_cache.find_opt c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Bounded_cache.find_opt c "c");
  Alcotest.(check int) "length" 2 (Bounded_cache.length c);
  Alcotest.(check int) "capacity" 2 (Bounded_cache.capacity c);
  Alcotest.(check int) "evictions" 1 (Bounded_cache.evictions c)

let test_cache_find_or_add () =
  let c = Bounded_cache.create ~capacity:8 () in
  let computed = ref 0 in
  let compute k =
    incr computed;
    k * 10
  in
  Alcotest.(check int) "computed" 10 (Bounded_cache.find_or_add c 1 compute);
  Alcotest.(check int) "cached" 10 (Bounded_cache.find_or_add c 1 compute);
  Alcotest.(check int) "compute ran once" 1 !computed;
  Bounded_cache.clear c;
  Alcotest.(check int) "cleared" 0 (Bounded_cache.length c);
  Alcotest.(check int) "recomputed" 10 (Bounded_cache.find_or_add c 1 compute);
  Alcotest.(check int) "compute ran again" 2 !computed

let test_cache_overwrite_and_bounds () =
  let c = Bounded_cache.create ~capacity:2 () in
  Bounded_cache.add c "k" 1;
  Bounded_cache.add c "k" 2;
  Alcotest.(check (option int)) "overwrite" (Some 2) (Bounded_cache.find_opt c "k");
  Alcotest.(check int) "no duplicate entry" 1 (Bounded_cache.length c);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Bounded_cache.create: capacity must be >= 1") (fun () ->
      ignore (Bounded_cache.create ~capacity:0 ()));
  (* hammer a capacity-1 cache: never grows past its bound *)
  let tiny = Bounded_cache.create ~capacity:1 () in
  for i = 1 to 100 do
    Bounded_cache.add tiny i i
  done;
  Alcotest.(check int) "bounded" 1 (Bounded_cache.length tiny);
  Alcotest.(check int) "evictions counted" 99 (Bounded_cache.evictions tiny);
  Alcotest.(check (option int)) "newest kept" (Some 100)
    (Bounded_cache.find_opt tiny 100)

let () =
  Alcotest.run "bounded_cache"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            test_lru_differential;
            test_cost_conservation;
            test_pin_never_evicted;
            test_segment_bound;
          ] );
      ( "thrash",
        [
          Alcotest.test_case "scan resistance (hot + cold scan)" `Quick
            test_scan_resistance;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "find_or_add" `Quick test_cache_find_or_add;
          Alcotest.test_case "overwrite and bounds" `Quick
            test_cache_overwrite_and_bounds;
        ] );
    ]
