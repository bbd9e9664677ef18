(* The staged serving pipeline behind [Catalog.estimate_batch_r].

   Stages, in order:

     route    group queries by key, first-appearance order (pure)
     acquire  clock ticks, health/retry/quarantine bookkeeping,
              eviction decisions — single-owner, strictly in route
              order ([ops.commit])
     load     the only stage that touches I/O ([ops.load]), fanned out
              through a [Loader_pool] ahead of each key's acquire turn
              when the planner can prove the acquire will need it
     execute  per-key query groups, on the calling domain

   The catalog supplies the stage bodies; this module owns only the
   control flow, so the ordering contract lives in one place:

   - [ops.prefetchable] is called once per routed key, in route order,
     and only when the loader policy is concurrent.  It must not
     mutate serving state; it answers "will this key's acquire
     definitely call the loader, with an outcome independent of the
     commits before it?".  Keys it approves have [ops.load] submitted
     immediately; everyone else loads inline at commit time, exactly
     like the blocking path.
   - [ops.commit] runs on the calling domain, one key at a time, in
     route order — the acquire state machine never has two owners.  A
     prefetched future is passed when one was submitted; awaiting it
     at the commit point is what keeps blocking-policy loads on the
     sequential schedule.
   - Execution never mutates acquire state (estimators write disjoint
     output slots), so each group executes right after its commit,
     on the calling domain, while the loader pool keeps filling the
     remaining futures — that overlap is the pipeline's whole point. *)

module Loader_pool = Xpest_util.Loader_pool

type ('k, 'q) routed = {
  pairs : ('k * 'q) array;
  order : 'k array;  (* distinct keys, first-appearance order *)
  groups : ('k, int array) Hashtbl.t;  (* key -> indices into pairs *)
}

let route pairs =
  let tmp : ('k, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i (k, _) ->
      match Hashtbl.find_opt tmp k with
      | Some l -> l := i :: !l
      | None ->
          Hashtbl.add tmp k (ref [ i ]);
          order := k :: !order)
    pairs;
  let order = Array.of_list (List.rev !order) in
  let groups = Hashtbl.create (Array.length order) in
  Array.iter
    (fun k ->
      Hashtbl.add groups k (Array.of_list (List.rev !(Hashtbl.find tmp k))))
    order;
  { pairs; order; groups }

let group_count r = Array.length r.order
let group_indices r k = Hashtbl.find r.groups k

type ('k, 'load, 'est, 'err) ops = {
  prefetchable : 'k -> bool;
      (* route order, concurrent policies only; must not mutate *)
  load : 'k -> 'load;  (* pure I/O; may run on a loader domain *)
  commit : 'k -> prefetched:'load Loader_pool.future option -> ('est, 'err) result;
      (* single-owner acquire step, route order *)
  group_begin : 'k -> unit;  (* sequential-mode metric bracketing *)
  group_end : 'k -> unit;
}

let run ~loads ~ops ~fail ~execute routed =
  (* load stage: start provable-miss loads before their acquire turn *)
  let futures : ('k, 'load Loader_pool.future) Hashtbl.t = Hashtbl.create 8 in
  if Loader_pool.concurrent loads then
    Array.iter
      (fun k ->
        if ops.prefetchable k then
          Hashtbl.replace futures k
            (Loader_pool.submit loads (fun () -> ops.load k)))
      routed.order;
  (* acquire and execute fused: commit in route order, run each group
     as soon as its estimator is in hand *)
  Array.iter
    (fun k ->
      let idxs = group_indices routed k in
      ops.group_begin k;
      (match ops.commit k ~prefetched:(Hashtbl.find_opt futures k) with
      | Ok est -> execute est idxs
      | Error e -> fail e idxs);
      ops.group_end k)
    routed.order
