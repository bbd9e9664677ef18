module Bitvec = Xpest_util.Bitvec
module Counters = Xpest_util.Counters
module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Po_table = Xpest_synopsis.Po_table
module Plan = Xpest_plan.Plan
module Bounded_cache = Xpest_util.Bounded_cache
module Cache_config = Xpest_plan.Cache_config

(* Observability: which estimation equations fire, and how often and
   how long [estimate] runs.  No-ops unless [Counters.set_enabled
   true]. *)
let c_theorem41 = Counters.create "estimator.eq.theorem_4_1"
let c_equation2 = Counters.create "estimator.eq.equation_2"
let c_equation3 = Counters.create "estimator.eq.equation_3"
let c_equation4 = Counters.create "estimator.eq.equation_4"
let c_equation5 = Counters.create "estimator.eq.equation_5"
let c_conversion = Counters.create "estimator.eq.conversion_5_3"
let c_guard_clamped = Counters.create "estimator.guard_clamped"
let c_plan_hit = Counters.create "estimator.plan_cache.hit"
let c_plan_miss = Counters.create "estimator.plan_cache.miss"
let c_plan_evict = Counters.create "estimator.plan_cache.evict"
let c_batch = Counters.create "estimator.batch.calls"
let c_batch_queries = Counters.create "estimator.batch.queries"
let c_batch_deduped = Counters.create "estimator.batch.deduped"
let t_estimate = Counters.create_timer "estimator.estimate"

type t = {
  summary : Summary.t;
  join : Path_join.t;
  plans : (Pattern.t, Plan.t) Bounded_cache.t;
  mutable tracing : string list ref option;
}

(* The plan cache can be owned externally: plans are
   summary-independent, so a pool serving many summaries (see
   [Xpest_catalog.Catalog]) shares one cache across all its
   estimators and compiles each distinct query once. *)
let create_plan_cache ?(capacity = Bounded_cache.default_capacity) () =
  Bounded_cache.create ~capacity ~hit:c_plan_hit ~miss:c_plan_miss
    ~evict:c_plan_evict ()

let create ?chain_pruning ?(config = Cache_config.default) ?plans summary =
  {
    summary;
    join = Path_join.create ?chain_pruning ~config summary;
    plans =
      (match plans with
      | Some cache -> cache
      | None -> create_plan_cache ~capacity:config.Cache_config.plan ());
    tracing = None;
  }

let summary t = t.summary

let plan_of t q = Bounded_cache.find_or_add t.plans q Plan.compile

(* Derivation tracing for [explain]: estimation functions [note] their
   key intermediate values, behind [tracing t] on the estimation path:
   outside [explain] a note neither formats nor evaluates its
   arguments (an unguarded [ifprintf] still costs ~50 ns a call). *)
let tracing t = Option.is_some t.tracing

let note t fmt =
  match t.tracing with
  | Some acc -> Printf.ksprintf (fun line -> acc := line :: !acc) fmt
  | None -> Printf.ifprintf () fmt

(* Estimates must be finite and non-negative.  A clamp of a NaN /
   infinite / negative intermediate is counted and traced; clamping an
   exact 0 (an emptied join or a vanished denominator) is the normal
   "no match" outcome and is not. *)
let guard t x =
  if Float.is_finite x && x > 0.0 then x
  else begin
    if x < 0.0 || not (Float.is_finite x) then begin
      Counters.incr c_guard_clamped;
      note t "guard: clamped non-finite/negative intermediate %g to 0" x
    end;
    0.0
  end

(* ------------------------------------------------------------------ *)
(* Branch-query estimation (Section 4).                                *)

(* Theorem 4.1 at a trunk node: the joined frequency of the node. *)
let trunk_frequency t spec position ~simple =
  Counters.incr c_theorem41;
  let f = Path_join.frequency (Path_join.exec t.join spec) position in
  if tracing t then
    if simple then note t "theorem 4.1: f_Q(n) = %g after the path join" f
    else note t "trunk target: f_Q(n) = %g after the path join" f;
  f

(* Equation (2): S_Q(n) ~ f_Q'(n) * f_Q(ni) / f_Q'(ni), with Q' the
   simple query [trunk/own] that drops the other branch, ni the last
   trunk node and [full] the join spec of Q. *)
let equation_2 t (e : Plan.eq2) full =
  Counters.incr c_equation2;
  let q'_result = Path_join.exec t.join e.Plan.q_prime in
  let f_q'_n = Path_join.frequency q'_result e.Plan.pos_in_q' in
  let f_q'_ni = Path_join.frequency q'_result e.Plan.ni in
  let f_q_ni = Path_join.frequency (Path_join.exec t.join full) e.Plan.ni in
  if tracing t then
    note t
      "equation 2: S_Q(n) ~ f_Q'(n) * f_Q(ni) / f_Q'(ni) = %g * %g / %g (Q' \
       drops the other branch; ni = last trunk node)"
      f_q'_n f_q_ni f_q'_ni;
  if f_q'_ni <= 0.0 then 0.0 else guard t (f_q'_n *. f_q_ni /. f_q'_ni)

(* ------------------------------------------------------------------ *)
(* Order-query estimation (Section 5).                                 *)

(* A head's order survival ratio S⃗_Q'(head) / S_Q'(head): the
   o-histogram sum over the head's surviving pids after the join on Q'
   (the counterpart with the other branch cut to its head), over the
   head's branch estimate in Q'. *)
let survival t (h : Plan.order_head) =
  let region : Po_table.region =
    match h.Plan.region with Plan.Before -> Before | Plan.After -> After
  in
  let s_arrow' =
    Path_join.order_sum
      (Path_join.exec t.join h.Plan.reduced)
      h.Plan.reduced_head
      (Summary.order_lookup t.summary ~tag:h.Plan.own_tag ~other:h.Plan.other_tag ~region)
  in
  let s_q' = equation_2 t h.Plan.via h.Plan.reduced in
  if tracing t then
    note t
      "order survival of the %s head: S⃗_Q'(head) = %g from the o-histogram, \
       S_Q'(head) = %g, ratio %g"
      (match h.Plan.head with Pattern.In_first _ -> "first" | _ -> "second")
      s_arrow' s_q'
      (if s_q' <= 0.0 then 0.0 else s_arrow' /. s_q');
  if s_q' <= 0.0 then 0.0 else s_arrow' /. s_q'

(* Sibling-axis order estimation (Equations 3-5) on compiled specs;
   [position] is the target. *)
let estimate_order t (o : Plan.order) position =
  let counterpart = o.Plan.counterpart in
  match o.Plan.bound with
  | Plan.Off_trunk { target; head } ->
      (* Equation (3) at a head, (4) below one: scale the order-free
         estimate by the head's order survival ratio. *)
      (match (position : Pattern.position) with
      | In_first 0 | In_second 0 -> Counters.incr c_equation3
      | _ -> Counters.incr c_equation4);
      guard t (equation_2 t target counterpart *. survival t head)
  | Plan.On_trunk { first; second } ->
      (* Equation (5): min of the order-free estimate and both sibling
         heads' order estimates. *)
      Counters.incr c_equation5;
      let s_plain = trunk_frequency t counterpart position ~simple:false in
      let s_first = guard t (equation_2 t first.Plan.via counterpart *. survival t first) in
      let s_second =
        guard t (equation_2 t second.Plan.via counterpart *. survival t second)
      in
      if tracing t then
        note t "equation 5: min(S_Q(n)=%g, S⃗_Q(first head)=%g, S⃗_Q(second head)=%g)"
          s_plain s_first s_second;
      Float.min s_plain (Float.min s_first s_second)

(* ------------------------------------------------------------------ *)
(* Following / Preceding conversion (paper Example 5.3).               *)

(* Distinct tag chains between the trunk tag and the second head's tag
   along the second head's surviving pids; [spec] joins the query. *)
let conversion_gaps t spec ~trunk ~second =
  let result = Path_join.exec t.join spec in
  let trunk_tag = (List.nth trunk (List.length trunk - 1)).Pattern.tag in
  let head_tag = (List.hd second).Pattern.tag in
  let gaps = ref [] in
  List.iter
    (fun (pid, _) ->
      Bitvec.iter_set_bits pid (fun bit ->
          List.iter
            (fun gap -> if not (List.mem gap !gaps) then gaps := gap :: !gaps)
            (Summary.gap_tags t.summary ~encoding:(bit + 1) ~anc:trunk_tag
               ~desc:head_tag)))
    (Path_join.pids result (Pattern.In_second 0));
  List.rev !gaps

(* Conversion_5_3: rewrite a following/preceding query into the set of
   sibling-axis queries spanned by the encoding-table gaps.  The gaps
   depend on the summary, so each rewrite compiles its order specs
   here, not through the plan cache: that cache holds only
   summary-independent plans, and the catalog shares one across every
   key's estimator, so a summary-specific rewrite stored there would
   be served to the other keys. *)
let estimate_conversion t (plan : Plan.t) =
  Counters.incr c_conversion;
  let trunk, first, axis, second =
    match Pattern.shape plan.Plan.pattern with
    | Pattern.Ordered { trunk; first; axis; second } -> (trunk, first, axis, second)
    | Pattern.Simple _ | Pattern.Branch _ -> assert false (* compile invariant *)
  in
  let sibling_axis : Pattern.order_axis =
    match axis with
    | Following -> Following_sibling
    | Preceding -> Preceding_sibling
    | Following_sibling | Preceding_sibling ->
        invalid_arg "Estimator: conversion of a sibling axis"
  in
  let gaps = conversion_gaps t plan.Plan.join ~trunk ~second in
  if tracing t then
    note t
      "%s-axis conversion (example 5.3): %d sibling-axis querie(s) via gaps [%s]"
      (match axis with Pattern.Following -> "following" | _ -> "preceding")
      (List.length gaps)
      (String.concat "; " (List.map (String.concat "/") gaps));
  let position = Pattern.target plan.Plan.pattern in
  List.fold_left
    (fun acc gap ->
      (* Rebuild [second] as a child chain through the gap. *)
      let chain =
        List.map (fun tag -> Pattern.{ axis = Child; tag }) gap
        @ Pattern.
            { axis = Child; tag = (List.hd second).Pattern.tag }
          :: List.tl second
      in
      let position' =
        match position with
        | Pattern.In_second i -> Pattern.In_second (List.length gap + i)
        | p -> p
      in
      acc
      +. estimate_order t
           (Plan.compile_order
              (Pattern.Ordered { trunk; first; axis = sibling_axis; second = chain })
              position')
           position')
    0.0 gaps

(* ------------------------------------------------------------------ *)
(* The executor: a match on the equation chosen at compile time; it
   only executes compiled join specs. *)

let execute t (plan : Plan.t) =
  let target = Pattern.target plan.Plan.pattern in
  match plan.Plan.equation with
  | Plan.Theorem_4_1 ->
      let simple =
        match Pattern.shape plan.Plan.pattern with
        | Pattern.Simple _ -> true
        | Pattern.Branch _ | Pattern.Ordered _ -> false
      in
      guard t (trunk_frequency t plan.Plan.join target ~simple)
  | Plan.Equation_2 -> (
      match plan.Plan.eq2 with
      | Some e -> guard t (equation_2 t e plan.Plan.join)
      | None -> assert false (* compile invariant *))
  | Plan.Equation_3 | Plan.Equation_4 | Plan.Equation_5 -> (
      match plan.Plan.order with
      | Some o -> guard t (estimate_order t o target)
      | None -> assert false (* compile invariant *))
  | Plan.Conversion_5_3 -> guard t (estimate_conversion t plan)

(* ------------------------------------------------------------------ *)

let estimate_position t (q : Pattern.t) position =
  execute t (plan_of t (Pattern.v (Pattern.shape q) position))

let estimate t q =
  Counters.time t_estimate (fun () -> execute t (plan_of t q))

let estimate_many t qs =
  if Array.length qs = 0 then
    (* strict no-op: no counters — pipeline stages may re-enter with
       empty groups and must leave no trace *)
    [||]
  else begin
    Counters.incr c_batch;
    Counters.add c_batch_queries (Array.length qs);
    (* Compile-dedupe-execute: identical normalized plans (same
       pattern, same target) run once; the executed value is reused
       bitwise for every duplicate.  Distinct patterns sharing
       sub-shapes still share joins through the run cache. *)
    let memo = Hashtbl.create (2 * Array.length qs + 1) in
    Array.map
      (fun q ->
        match Hashtbl.find_opt memo q with
        | Some v ->
            Counters.incr c_batch_deduped;
            v
        | None ->
            let v = estimate t q in
            Hashtbl.add memo q v;
            v)
      qs
  end

(* Error-safe entry points: the catalog's serving path must never
   let one poisoned query abort a batch, so exceptions escaping the
   engine (violated invariants on adversarial patterns) are demoted to
   typed Internal errors here, per query. *)

let try_estimate t q =
  match estimate t q with
  | v -> Ok v
  | exception Invalid_argument reason | exception Failure reason ->
      Error (Xpest_util.Xpest_error.Internal reason)

let try_estimate_many t qs =
  match estimate_many t qs with
  | vs -> Array.map (fun v -> Ok v) vs
  | exception (Invalid_argument _ | Failure _) ->
      (* one query poisoned the batched pass: fall back to per-query
         estimation, which is bit-identical for the healthy queries
         (the estimate_many contract) and isolates the failure. *)
      Array.map (fun q -> try_estimate t q) qs

type explanation = { value : float; derivation : string list }

let explain t q =
  let acc = ref [] in
  t.tracing <- Some acc;
  Fun.protect
    ~finally:(fun () -> t.tracing <- None)
    (fun () ->
      let value = estimate t q in
      { value; derivation = List.rev !acc })
