(* Differential testing of the catalog's routed batch path against
   fresh single-summary estimators.

   estimate_batch's contract extends estimate_many's: for every
   (key, query) pair in a mixed batch, the routed float must have the
   same bit pattern as a scalar Estimator.estimate call on a fresh
   estimator over that key's summary — no matter how the batch
   interleaves keys, how small the resident set is (capacity 1 evicts
   and reloads summaries mid-batch), or how much the pool-shared plan
   cache reuses compilations across summaries.  Checked over the full
   generated workload (all four query classes) of the three synthetic
   datasets with fixed seeds, each served at two variance targets. *)

module Pattern = Xpest_xpath.Pattern
module Summary = Xpest_synopsis.Summary
module Estimator = Xpest_estimator.Estimator
module Workload = Xpest_workload.Workload
module Registry = Xpest_datasets.Registry
module Catalog = Xpest_catalog.Catalog

let min_cases = 500

let profiles =
  [
    (Registry.Ssplays, 0.1, 8101);
    (Registry.Dblp, 0.05, 8102);
    (Registry.Xmark, 0.05, 8103);
  ]

let variances = [ 0.0; 2.0 ]

let workload_patterns ~wseed doc =
  let config =
    {
      Workload.default_config with
      seed = wseed;
      num_simple = 1500;
      num_branch = 1500;
    }
  in
  Workload.patterns (Workload.all_items (Workload.generate ~config doc))

(* The prepared universe: per dataset, its summaries at each variance
   and its workload.  Built once (the expensive part) and shared. *)
let universe =
  lazy
    (List.map
       (fun (name, scale, wseed) ->
         let doc = Registry.generate ~scale name in
         let dsname = String.lowercase_ascii (Registry.to_string name) in
         let summaries =
           List.map
             (fun v ->
               ( { Catalog.dataset = dsname; variance = v },
                 Summary.build ~p_variance:v ~o_variance:v doc ))
             variances
         in
         (dsname, summaries, workload_patterns ~wseed doc))
       profiles)

let loader k =
  let rec find = function
    | [] -> invalid_arg (Catalog.key_to_string k)
    | (_, summaries, _) :: rest -> (
        match
          List.find_opt (fun (k', _) -> k' = k) summaries
        with
        | Some (_, s) -> s
        | None -> find rest)
  in
  find (Lazy.force universe)

(* The mixed batch: every dataset's workload under each of its keys,
   interleaved by key so consecutive queries rarely share a summary —
   the grouping inside estimate_batch has to undo this. *)
let mixed_pairs () =
  let per_key =
    List.concat_map
      (fun (dsname, summaries, patterns) ->
        ignore dsname;
        List.map
          (fun (k, _) -> Array.map (fun q -> (k, q)) patterns)
          summaries)
      (Lazy.force universe)
  in
  let longest = List.fold_left (fun m a -> max m (Array.length a)) 0 per_key in
  let out = ref [] in
  for i = longest - 1 downto 0 do
    List.iter
      (fun a -> if i < Array.length a then out := a.(i) :: !out)
      per_key
  done;
  Array.of_list !out

(* Scalar reference: fresh estimator per key, memoized per test run. *)
let reference pairs =
  let ests = Hashtbl.create 8 in
  Array.map
    (fun (k, q) ->
      let est =
        match Hashtbl.find_opt ests k with
        | Some e -> e
        | None ->
            let e = Estimator.create (loader k) in
            Hashtbl.add ests k e;
            e
      in
      Estimator.estimate est q)
    pairs

(* Unwrap routed results; no fixture key may fail. *)
let values ~label routed =
  Array.mapi
    (fun i -> function
      | Ok v -> v
      | Error e ->
          Alcotest.failf "%s: pair %d: %s" label i
            (Xpest_util.Xpest_error.to_string e))
    routed

let check_bit_identical ~label expected routed =
  Alcotest.(check int)
    (label ^ ": lengths")
    (Array.length expected) (Array.length routed);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float routed.(i) then
        Alcotest.failf "%s: pair %d: fresh %h <> routed %h" label i e
          routed.(i))
    expected

let test_routing ~resident_capacity () =
  let pairs = mixed_pairs () in
  if Array.length pairs < min_cases then
    Alcotest.failf "only %d routed pairs (need >= %d)" (Array.length pairs)
      min_cases;
  let expected = reference pairs in
  let cat =
    Catalog.create_r ~resident_capacity ~loader:(fun k -> Ok (loader k)) ()
  in
  let routed =
    values ~label:"first pass" (Catalog.estimate_batch_r cat pairs)
  in
  check_bit_identical ~label:"routed vs fresh" expected routed;
  let st : Catalog.stats = Catalog.stats cat in
  let nkeys = List.length profiles * List.length variances in
  (* grouping promises at most one load per key per batch, so a single
     pass evicts (when capacity < keys) but cannot reload ... *)
  if resident_capacity < nkeys && st.Catalog.evictions = 0 then
    Alcotest.failf "capacity %d never evicted (%d keys)" resident_capacity
      nkeys;
  Alcotest.(check int) "one load per key in one pass" nkeys st.Catalog.loads;
  (* ... the second identical batch then reloads the evicted summaries
     — and must agree bitwise with the first *)
  let again =
    values ~label:"second pass" (Catalog.estimate_batch_r cat pairs)
  in
  check_bit_identical ~label:"second pass vs first" routed again;
  let st : Catalog.stats = Catalog.stats cat in
  if resident_capacity < nkeys then begin
    if st.Catalog.loads <= nkeys then
      Alcotest.failf "capacity %d never reloaded (loads %d <= keys %d)"
        resident_capacity st.Catalog.loads nkeys
  end
  else
    (* everything stayed resident: the second pass was pure pool hits *)
    Alcotest.(check int) "still one load per key" nkeys st.Catalog.loads;
  (* scalar routing agrees with batch routing *)
  let scalar_spot =
    Array.init 50 (fun i ->
        let k, q = pairs.(i * Array.length pairs / 50) in
        match Catalog.estimate_r cat k q with
        | Ok v -> v
        | Error e ->
            Alcotest.failf "scalar route, pair %d: %s" i
              (Xpest_util.Xpest_error.to_string e))
  in
  Array.iteri
    (fun i v ->
      let j = i * Array.length pairs / 50 in
      if Int64.bits_of_float v <> Int64.bits_of_float expected.(j) then
        Alcotest.failf "scalar route, pair %d: fresh %h <> routed %h" j
          expected.(j) v)
    scalar_spot

let () =
  let nkeys = List.length profiles * List.length variances in
  Alcotest.run "catalog_routing"
    [
      ( "bit_identity",
        [
          Alcotest.test_case "all summaries resident" `Slow
            (test_routing ~resident_capacity:nkeys);
          Alcotest.test_case "capacity 2 (evict + reload mid-batch)" `Slow
            (test_routing ~resident_capacity:2);
          Alcotest.test_case "capacity 1 (every group reloads)" `Slow
            (test_routing ~resident_capacity:1);
        ] );
    ]
