type t = {
  plan : int;
  run : int;
  segmented : bool;
  resident_bytes : int option;
}

let caps plan run = { plan; run; segmented = false; resident_bytes = None }

let default =
  let c = Plan_cache.default_capacity in
  caps c c

let uniform capacity =
  if capacity < 1 then invalid_arg "Cache_config.uniform: capacity must be >= 1";
  caps capacity capacity

(* Per-dataset defaults derived from the BENCH_engine.json cache peaks
   at scale 0.1 (next power of two above the observed peak).  Observed
   peaks — SSPlays: plan 1357 / run 1353; DBLP: plan 2170 / run 1689;
   XMark: plan 1510 / run 1983. *)
let builtin_for_dataset dataset =
  match String.lowercase_ascii dataset with
  | "ssplays" -> Some (caps 2048 2048)
  | "dblp" -> Some (caps 4096 4096)
  | "xmark" -> Some (caps 2048 4096)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Peak extraction from a live BENCH_engine.json.

   The container ships no JSON library, and the bench file is machine-
   written with a fixed shape, so a small string scan is enough: find
   the requested dataset's block ("dataset": "<name>" up to the next
   "dataset":), then the "plan" and "run" cache objects' "peak": <int>
   inside it; other cache objects (older files also list "rel" and
   "chain") are ignored.  Any
   deviation — missing file, missing dataset, missing cache, non-digit
   peak — yields None and the caller falls back to the built-in
   table.  Strictness over cleverness: a half-parsed file must never
   produce half-tuned capacities. *)

let find_sub ?(from = 0) haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  if from < 0 then None else go from

let int_after block key =
  match find_sub block ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i -> (
      let n = String.length block in
      let j = ref (i + String.length key + 3) in
      while !j < n && block.[!j] = ' ' do incr j done;
      let start = !j in
      while !j < n && block.[!j] >= '0' && block.[!j] <= '9' do incr j done;
      if !j = start then None
      else
        match int_of_string_opt (String.sub block start (!j - start)) with
        | Some v when v >= 0 -> Some v
        | _ -> None)

let cache_peak block name =
  match find_sub block ("\"" ^ name ^ "\":") with
  | None -> None
  | Some i ->
      (* the cache object is small and "peak" appears once inside it;
         scan a bounded window so we never read a later cache's peak *)
      let stop = min (String.length block) (i + 256) in
      int_after (String.sub block i (stop - i)) "peak"

let dataset_block text dataset =
  match find_sub text (Printf.sprintf "\"dataset\": %S" dataset) with
  | None -> None
  | Some i ->
      let stop =
        match find_sub ~from:(i + 1) text "\"dataset\":" with
        | Some j -> j
        | None -> String.length text
      in
      Some (String.sub text i (stop - i))

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception _ -> None)

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* One power of two of headroom above the observed peak (so a modest
   workload drift does not immediately thrash), floored at 512. *)
let derived_capacity peak = max 512 (next_pow2 (max 1 (2 * peak)))

let peaks_from_bench path dataset =
  match read_file path with
  | None -> None
  | Some text -> (
      match dataset_block text dataset with
      | None -> None
      | Some block -> (
          match (cache_peak block "plan", cache_peak block "run") with
          | Some p, Some u -> Some (p, u)
          | _ -> None))

let for_dataset ?bench_json dataset =
  let from_bench =
    match bench_json with
    | None -> None
    | Some path -> (
        match peaks_from_bench path (String.lowercase_ascii dataset) with
        | None -> None
        | Some (p, u) -> Some (caps (derived_capacity p) (derived_capacity u)))
  in
  match from_bench with
  | Some cfg -> cfg
  | None -> (
      match builtin_for_dataset dataset with Some cfg -> cfg | None -> default)
