type t = { plan : int; run : int; resident_bytes : int option }

let caps plan run = { plan; run; resident_bytes = None }

let default =
  let c = Plan_cache.default_capacity in
  caps c c

(* Per-dataset capacities sized from the engine caches' working-set
   peaks at scale 0.1 (a power of two above each observed peak).
   Observed peaks — SSPlays: plan 1357 / run 1353; DBLP: plan 2170 /
   run 1689; XMark: plan 1510 / run 1983. *)
let for_dataset dataset =
  match String.lowercase_ascii dataset with
  | "ssplays" -> caps 2048 2048
  | "dblp" -> caps 4096 4096
  | "xmark" -> caps 2048 4096
  | _ -> default
