type t = { plan : int; run : int; resident_bytes : int option }

let caps plan run = { plan; run; resident_bytes = None }

let default =
  let c = Xpest_util.Bounded_cache.default_capacity in
  caps c c

(* Per-dataset capacities against the engine caches' working-set peaks
   observed at scale 0.1 (capacity / peak):

     dataset   plan          run
     SSPlays   2048 / 1357   2048 / 1353
     DBLP      4096 / 2170   4096 / 1689
     XMark     2048 / 1510   4096 / 1983

   Each capacity is a power of two at or above its peak, so none of
   these workloads evicts.  Four are the next power of two; the
   DBLP and XMark run caches are one doubling above that, for reasons
   not recorded. *)
let for_dataset dataset =
  match String.lowercase_ascii dataset with
  | "ssplays" -> caps 2048 2048
  | "dblp" -> caps 4096 4096
  | "xmark" -> caps 2048 4096
  | _ -> default
