(** Runtime values of the mini-JVM.

    References carry a stable object id; the heap maps ids to simulated byte
    addresses, so values survive the sliding compaction of the collector
    unchanged. *)

type t =
  | Int of int
  | Ref of int  (** object id, stable across GC *)
  | Null

(* Shared [Int] blocks for the common small integers (loop counters, array
   indices, character codes). Sharing is unobservable — values are only
   ever compared structurally — and saves both the minor-heap allocation
   per arithmetic result and the write barrier's remembered-set work when
   one is stored into a promoted stack or locals array (the shared blocks
   live in the major heap after startup, and old-to-old pointer stores
   take [caml_modify]'s cheapest path). *)
let small_min = -128
let small_max = 1023
let small = Array.init (small_max - small_min + 1) (fun i -> Int (i + small_min))

let[@inline] of_int n =
  if n >= small_min && n <= small_max then Array.unsafe_get small (n - small_min)
  else Int n

let[@inline] equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Ref x, Ref y -> x = y
  | Null, Null -> true
  | (Int _ | Ref _ | Null), _ -> false

let to_string = function
  | Int n -> string_of_int n
  | Ref id -> Printf.sprintf "ref#%d" id
  | Null -> "null"

let pp ppf v = Format.pp_print_string ppf (to_string v)
