(** Runtime values of the mini-JVM, and the unboxed encoding every VM
    container stores them in.

    References carry a stable object id; the heap maps ids to simulated byte
    addresses, so values survive the sliding compaction of the collector
    unchanged. *)

type t =
  | Int of int
  | Ref of int  (** object id, stable across GC *)
  | Null

(* A value is stored as two ints: a payload (the int, the object id, or
   -1 for null) and a tag. Null has one canonical pair, so two values are
   equal exactly when both ints are. Its payload equals its tag, which
   lets [make] fill a slot array with nulls in one [Array.make]. *)
let tag_int = 0
let tag_ref = 1
let tag_null = -1
let null_payload = -1

let[@inline] payload_of = function
  | Int n -> n
  | Ref id -> id
  | Null -> null_payload

let[@inline] tag_of = function
  | Int _ -> tag_int
  | Ref _ -> tag_ref
  | Null -> tag_null

let of_pair p tag =
  if tag = tag_int then Int p else if tag = tag_ref then Ref p else Null

let[@inline] same p1 tag1 p2 tag2 = p1 = p2 && tag1 = tag2

(* A reference or null is its payload alone: the id, or -1 for null. *)
let[@inline] tag_of_id id = if id < 0 then tag_null else tag_ref
let of_id id = if id < 0 then Null else Ref id

(* ---- slot arrays ----

   Slot [i] of an interleaved [int array] is its payload at [2i] and its
   tag at [2i + 1]. [payload], [tag] and [set] do not check [i]: their
   callers either bound it by a capacity they maintain or call [check]
   first. The [int array] annotations let the compiler emit plain loads
   and stores, with no float-array test and no write barrier. *)
type slots = int array

let make n : slots = Array.make (2 * n) null_payload
let[@inline] length (a : slots) = Array.length a lsr 1
let[@inline] payload (a : slots) i = Array.unsafe_get a (2 * i)
let[@inline] tag (a : slots) i = Array.unsafe_get a ((2 * i) + 1)

let[@inline] set (a : slots) i p tag =
  Array.unsafe_set a (2 * i) p;
  Array.unsafe_set a ((2 * i) + 1) tag

let[@inline never] out_of_bounds () = invalid_arg "index out of bounds"

(* [Array.get]'s bounds check and error, for slot [i]. *)
let[@inline] check (a : slots) i = if i < 0 || i >= length a then out_of_bounds ()

let fill_null (a : slots) ~from =
  Array.fill a (2 * from) (Array.length a - (2 * from)) null_payload

let get a i =
  check a i;
  of_pair (payload a i) (tag a i)

let put a i v =
  check a i;
  set a i (payload_of v) (tag_of v)

let of_values vs =
  let a = make (Array.length vs) in
  Array.iteri (put a) vs;
  a

let to_values a = Array.init (length a) (get a)

let iter_refs (a : slots) n f =
  for i = 0 to n - 1 do
    if tag a i = tag_ref then f (payload a i)
  done

let to_string = function
  | Int n -> string_of_int n
  | Ref id -> Printf.sprintf "ref#%d" id
  | Null -> "null"
