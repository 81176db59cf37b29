(** Runtime values of the mini-JVM, and the unboxed encoding every VM
    container stores them in.

    References carry a stable object id; the heap maps ids to simulated
    byte addresses, so values survive the sliding compaction of the
    collector unchanged.

    [t] is the API type at the VM's boundaries ({!Interp.global},
    {!Interp.call}, the compile hook, {!Heap.get_field} and friends).
    Inside, the operand stacks, locals, object fields, statics and the
    closure engine's cached top of stack hold a value as two OCaml ints,
    a 63-bit payload and a tag, so storing one is a plain move: no box to
    allocate and no write barrier. This module alone spells the encoding;
    every other module reads and writes slots through the accessors
    below. *)

type t =
  | Int of int
  | Ref of int  (** object id, stable across GC *)
  | Null

(** {2 The pair encoding} *)

val tag_int : int
val tag_ref : int
val tag_null : int

val null_payload : int
(** -1. Null's pair is canonical, [(null_payload, tag_null)], so two
    values are equal exactly when their payloads and their tags are. *)

val payload_of : t -> int
(** The int, the object id, or {!null_payload}. *)

val tag_of : t -> int
val of_pair : int -> int -> t

val same : int -> int -> int -> int -> bool
(** [same p1 tag1 p2 tag2]: the two pairs encode equal values. *)

val tag_of_id : int -> int
(** A reference or null is its payload alone: an object id, or -1 for
    null (how ref arrays and prefetch registers hold them). This is the
    tag that goes with such a payload. *)

val of_id : int -> t

(** {2 Slot arrays}

    A slot array stores slot [i] interleaved, payload at [2i] and tag at
    [2i + 1], in one [int array]. *)

type slots = int array

val make : int -> slots
(** [make n]: [n] null slots. *)

val length : slots -> int
(** The number of slots. *)

val payload : slots -> int -> int
val tag : slots -> int -> int

val set : slots -> int -> int -> int -> unit
(** [set a i p tag]. [payload], [tag] and [set] do not check [i]: the
    caller bounds it by a capacity it maintains, or calls {!check}
    first. *)

val check : slots -> int -> unit
(** Raises [Invalid_argument "index out of bounds"], as [Array.get]
    would, unless [i] is a slot of the array. *)

val fill_null : slots -> from:int -> unit
(** Set every slot from [from] on to null. *)

val get : slots -> int -> t
(** Checked, like {!check}. *)

val put : slots -> int -> t -> unit
(** Checked, like {!check}. *)

val of_values : t array -> slots
val to_values : slots -> t array

val iter_refs : slots -> int -> (int -> unit) -> unit
(** [iter_refs a n f] calls [f] on the object id of every reference
    among the first [n] slots, in slot order. *)

val to_string : t -> string
