(** Runtime values of the mini-JVM.

    References carry a stable object id; the heap maps ids to simulated
    byte addresses, so values survive the sliding compaction of the
    collector unchanged. *)

type t =
  | Int of int
  | Ref of int  (** object id, stable across GC *)
  | Null

val of_int : int -> t
(** [of_int n] is [Int n], sharing one preallocated block per small [n]
    (the hot range of loop counters and array indices). Sharing is
    unobservable — values are only compared structurally — and spares the
    execution engine's arithmetic both the minor-heap allocation and the
    write barrier's remembered-set path when the result lands in a
    promoted operand stack. *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
