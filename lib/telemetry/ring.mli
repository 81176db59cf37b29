(** A preallocated, overwrite-on-wrap ring buffer. The backing array is
    allocated once; [add] never allocates or grows memory, so the event
    stream imposes bounded overhead however long the run. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
val add : 'a t -> 'a -> unit

val total : 'a t -> int
(** Entries ever added (including overwritten ones). *)

val length : 'a t -> int
(** Entries currently retained ([min total capacity]). *)

val dropped : 'a t -> int
(** Entries lost to wrap-around ([max 0 (total - capacity)]). *)

val to_list : 'a t -> 'a list
(** Oldest-first snapshot of the retained window. *)

val iter : 'a t -> ('a -> unit) -> unit
