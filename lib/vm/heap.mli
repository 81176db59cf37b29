(** The simulated Java heap.

    Objects live at simulated byte addresses in a flat virtual address
    space, allocated by a bump allocator from {!Classfile.heap_base}. Object
    {e ids} are stable handles; GC compaction (see {!Gc_compact}) changes
    only the base addresses, sliding live objects towards the heap base
    while preserving their allocation order — the property the paper relies
    on for strides to survive collection ("live objects are packed by
    sliding compaction, which does not change their internal order on the
    heap", Section 4).

    The address map is total enough for speculative loads: {!value_at}
    recovers the value stored at any simulated address, and {!ref_at} the
    reference the [spec_load] pseudo-instruction will prefetch through.

    Storage is unboxed: an object's fields are {!Value.slots}, an int
    array holds its ints, and a ref array holds object ids with -1 for
    null. The [Value.t] accessors ({!get_field}, {!set_field},
    {!get_elem}, {!set_elem}, {!value_at}) convert at this boundary; the
    execution engines use the raw ones ({!fields}, {!elems},
    {!store_elem}, {!ref_at}). *)

type t

exception Out_of_memory
(** Raised by allocation when the bump pointer would pass the heap limit;
    the interpreter catches it, collects, and retries. *)

val create : ?limit_bytes:int -> unit -> t
(** [limit_bytes] defaults to 64 MiB. *)

val alloc_object : t -> Classfile.class_info -> int
(** Allocate a zeroed instance; returns its object id. *)

val alloc_int_array : t -> int -> int
val alloc_ref_array : t -> int -> int

val exists : t -> int -> bool
val base_of : t -> int -> int
val size_of : t -> int -> int

val class_id_of : t -> int -> int option
(** [None] for arrays. *)

val is_ref_array : t -> int -> bool

val raw_slots : t -> int -> int array
(** A copy of an object's storage as described above: its fields'
    {!Value.slots}, an int array's ints, or a ref array's ids. *)

(* Field access by slot index. *)
val get_field : t -> int -> int -> Value.t
val set_field : t -> int -> int -> Value.t -> unit

val fields : t -> int -> slot:int -> Value.slots
(** The field slots of object [id], after checking that [slot] is one of
    them ([Invalid_argument] otherwise, as for {!get_field}). *)

val field_addr : t -> int -> int -> int

(* Array access; int arrays yield [Value.Int]. Indices must be in bounds
   (the interpreter performs the bounds check via the length load). *)
val array_length : t -> int -> int
val length_addr : t -> int -> int
val get_elem : t -> int -> int -> Value.t
val set_elem : t -> int -> int -> Value.t -> unit

type elems
(** An array's contents. *)

val elems : t -> int -> elems
val elem_payload : elems -> int -> int
val elem_tag : elems -> int -> int
(** Element [i] of an array as a (payload, tag) pair. *)

val store_elem : t -> int -> int -> int -> int -> unit
(** [store_elem t id i payload tag]: {!set_elem} of the pair. *)

val elem_addr : t -> int -> int -> int

val value_at : t -> int -> Value.t option
(** The value stored at a simulated address, or [None] when the address
    falls outside any live object's data slots (header bytes included). *)

val ref_at : t -> int -> int
(** What a speculative load reads at a simulated address: the object id
    of the reference stored there, -1 when the slot holds an int or
    null, or {!no_slot} where {!value_at} is [None]. *)

val no_slot : int

val object_at : t -> int -> int option
(** The id of the object whose extent contains the address, if any. *)

val live_objects : t -> int
val used_bytes : t -> int
val limit_bytes : t -> int

val iter_ids_in_address_order : t -> (int -> unit) -> unit

val mark_compact : t -> roots:((int -> unit) -> unit) -> int
(** The collector behind {!Gc_compact.collect}, which documents it;
    returns the number of objects removed. Allocates only to grow its
    mark table and mark stack. *)

val check_invariants : t -> (unit, string) result
(** For tests: objects are gap-free in address order from the heap base,
    each id slot holds its object or the tombstone, no mark is set. *)
