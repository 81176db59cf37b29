(** Mark-and-sweep collection with sliding compaction.

    This mirrors the collector of the evaluated JVM (Section 4): a
    traditional mark-and-sweep whose live objects are packed by sliding
    compaction, preserving their relative order on the heap — and therefore
    usually preserving the constant strides among live objects that the
    prefetching algorithm discovered. *)

type result = {
  live : int;  (** objects surviving the collection *)
  collected : int;  (** objects reclaimed *)
  live_bytes : int;  (** heap bytes in use after compaction *)
}

val collect : Heap.t -> roots:((int -> unit) -> unit) -> result
(** Mark from every object id [roots] visits, then compact. Root order is
    irrelevant: marking computes a set, compaction follows address order.
    Surviving ids stay valid; only simulated base addresses change. *)
