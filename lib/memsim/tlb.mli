(** A fully-associative, LRU data TLB over virtual page numbers. *)

type t

val create : Config.tlb_params -> t
val params : t -> Config.tlb_params

val access : t -> addr:int -> bool
(** Demand translation: [true] on a hit (entry promoted to MRU), [false] on
    a miss — the caller charges the page-walk penalty and then {!fill}s. *)

val probe : t -> addr:int -> bool
(** Presence test with no LRU side effect. The hardware prefetch
    instruction is cancelled when this is [false] (Section 3.3). *)

val fill : t -> addr:int -> unit
(** Install the entry for [addr]'s page, evicting the LRU entry if full.
    Guarded prefetch loads use this for TLB priming. *)

val reset : t -> unit
val resident_pages : t -> int
