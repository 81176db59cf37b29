(** A set-associative, LRU-replacement cache with in-flight fills.

    Lines filled by a (hardware or software) prefetch carry a [ready_at]
    cycle; a demand access that arrives before the fill completes stalls for
    the residual time. This is what makes prefetch scheduling distance
    meaningful: a too-late prefetch removes only part of the miss latency,
    and a too-early prefetch can be evicted before use. *)

type t

type lookup = Hit | Hit_in_flight of int  (** residual fill cycles *) | Miss

val create : Config.cache_params -> t
val params : t -> Config.cache_params

val line_of : t -> int -> int
(** [line_of t addr] is the line index (address divided by line size). *)

val access : t -> addr:int -> now:int -> lookup
(** Demand lookup; promotes the line to most-recently-used on a hit. *)

val access_residual : t -> addr:int -> now:int -> int
(** Allocation-free {!access}: [min_int] on a miss, otherwise the residual
    fill cycles clamped to [>= 0] (0 meaning hit-and-ready). Identical
    state effects to {!access}; this is the interpreter's hot path. *)

val probe : t -> addr:int -> bool
(** Presence test with no LRU side effect (used by prefetch issue logic). *)

val fill : t -> addr:int -> ready_at:int -> unit
(** Install the line containing [addr], evicting the LRU way of its set. If
    the line is already present only its [ready_at] is lowered, never
    raised (a demand fill completes an in-flight prefetch). *)

val reset : t -> unit

val resident_lines : t -> int
(** Number of currently valid lines (for tests and occupancy reports). *)
