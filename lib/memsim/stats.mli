(** Event counters for a simulated run.

    The paper's evaluation metric is MPI (misses per retired instruction):
    the number of dynamic miss {e events} divided by the number of retired
    instructions (Section 4.2). Counters here follow that definition; the
    retired-instruction count is maintained by the interpreter and stored
    here so that MPIs can be computed in one place. *)

type t = {
  mutable loads : int;  (** demand loads issued *)
  mutable stores : int;  (** demand stores issued *)
  mutable l1_load_misses : int;
  mutable l1_store_misses : int;
  mutable l2_load_misses : int;
  mutable l2_store_misses : int;
  mutable dtlb_load_misses : int;
  mutable dtlb_store_misses : int;
  mutable in_flight_hits : int;
      (** demand accesses that found their line still being filled *)
  mutable sw_prefetches : int;  (** software prefetch instructions executed *)
  mutable sw_prefetches_cancelled : int;
      (** hardware-form prefetches dropped because of a DTLB miss *)
  mutable sw_prefetch_useless : int;
      (** prefetches whose target line was already cached *)
  mutable guarded_loads : int;
  mutable hw_prefetches : int;  (** lines fetched by the stream prefetcher *)
  mutable retired_instructions : int;
  mutable cycles : int;
  mutable stall_cycles : int;  (** memory stall part of [cycles] *)
  mutable in_flight_demand_hits : int;
      (** telemetry only: in-flight hits whose fill was {e not} initiated
          by an attributed software prefetch (demand or hardware-stream
          shadowing); zero in a plain run *)
  mutable sw_prefetch_late : int;
      (** telemetry only: demand arrived while an attributed software
          prefetch's fill was still in flight; zero in a plain run *)
  mutable sw_prefetch_useful : int;
      (** telemetry only: demand found an attributed software prefetch's
          line present and ready; zero in a plain run *)
  mutable sw_prefetch_redundant_hw : int;
      (** telemetry only: software prefetches whose target line was
          already cached {e because the hardware prefetcher fetched it} —
          the [redundant_with_hw] refinement of [sw_prefetch_useless];
          zero in a plain run *)
  mutable hw_prefetch_useful : int;
      (** telemetry only: demand accesses that found a line the hardware
          prefetcher had fetched (first touch per fill); zero in a plain
          run *)
}

val create : unit -> t

val fields : (string * (t -> int) * (t -> int -> unit)) list
(** The canonical counter list: one (name, getter, setter) triple per
    record field, in declaration order. [reset]/[copy_into]/[add] and
    the serializers are derived from it; a unit test checks its length
    against the runtime size of the record so a new counter cannot be
    added without extending it. *)

val telemetry_only : string list
(** Names of counters maintained only while the hierarchy has an
    attribution installed. Telemetry-on/off comparisons must ignore
    exactly these. *)

val to_alist : t -> (string * int) list
val core_alist : t -> (string * int) list
(** [to_alist] minus the {!telemetry_only} counters. *)

val reset : t -> unit
val copy : t -> t

val copy_into : t -> into:t -> unit
(** Overwrite every counter of [into] with the values of [t]. The single
    canonical field list — callers that snapshot counters (e.g. the
    monitor's window baseline) use this so that adding a counter cannot
    silently desynchronize them. *)

val add : t -> t -> t
(** [add a b] is a fresh counter set with the component-wise sum. *)

val delta : t -> t -> t
(** [delta a b] is a fresh counter set with the component-wise difference
    [a - b] — the windowed-counter helper: with [b] a snapshot taken at
    the previous window boundary and [a] the live counters, the result is
    exactly what happened inside the window. Derived from {!fields}, so a
    newly added counter participates automatically. *)

val delta_into : t -> t -> into:t -> unit
(** Allocation-free [delta]: overwrite every counter of [into] with
    [a - b]. The monitor's per-window sampling uses this so closing a
    window costs no allocation beyond the retained window record. *)

val l1_load_mpi : t -> float
val l2_load_mpi : t -> float
val dtlb_load_mpi : t -> float
(** Miss events per retired instruction; 0.0 when nothing retired. *)

val pp : Format.formatter -> t -> unit
val pp_mpi : Format.formatter -> t -> unit
