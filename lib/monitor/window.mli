(** One closed sampling window of the live monitor: per-window deltas of
    the stats counters, prefetch-attribution outcomes, stall bins,
    allocation-site drift and loop activity, plus the verdict the
    detectors assigned at close. Immutable. *)

type t = {
  index : int;  (** 0-based window number *)
  boundary : int;
      (** the nominal boundary cycle that closed this window (end-of-run
          cycles for the final partial window) *)
  cycles_end : int;  (** actual [Stats.cycles] when the window closed *)
  partial : bool;
      (** the end-of-run tail window; detectors do not score it *)
  stats : Memsim.Stats.t;  (** full per-window counter deltas *)
  issued : int;
  cancelled : int;
  redundant : int;
  redundant_hw : int;
  useful : int;
  late : int;
  useless : int;
  tlb : int;
  l1 : int;
  l2 : int;
  mem : int;
  retire : int;
  pf_overhead : int;
  guard_overhead : int;
  alloc_cycles : int;
  gc_cycles : int;
  gcs : int;
  allocs : int;
  alloc_bytes : int;
  fresh_site_allocs : int;
  backedges : int;
  invocations : int;
  method_backedges : int array;  (** per-method deltas, by method id *)
  out_bytes : int;  (** cumulative program output bytes at close *)
  verdict : Detect.verdict;
}

val cycles : t -> int
(** The window's simulated-cycle delta ([stats.cycles]). *)

val useful_rate : t -> float
(** [useful / (useful + late + useless)], the settled outcomes; 0.0 when
    nothing settled. *)
