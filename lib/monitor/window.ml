(* One closed sampling window: everything that happened between two
   consecutive window boundaries of the simulated cycle clock.

   Every count in here is a {e delta} over the window (the cumulative
   snapshots live in the collector); the only cumulative fields are
   [cycles_end] and [out_bytes], which identify where on the run's
   timeline the window closed. Windows are immutable once built — the
   verdict is computed at close time, before construction. *)

type t = {
  index : int;  (** 0-based window number *)
  boundary : int;
      (** the nominal boundary cycle that closed this window (a multiple
          of the window size, except for the final partial window where
          it is the end-of-run cycle count) *)
  cycles_end : int;  (** actual [Stats.cycles] when the window closed *)
  partial : bool;
      (** the end-of-run tail window: closed by {!Collector.finalize},
          not by a boundary crossing; detectors do not score it *)
  stats : Memsim.Stats.t;  (** full per-window counter deltas *)
  (* prefetch-attribution outcome deltas (conservation:
     issued = cancelled + redundant + redundant_hw + useful + late +
     useless holds over the whole run, not per window — outcomes settle
     later than their issues) *)
  issued : int;
  cancelled : int;
  redundant : int;
  redundant_hw : int;
  useful : int;
  late : int;
  useless : int;
  (* stall-cycle bins (from the profiling stream) *)
  tlb : int;
  l1 : int;
  l2 : int;
  mem : int;
  (* non-stall cycle bins *)
  retire : int;
  pf_overhead : int;
  guard_overhead : int;
  alloc_cycles : int;
  gc_cycles : int;
  gcs : int;
  (* allocation-site drift *)
  allocs : int;
  alloc_bytes : int;
  fresh_site_allocs : int;
      (** allocations at (method, pc) sites never seen in any earlier
          window *)
  (* loop activity *)
  backedges : int;
  invocations : int;
  method_backedges : int array;
      (** per-method backedge deltas, indexed by method id *)
  out_bytes : int;  (** cumulative program output bytes at close *)
  verdict : Detect.verdict;
}

let cycles w = w.stats.Memsim.Stats.cycles

let classified w = w.useful + w.late + w.useless
(** Settled prefetch outcomes in the window (the useful-rate
    denominator). *)

let useful_rate w =
  let c = classified w in
  if c = 0 then 0.0 else float_of_int w.useful /. float_of_int c
