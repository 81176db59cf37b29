(** Automatic config-axis bisection: given two configurations differing
    in several option axes, replay intermediate configurations to
    isolate the minimal axis set responsible for a cycle delta.

    Simulated cycles are deterministic — a pure function of the
    configuration — so a single replay per probe is conclusive (no
    statistics needed; the same property the exact-equality bench gate
    leans on). The search runs A and B (2 replays), then flips differing
    axes one at a time from A toward B in canonical order, stopping
    early the moment a single flip reproduces B's cycles exactly: a
    planted single-axis regression is therefore isolated in at most
    [2 + position] replays — 3 when the responsible axis sorts first,
    which the canonical order arranges by putting cycle-moving axes
    (mode, machine, hw, threshold, prediction, passes) before the
    cycle-neutral engine axis. When no single flip explains the delta,
    the axes that individually moved cycles are verified jointly.
    Configurations, their axes and the canonical order are
    {!Workloads.Run_config}'s. *)

type outcome = {
  cycles_a : int;
  cycles_b : int;
  delta : int;
  candidates : Workloads.Run_config.axis list;
      (** axes that differed at all *)
  probes : (Workloads.Run_config.axis * int) list;
      (** single-flip cycles, in probe order *)
  responsible : Workloads.Run_config.axis list;
      (** minimal responsible set; [] iff delta = 0 *)
  exact : bool;
      (** flipping [responsible] alone reproduces B's cycles exactly *)
  replays : int;  (** total replays spent, A and B included *)
}

val run :
  replay:(Workloads.Run_config.t -> int) ->
  a:Workloads.Run_config.t ->
  b:Workloads.Run_config.t ->
  outcome
(** Bisect. [replay] runs one configuration to completion and returns
    its simulated cycles; it is called [outcome.replays] times. *)

val render :
  a:Workloads.Run_config.t -> b:Workloads.Run_config.t -> outcome -> string
(** Human-readable verdict: the differing axes with their values, each
    probe's result, and the responsible set. Deterministic. *)
