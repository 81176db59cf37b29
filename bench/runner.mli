(** Parallel bench-matrix runner.

    The cells of the paper's evaluation are mutually independent — each
    run builds a fresh program, interpreter and memory hierarchy, and no
    library keeps top-level mutable state — so the matrix is farmed out
    to a pool of OCaml 5 Domains. Simulated cycle counts are a pure
    function of the cell: the parallel runner is byte-identical to the
    serial one (asserted by test/test_bench_runner.ml); only host
    wall-clock changes. *)

type cell = {
  workload : Workloads.Workload.t;
  config : Workloads.Run_config.t;
      (** every axis that moves a simulated number *)
  telemetry : bool;
      (** run with the observability stack threaded through, filling
          [run_result.effectiveness]; the simulation itself is
          bit-identical either way (golden-tested) *)
  profile : bool;
      (** additionally install the object-centric profiler, filling
          [run_result.profile] (implies telemetry); like telemetry the
          simulation is bit-identical either way *)
  monitor : bool;
      (** arm the live windowed monitor at its default window, filling
          [run_result.monitor] (implies telemetry); monitoring observes
          only, so a monitored twin's cycle count must equal its plain
          cell's exactly — the gate's exact-equality law pins that
          zero-cost claim over time *)
}

type timed = {
  cell : cell;
  result : Workloads.Harness.run_result;
  seconds : float;  (** host wall-clock for this cell *)
}

val cell :
  ?telemetry:bool ->
  ?profile:bool ->
  ?monitor:bool ->
  Workloads.Workload.t ->
  Workloads.Run_config.t ->
  cell
(** [telemetry], [profile] and [monitor] default to [false]. *)

val key :
  workload:string ->
  telemetry:bool ->
  profile:bool ->
  monitor:bool ->
  Workloads.Run_config.t ->
  string
(** The identity cells are matched on across reports:
    ["workload/machine/mode"], then ["/telemetry"], ["/profile"],
    ["/monitor"] for each observer, ["/switch-engine"] off the closure
    engine, and ["/hw=SPEC"], ["/thr=N"], ["/pred=TIER"],
    ["/passes=off"] for each axis off its default (the hardware axis
    resolved against the machine, so the paper's [stream:8] adds
    nothing). Canonical-matrix keys are therefore unchanged from
    reports written before the sweep axes existed. *)

val cell_key : cell -> string
(** {!key} of a cell. *)

val run_cell : cell -> timed
(** Run one cell serially in the calling domain. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : ?progress:('a -> unit) -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element on a pool of [jobs] domains (clamped to
    [1 .. length]); results are returned in input order. [jobs = 1] runs
    serially in the calling domain with no Domain machinery at all.
    [progress] is invoked under a mutex as each element is picked up by
    a worker. [f] must not share mutable state across calls. *)

val run_matrix :
  ?progress:(cell -> unit) -> jobs:int -> cell list -> timed list
(** {!map} of {!run_cell}. *)
