(** The hot-path benchmark report: the paper's workloads and machines,
    the grid every cell matrix is built from — the canonical one and each
    [spf_bench --sweep] — the sweep summary, and the bench_hotpath/v2
    JSON writer whose output {!Gate} reads back. *)

val workloads : Workloads.Workload.t list
(** The paper's twelve programs: SPECjvm98, then JavaGrande. *)

val machines : Memsim.Config.machine list
(** The paper's two machines, Pentium 4 and Athlon MP. *)

type dim
(** One dimension of a grid: an axis and the values it takes. *)

val dim : string -> (dim, string) result
(** Parse [AXIS=V1,V2,...]: a {!Workloads.Run_config} axis, each value
    parsed by {!Workloads.Run_config.parse}, or [workload], each value
    one of {!workloads}. *)

val grid : dim list -> Runner.cell list
(** Every combination of the dimensions' values over
    {!Workloads.Run_config.default}, the first dimension outermost;
    without a [workload] dimension the grid runs every one of
    {!workloads}, outermost. *)

val default_cells : unit -> Runner.cell list
(** The canonical matrix, 110 cells: the grid of every workload x
    machine x mode, then the observer twins — one telemetry twin per
    workload and one profiled and one monitored twin of the headline db
    cell, each at the default configuration — then the grid of every
    workload x machine on the switch engine: the dispatch lane, whose
    cycle counts must equal the closure cells' exactly and whose
    wall-clock ratio is the report's ["dispatch"] geomean. *)

type row = {
  config : Workloads.Run_config.t;
  cycles : int;  (** summed over the sweep's workloads *)
  iterations : int;  (** inspection iterations begun, summed *)
  steps : int;  (** instructions partially interpreted during inspection *)
  pass_seconds : float;  (** prefetch-pass host wall-clock, summed *)
}

type sweep = {
  axes : Workloads.Run_config.axis list;  (** the swept axes, in order *)
  sweep_workloads : string list;
  rows : row list;  (** one per configuration, in grid order *)
  picks : row list;
      (** per machine, its lowest-cycle row (the first one on a tie) *)
}

val sweep : dim list -> Runner.timed list -> sweep
(** Summarize the run of [grid dims]: one row per configuration, summed
    over the workloads. *)

val to_json_string :
  ?sweep:sweep -> jobs:int -> matrix_wall_seconds:float ->
  Runner.timed list -> string
(** Render a full bench_hotpath/v2 report. Cells appear in list order,
    each with its configuration under {!Gate.axis_fields}; cycle counts
    are exact integers, seconds are host wall-clock. The ["dispatch"]
    section pairs cells by {!Gate.dispatch_pairs}; [sweep] adds a
    ["sweep"] section. *)
