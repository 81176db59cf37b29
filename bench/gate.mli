(** Statistical bench-regression gate over bench_hotpath/v2 reports.

    The gate separates the two signals a report carries by how much
    evidence each needs:

    - {e simulated cycles} are deterministic — a pure function of the
      cell — so any per-cell difference is a real behavioural change and
      the gate demands exact equality;
    - {e host wall-clock seconds} are noisy, so the gate aggregates the
      per-cell new/old ratios as a geometric mean and bootstraps a 95%
      confidence interval over the log-ratios (fixed seed: the verdict is
      deterministic given the two reports). Only a slowdown whose whole
      interval clears the practical threshold (default +5%) fails, so
      same-host re-runs of an unchanged tree pass. *)

val schema : string
(** ["bench_hotpath/v2"]. v2 adds the per-cell ["profile"] flag (and so
    changes what a cell key means); {!compare_runs} refuses to compare
    reports whose schemas differ from this one. *)

type cell_rec = {
  workload : string;
  config : Workloads.Run_config.t;
  telemetry : bool;
  profile : bool;
  monitor : bool;
      (** the live windowed monitor was armed; [false] when the field is
          absent — pre-monitor reports have no monitored twins, and
          their plain cells keep matching *)
  blame : Telemetry.Json.t option;
      (** compact per-loop blame payload of a profiled cell, raw — fed
          to [Diff.Rundata.of_bench_blame] when a failing gate explains
          its cycle regressions; [None] for unprofiled cells and for
          pre-blame reports (their cells keep matching: the payload is
          not part of {!cell_key}) *)
  seconds : float;
  cycles : int;
}

type run = {
  schema : string;
  jobs : int;
  host_cpus : int;
  cells : cell_rec list;
}

val axis_fields : (Workloads.Run_config.axis * string) list
(** The report field of each configuration axis: ["machine"],
    ["mode"], ["engine"], ["hw_prefetch"], ["sw_threshold"],
    ["prediction"], ["passes"]. The writer emits the first three always
    and the rest only off their default; the reader parses each present
    field with {!Workloads.Run_config.parse} and reads an absent one as
    the default, so reports written before a field existed keep
    matching newer default cells. *)

val cell_key : cell_rec -> string
(** {!Runner.key}: the identity cells are matched on across reports (it
    deliberately ignores [seconds], [cycles] and the report's [jobs]). *)

val of_string : label:string -> string -> (run, string) result
(** Parse a report. Lenient about schema (so {!compare_runs} can name both
    schemas in its refusal) and about missing observer and axis fields,
    strict about each cell's workload/machine/mode/seconds/cycles and
    about axis values: a cell naming an unknown machine or a malformed
    hardware spec is an [Error] naming [cells[i]]. [label] prefixes error
    messages. *)

val load : string -> (run, string) result
(** {!of_string} on a file's contents; I/O errors become [Error]. *)

type pair = { key : string; a : cell_rec; b : cell_rec }

type comparison = {
  pairs : pair list;  (** cells present in both reports, in A's order *)
  only_a : string list;
  only_b : string list;
  cycle_regressions : pair list;  (** [b.cycles > a.cycles] *)
  cycle_improvements : pair list;  (** [b.cycles < a.cycles] *)
  seconds_geomean : float;
      (** geometric mean of per-cell wall-clock ratios B/A; [nan] if no
          cell has positive timings on both sides *)
  ci_low : float;  (** 2.5th bootstrap percentile of the geomean ratio *)
  ci_high : float;  (** 97.5th bootstrap percentile *)
  threshold : float;  (** the practical-significance threshold used *)
  significant_slowdown : bool;  (** [ci_low > 1 + threshold] *)
  significant_speedup : bool;  (** [ci_high < 1 - threshold] *)
}

val compare_runs :
  ?threshold:float -> a:run -> b:run -> unit -> (comparison, string) result
(** Compare report [b] (new) against report [a] (baseline). Refuses with
    [Error] when either schema differs from {!schema} (the message names
    both) or when the reports share no cell. [threshold] defaults
    to [0.05] (5% wall-clock). *)

val passes : comparison -> bool
(** No cycle regression and no significant slowdown. *)

val gate_exit : comparison -> int
(** [0] when {!passes}, [1] otherwise. *)

val dispatch_pairs : cell_rec list -> (cell_rec * cell_rec) list
(** The dispatch lane: every switch-engine cell paired with the cell
    whose key differs only in the engine, when both have positive
    timings. *)

val dispatch_geomean : (cell_rec * cell_rec) list -> float option
(** Geometric mean of the pairs' switch/closure wall-clock ratios;
    [None] without pairs (reports that predate the lane). *)

val render : comparison -> string
(** The full human-readable verdict: per-cell table ({!Telemetry.Table}),
    unmatched cells, cycle and wall-clock summaries, and a final
    [GATE: PASS] / [GATE: FAIL] line. *)
