(** Differential oracle for the stride-prefetching pass.

    Runs one MiniJava program under a matrix of configurations (prefetch
    mode x standard-pass pipeline x machine) and checks that the pass is
    {e observably invisible}: every cell must reproduce the baseline
    cell's stdout and statics-reachable heap graph, no prefetch operation
    may compute a negative (faulting) address, object inspection must
    leave the real heap and statics bit-identical across every JIT
    compilation, and the memory-system counters must satisfy structural
    invariants (misses bounded by accesses, no prefetch work in mode
    [Off], ...). *)

type cell = {
  mode : Strideprefetch.Options.mode;
  standard_passes : bool;
      (** [true]: full JIT pipeline; [false]: prefetch pass alone *)
  machine : Memsim.Config.machine;
}

val default_cells : cell list
(** 3 modes x {pipeline, bare} x {pentium4, athlon_mp} = 12 cells, with
    the baseline (Off / pipeline / pentium4) first. *)

val cell_name : cell -> string
(** E.g. ["inter+intra/pipeline/pentium4"]. *)

type failure =
  | Compile_error of string
      (** the front end rejected the program — a generator bug, or an
          invalid shrink candidate *)
  | Crash of { cell : cell; message : string }
  | Output_divergence of {
      cell : cell;
      baseline_output : string;
      output : string;
    }
  | Heap_divergence of { cell : cell; diff : string }
  | Inspection_side_effect of { cell : cell; meth : string; diff : string }
  | Stats_violation of { cell : cell; message : string }
  | Faulting_prefetch of { cell : cell; count : int }
  | Lint_violation of { cell : cell; meth : string; message : string }
      (** a JIT-transformed method body is not clean under the
          [Analysis] stack (type-state, prefetch safety, plan-aware
          lints); warnings count — correct codegen emits neither
          redundant prefetches nor dead spec-load registers *)
  | Telemetry_divergence of { cell : cell; message : string }
      (** the observability stack perturbed the simulation: a
          [~telemetry:true ~profile:true] run diverged from its plain
          twin in output, cycles or a core stats counter — or the
          attribution books failed to balance
          (issued <> cancelled + redundant + useful + late + useless),
          or the profiler's cycle bins did not sum to the run's cycle
          count *)
  | Engine_divergence of { cell : cell; message : string }
      (** the switch engine disagreed with the closure-compiled reference
          on the same program — output, cycles, a core stats counter, a
          VM-side counter (GC count, methods compiled, fault/guard
          trips), the reachable heap — or crashed where it completed.
          Bit-identity across engines is their contract
          (lib/vm/engine.ml) *)
  | Hw_divergence of { cell : cell; hw : string; message : string }
      (** a hardware-prefetcher model ([hw] is its spec string, e.g.
          ["rpt:64x2@4"]) perturbed the architectural state: the headline
          configuration re-run under hw=none and the RPT unit must agree
          with the stream-unit reference on program output and the
          statics-reachable heap — the hardware prefetcher may only move
          cycles and memory-system counters *)
  | Prediction_divergence of { cell : cell; tier : string; message : string }
      (** a static/hybrid prediction tier changed what the program
          computes: the headline configuration re-run under
          [prediction = Static] and [Hybrid] must reproduce the
          inspect-tier run's output and statics-reachable heap with no
          faulting prefetch addresses — the tiers may only change when a
          stride is discovered (compile time, inspection iterations).
          Per-site static-vs-inspected disagreement is a scored metric
          ([spf_lint --predict]), never this failure *)
  | Monitor_divergence of { cell : cell; message : string }
      (** the live windowed monitor perturbed the simulation or kept bad
          books: the headline configuration re-run with a 4096-cycle
          monitor armed must be bit-identical to its plain twin (output,
          cycles, every core counter — the monitor observes only), and
          the monitor's per-window stats deltas and attribution outcomes
          must sum back exactly to the end-of-run totals, tail partial
          window included *)
  | Diff_divergence of { cell : cell; message : string }
      (** the differential-diagnosis join (lib/diff) broke its identity
          law on the attributed run: a snapshot diffed against itself
          must produce an empty blame — zero total delta, zero per-loop
          deltas — with the blame conservation law holding exactly.
          Checked on every fuzzed program, so a join bug (lost loop key,
          bad bin order) can't hide behind hand-picked workloads *)

type verdict = Pass of { cells_run : int } | Fail of failure

val describe : failure -> string
(** Multi-line human-readable rendering, used in fuzzing reports. *)

val class_name : failure -> string
(** The constructor as a short tag (["crash"], ["engine"], ...): two
    failures of the same class share it. *)

val runs_per_program : cell list -> int
(** How many runs {!check} makes on a program that passes: one per
    distinct configuration among [cells], the headline reference and
    the row variants. 19 for {!default_cells}. *)

val check :
  ?cells:cell list ->
  ?faults:Vm.Fault.t list ->
  ?max_steps:int ->
  source:string ->
  heap_limit_bytes:int ->
  unit ->
  verdict
(** Compile [source] once (to reject front-end failures early), run each
    cell, audit it and compare it to the first, then run the cross-check
    rows against the headline configuration (inter+intra / pipeline /
    pentium4) — the table in EXPERIMENTS.md, "Fuzzing & reproducing
    failures". The first failure is the verdict; [cells_run] counts the
    runs made. [faults] (default none) are injected into every run, to
    prove the check each one targets is live. [max_steps] (default the
    VM's) is every run's step budget; a run that exhausts it is a
    {!Crash}. *)

val headline_retired :
  ?faults:Vm.Fault.t list ->
  source:string ->
  heap_limit_bytes:int ->
  unit ->
  int option
(** The instructions the headline configuration retires running
    [source], or [None] when that run does not complete. *)
