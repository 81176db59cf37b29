(** Experiment harness: run a workload on a machine under a prefetching
    configuration, with the full mixed-mode pipeline wired up, and collect
    everything the paper's figures — and the fuzzing oracle — need. *)

type run_result = {
  workload : string;
  machine : string;
  mode : Strideprefetch.Options.mode;
  cycles : int;
  stats : Memsim.Stats.t;  (** snapshot at end of run *)
  interpreted_cycles : int;
  compiled_cycles : int;
  gc_count : int;
  methods_compiled : int;
  total_compile_seconds : float;
  prefetch_pass_seconds : float;
  output : string;  (** program output; must agree across modes *)
  reports : Strideprefetch.Pass.loop_report list;
  faulting_prefetches : int;
      (** prefetch-type ops that computed a negative address; must be 0 *)
  spec_guard_trips : int;  (** guarded spec_loads that yielded Null *)
  observables : Observables.t option;
      (** end-of-run reachable heap + statics snapshot, when
          [capture_observables] was requested *)
  program : Vm.Classfile.program;
      (** the executed program, with every JIT-rewritten body in place —
          what post-run analyses (the lint oracle) inspect *)
  sink : Telemetry.Sink.t option;
      (** the event ring of a [~telemetry:true] run, ready for the
          Chrome-trace / JSONL exporters *)
  effectiveness : Effectiveness.t option;
      (** per-site prefetch effectiveness of a [~telemetry:true] run *)
  profile : Profile.Report.t option;
      (** object-centric cycle profile of a [~profile:true] run: per-pc /
          per-loop / per-allocation-site stall attribution, ready for the
          top-down, folded-stack and JSON renderers *)
  monitor : Monitor.Report.t option;
      (** windowed time series + verdict timeline of a [~monitor] run,
          ready for the dashboard / JSONL renderers *)
}

exception Invariant_violation of string
(** Raised at the end of a run made with [opts.check_invariants = true]
    when a runtime conservation law does not hold: attribution's
    [issued = cancelled + redundant + useful + late + useless] or the
    profiler's [binned cycles = Stats.cycles]. The payload is the
    rendered {!Analysis.Diag.global} finding. *)

val run :
  ?opts:Strideprefetch.Options.t ->
  ?standard_passes:bool ->
  ?compile_observer:
    (meth:Vm.Classfile.method_info ->
    before:Observables.t ->
    after:Observables.t ->
    unit) ->
  ?tweak_options:(Vm.Interp.options -> Vm.Interp.options) ->
  ?engine:Vm.Interp.engine ->
  ?capture_observables:bool ->
  ?verify_each_pass:bool ->
  ?telemetry:bool ->
  ?profile:bool ->
  ?predict:bool ->
  ?sink_capacity:int ->
  ?monitor:int ->
  ?monitor_detect:Monitor.Detect.config ->
  mode:Strideprefetch.Options.mode ->
  machine:Memsim.Config.machine ->
  Workload.t ->
  run_result
(** Compile the workload from source (fresh program), install the JIT
    pipeline (standard passes + stride prefetching at [mode]), execute,
    and collect results. [opts] overrides the algorithm's knobs; its
    [mode] field is replaced by [mode].

    [standard_passes] (default [true]): include the baseline JIT passes;
    [false] compiles with only the prefetching pass, isolating it from
    optimizer interactions. [compile_observer] is invoked around every
    JIT compilation with bit-identical [`All]-scope snapshots taken
    before and after — the hook the side-effect-freedom tests use to
    prove object inspection leaves the heap and statics untouched.
    [tweak_options] edits the interpreter options (e.g. [max_steps], or
    the injected [faults] of a self-test). [engine] selects the
    execution engine (default: the interpreter default, [Closure]);
    applied before [tweak_options], which can still override it.
    [capture_observables]
    (default [false]) captures a [`Reachable] snapshot at end of run into
    [observables]. [verify_each_pass] (default [false], a debug mode)
    installs {!Analysis.Check.verify} as the pipeline's verifier: the
    method body is re-checked after {e every} pass, and the first finding
    aborts compilation with [Jit.Pipeline.Verification_failed] naming the
    offending pass.

    [telemetry] (default [false]) threads the full observability stack
    through the run — compile/pass/inspection/GC spans and per-loop
    explain records into a fresh sink ([sink_capacity] events, default
    65536), prefetch-site attribution installed in the hierarchy — and
    fills [run_result.sink] and
    [run_result.effectiveness]. Telemetry observes the simulation and
    never participates: cycles and all core stats counters are
    bit-identical to a [~telemetry:false] run (golden-tested; only the
    [Memsim.Stats.telemetry_only] counters become nonzero).

    [predict] (default [false]) installs the static access-prediction
    tier ({!Analysis.Addralg.predictor}) so every loop report carries
    static stride claims alongside the inspection results — the agreement
    scorer's input. Installed implicitly when [opts.prediction] is
    [Static] or [Hybrid] (where the claims also drive the skip/shorten
    rule); under the default [Inspect] tier with [predict:false] no
    predictor is constructed and compilation is bit-identical to PR 7.

    [profile] (default [false]) additionally installs the object-centric
    profiler ({!Profile.Collector} hooks) and fills
    [run_result.profile]. Implies [telemetry]. Like telemetry, profiling
    observes only: cycles, stats and program output stay bit-identical
    (fuzz-checked across the differential matrix).

    [monitor] (when given) arms the live windowed monitor with that
    window size in simulated cycles and fills [run_result.monitor].
    Implies [telemetry]; installs the {!Monitor.Collector} profile hooks
    (fanned out with the object profiler's when both are on).
    [monitor_detect] overrides the detector thresholds
    (default {!Monitor.Detect.default}). Monitoring observes only:
    cycles, stats and output stay bit-identical to an unmonitored run on
    both engines (golden-, bench- and fuzz-enforced). *)

val speedup : baseline:run_result -> run_result -> float
(** [cycles(baseline) / cycles(optimized)]; 1.10 means 10% faster. The two
    runs must have identical program output, which is checked
    (side-effect-freedom of the whole pass stack). Raises
    [Invalid_argument] otherwise. *)

val percent_speedup : baseline:run_result -> run_result -> float
(** [(speedup - 1) * 100]. *)

val compiled_fraction : run_result -> float
(** Share of cycles spent in compiled code (Table 3's last column). *)

val prefetch_overhead_fraction : run_result -> float
(** Prefetch-pass compile seconds / total compile seconds (Figure 11). *)
