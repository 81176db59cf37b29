(** Experiment harness: run a workload on a machine under a prefetching
    configuration, with the full mixed-mode pipeline wired up, and collect
    everything the paper's figures — and the fuzzing oracle — need.

    A run is described by one {!request}: a compiled program, a
    {!Run_config.t} naming every axis, the algorithm's other knobs, the
    observers, faults and a step budget. A caller that runs one program
    under several configurations builds one request and varies it by
    record update, so the program is compiled once. *)

type observers = {
  telemetry : bool;
      (** thread the observability stack through the run: compile, pass,
          inspection and GC spans and per-loop explain records into a
          fresh sink, prefetch-site attribution in the hierarchy; fills
          [sink] and [effectiveness]. Observes only: cycles and every
          core stats counter stay bit-identical to an unobserved run
          (golden-tested; only the [Memsim.Stats.telemetry_only] counters
          become nonzero). *)
  profile : bool;
      (** install the object-centric profiler ({!Profile.Collector}) and
          fill [profile]. Implies [telemetry]; observes only
          (fuzz-checked across the differential matrix). *)
  monitor : int option;
      (** arm the live windowed monitor with windows of this many
          simulated cycles and fill [monitor]. Implies [telemetry]; its
          hooks fan out with the profiler's when both are on. Observes
          only, on both engines (golden-, bench- and fuzz-enforced). *)
  sink_capacity : int option;  (** events the sink keeps; default 65536 *)
  capture_observables : bool;
      (** snapshot the [`Reachable] heap and statics at the end of the
          run into [observables] *)
  predict : bool;
      (** install the static access-prediction tier
          ({!Analysis.Addralg.predictor}) so every loop report carries
          static stride claims beside the inspection results — the
          agreement scorer's input. Installed anyway when the
          configuration's prediction tier is [Static] or [Hybrid]; under
          [Inspect] without [predict] no predictor is built *)
  verify_each_pass : bool;
      (** a debug mode: {!Analysis.Check.verify} re-checks the method
          body after {e every} JIT pass, and the first finding aborts
          compilation with [Jit.Pipeline.Verification_failed] naming the
          pass *)
  compile_observer :
    (meth:Vm.Classfile.method_info ->
    before:Observables.t ->
    after:Observables.t ->
    unit)
    option;
      (** called around every JIT compilation with bit-identical
          [`All]-scope snapshots taken before and after — how the
          side-effect-freedom tests prove object inspection leaves the
          heap and statics untouched *)
}

val no_observers : observers
(** Every observer off. *)

type request = {
  workload : Workload.t;  (** names the run and sets its heap limit *)
  program : Vm.Classfile.program;
      (** the compiled [workload]. A run executes a
          {!Vm.Classfile.fresh} copy, so this program stays pristine and
          one compile serves any number of runs. *)
  config : Run_config.t;  (** every axis of the run *)
  opts : Strideprefetch.Options.t;
      (** the algorithm's knobs that are not axes (inspected iterations,
          scheduling distance, majority, [check_invariants],
          [inspect_calls], [enable_phased]); the run overwrites its
          [mode], [prediction] and [inter_stride_threshold] from
          [config] *)
  observers : observers;
  faults : Vm.Fault.t list;  (** injected self-test faults *)
  max_steps : int option;
      (** the step budget; [None] keeps the VM's. A run that exhausts it
          raises [Vm.Interp.Budget_exhausted]. *)
}

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
      (** the run's own copy of the program, with every JIT-rewritten
          body in place — what post-run analyses (the lint oracle)
          inspect *)
  sink : Telemetry.Sink.t option;
      (** the event ring of a telemetry run, ready for the Chrome-trace /
          JSONL exporters *)
  effectiveness : Effectiveness.t option;
      (** per-site prefetch effectiveness of a telemetry run *)
  profile : Profile.Report.t option;
      (** object-centric cycle profile of a profiled run: per-pc /
          per-loop / per-allocation-site stall attribution, ready for the
          top-down, folded-stack and JSON renderers *)
  monitor : Monitor.Report.t option;
      (** windowed time series + verdict timeline of a monitored run,
          ready for the dashboard / JSONL renderers *)
}

exception Invariant_violation of string
(** Raised at the end of a run made with [opts.check_invariants = true]
    when a runtime conservation law does not hold: attribution's
    [issued = cancelled + redundant + useful + late + useless] or the
    profiler's [binned cycles = Stats.cycles]. The payload is the
    rendered {!Analysis.Diag.global} finding. *)

val request : ?program:Vm.Classfile.program -> Workload.t -> request
(** A request for [workload] at {!Run_config.default}, with the paper's
    knobs, no observer, no fault and the VM's step budget. [program]
    (default: [workload] compiled now) must be [workload]'s. *)

val execute : request -> run_result
(** Install the JIT pipeline (the standard passes when [config.passes],
    then stride prefetching at [config.mode]) on a fresh copy of the
    request's program, execute it on [config.engine], and collect the
    results. *)

val run :
  ?profile:bool ->
  ?monitor:int ->
  mode:Strideprefetch.Options.mode ->
  machine:Memsim.Config.machine ->
  Workload.t ->
  run_result
(** Compile [workload] and {!execute} it at [mode] on [machine], with
    the other axes at their defaults and only the profiler and the
    monitor as observers. Kept for [benchmark/], which links it. *)

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
