type observers = {
  telemetry : bool;
  profile : bool;
  monitor : int option;
  sink_capacity : int option;
  capture_observables : bool;
  predict : bool;
  verify_each_pass : bool;
  compile_observer :
    (meth:Vm.Classfile.method_info ->
    before:Observables.t ->
    after:Observables.t ->
    unit)
    option;
}

let no_observers =
  {
    telemetry = false;
    profile = false;
    monitor = None;
    sink_capacity = None;
    capture_observables = false;
    predict = false;
    verify_each_pass = false;
    compile_observer = None;
  }

type request = {
  workload : Workload.t;
  program : Vm.Classfile.program;
  config : Run_config.t;
  opts : Strideprefetch.Options.t;
  observers : observers;
  faults : Vm.Fault.t list;
  max_steps : int option;
}

type run_result = {
  workload : string;
  machine : string;
  mode : Strideprefetch.Options.mode;
  cycles : int;
  stats : Memsim.Stats.t;
  interpreted_cycles : int;
  compiled_cycles : int;
  gc_count : int;
  methods_compiled : int;
  total_compile_seconds : float;
  prefetch_pass_seconds : float;
  output : string;
  reports : Strideprefetch.Pass.loop_report list;
  faulting_prefetches : int;
  spec_guard_trips : int;
  observables : Observables.t option;
  program : Vm.Classfile.program;
  sink : Telemetry.Sink.t option;
  effectiveness : Effectiveness.t option;
  profile : Profile.Report.t option;
  monitor : Monitor.Report.t option;
}

exception Invariant_violation of string
(** A runtime conservation law was violated at the end of a run made
    with [check_invariants]. The payload is the rendered
    {!Analysis.Diag.global} finding. *)

let request ?program (workload : Workload.t) =
  {
    workload;
    program =
      (match program with Some p -> p | None -> Workload.compile workload);
    config = Run_config.default;
    opts = Strideprefetch.Options.default;
    observers = no_observers;
    faults = [];
    max_steps = None;
  }

let execute (req : request) =
  let { workload; config; observers = obs; _ } = req in
  let machine = Run_config.machine config and mode = config.mode in
  let opts =
    {
      req.opts with
      Strideprefetch.Options.mode;
      prediction = config.prediction;
      inter_stride_threshold = config.threshold;
    }
  in
  let program = Vm.Classfile.fresh req.program in
  let interp_options =
    let base = Vm.Interp.default_options machine in
    {
      base with
      Vm.Interp.heap_limit_bytes = workload.heap_limit_bytes;
      engine = config.engine;
      faults = req.faults;
      max_steps = Option.value req.max_steps ~default:base.max_steps;
    }
  in
  let interp = Vm.Interp.create ~options:interp_options machine program in
  (* Telemetry wiring: one sink + one site registry per run. The sink's
     cycle source is installed by [set_telemetry]; attribution is
     installed in the hierarchy and leaves the simulation bit-identical
     (asserted by the golden tests). *)
  (* Profiling needs the stall breakdown the hierarchy keeps only while
     attributing, so it implies telemetry; so does monitoring (the
     useful-rate stream is attribution, and the stall-bin stream is the
     profile hooks). *)
  let telemetry = obs.telemetry || obs.profile || obs.monitor <> None in
  let sink =
    if telemetry then
      Some (Telemetry.Sink.create ?capacity:obs.sink_capacity ())
    else None
  in
  let registry = if telemetry then Some (Telemetry.Attrib.create ()) else None in
  (match registry with
  | Some reg -> Vm.Interp.set_telemetry interp ~registry:reg ?sink ()
  | None -> ());
  let collector =
    if obs.profile then Some (Profile.Collector.create ()) else None
  in
  let mon =
    Option.map
      (fun window_cycles ->
        Monitor.Collector.create ?registry ?sink ~window_cycles interp)
      obs.monitor
  in
  (* One [set_profile] call whoever is listening: the disabled state must
     stay a single [None] test on the hot paths, so two observers share
     one fanned-out hook set. *)
  (match (collector, mon) with
  | Some c, Some m ->
      Vm.Interp.set_profile interp
        (Vm.Interp.combine_profile_hooks (Profile.Collector.hooks c)
           (Monitor.Collector.hooks m))
  | Some c, None -> Vm.Interp.set_profile interp (Profile.Collector.hooks c)
  | None, Some m -> Vm.Interp.set_profile interp (Monitor.Collector.hooks m)
  | None, None -> ());
  let reports = ref [] in
  (* The static tier is consulted only when asked for ([predict], for the
     agreement scorer) or needed (non-[Inspect] prediction tiers), so the
     default path stays bit-identical to a predictor-free build. *)
  let predictor =
    if obs.predict || opts.prediction <> Strideprefetch.Options.Inspect then
      Some (Analysis.Addralg.predictor ~program)
    else None
  in
  let passes =
    (if config.passes then Jit.Pipeline.standard_passes () else [])
    @
    match mode with
    | Strideprefetch.Options.Off -> []
    | Strideprefetch.Options.Inter | Strideprefetch.Options.Inter_intra ->
        [
          Strideprefetch.Pass.make_pass ~opts ~interp
            ~report_sink:(fun r -> reports := !reports @ r)
            ?registry ?sink ?predictor ();
        ]
  in
  let verifier =
    if not obs.verify_each_pass then None
    else
      Some
        (fun m ->
          (* [!reports] is read at verification time: after the
             stride-prefetch pass ran on [m] its loop reports are already
             in the sink, so the plan-aware lints see them; after the
             baseline passes the list holds nothing for [m] and only the
             plan-free checkers apply. *)
          Analysis.Check.verify ~program ~reports:!reports
            ~scheduling_distance:opts.Strideprefetch.Options.scheduling_distance
            ~require_guarded:(Strideprefetch.Options.use_guarded machine)
            ~inter_stride_threshold:
              (Strideprefetch.Options.resolved_inter_stride_threshold opts
                 machine)
            m)
  in
  let span =
    Option.map
      (fun s ~name ~meth f ->
        Telemetry.Sink.span s ~cat:"jit"
          ~args:[ ("method", Telemetry.Json.Str meth) ]
          name f)
      sink
  in
  let pipeline =
    Jit.Pipeline.create ?verifier ?span
      ~on_mutate:(Vm.Interp.precompile_method interp)
      passes
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      match obs.compile_observer with
      | None -> Jit.Pipeline.compile pipeline m args
      | Some observe ->
          (* Snapshot the complete heap + statics around the compilation —
             the JIT (object inspection included) must rewrite only code,
             never program state. *)
          let before = Observables.capture ~scope:`All interp in
          Jit.Pipeline.compile pipeline m args;
          let after = Observables.capture ~scope:`All interp in
          observe ~meth:m ~before ~after);
  ignore (Vm.Interp.run interp);
  Vm.Interp.finalize_telemetry interp;
  (* After [finalize_telemetry]: the end-of-run attribution settlement
     must land in the monitor's tail window. *)
  Option.iter Monitor.Collector.finalize mon;
  let stats = Memsim.Stats.copy (Vm.Interp.stats interp) in
  let effectiveness =
    match (registry, Vm.Interp.attribution interp) with
    | Some reg, Some attrib -> Some (Effectiveness.build ~registry:reg ~attrib)
    | _ -> None
  in
  let profile_report =
    Option.map
      (fun c ->
        Profile.Report.build ~program ~reports:!reports
          ~cycles:stats.Memsim.Stats.cycles c)
      collector
  in
  (* The runtime invariant audit: both conservation laws, reported
     through the diagnostics layer. [finalize_telemetry] already settled
     the attribution books above, so the checks are meaningful here. *)
  if opts.Strideprefetch.Options.check_invariants then begin
    let fail d = raise (Invariant_violation (Analysis.Diag.render_plain d)) in
    (match Vm.Interp.attribution interp with
    | Some attrib -> (
        match Memsim.Attribution.conservation_error attrib with
        | Some msg ->
            fail
              (Analysis.Diag.global ~checker:"attribution-conservation" "%s"
                 msg)
        | None -> ())
    | None -> ());
    match profile_report with
    | Some rep -> (
        match Profile.Report.conservation_error rep with
        | Some msg ->
            fail (Analysis.Diag.global ~checker:"profile-conservation" "%s" msg)
        | None -> ())
    | None -> ()
  end;
  (* Stamp the final counters onto the event stream so an exported trace
     is self-contained. *)
  (match sink with
  | Some s ->
      Telemetry.Sink.counter s ~cat:"stats" "final-stats"
        (List.map
           (fun (k, v) -> (k, Telemetry.Json.Int v))
           (Memsim.Stats.to_alist stats))
  | None -> ());
  {
    workload = workload.name;
    machine = machine.Memsim.Config.name;
    mode;
    cycles = stats.Memsim.Stats.cycles;
    stats;
    interpreted_cycles = Vm.Interp.interpreted_cycles interp;
    compiled_cycles = Vm.Interp.compiled_cycles interp;
    gc_count = Vm.Interp.gc_count interp;
    methods_compiled = Jit.Pipeline.methods_compiled pipeline;
    total_compile_seconds = Jit.Pipeline.total_seconds pipeline;
    prefetch_pass_seconds =
      Jit.Pipeline.seconds_of_pass pipeline "stride-prefetch";
    output = Vm.Interp.output interp;
    reports = !reports;
    faulting_prefetches = Vm.Interp.faulting_prefetches interp;
    spec_guard_trips = Vm.Interp.spec_guard_trips interp;
    observables =
      (if obs.capture_observables then
         Some (Observables.capture ~scope:`Reachable interp)
       else None);
    program;
    sink;
    effectiveness;
    profile = profile_report;
    monitor = Option.map Monitor.Collector.report mon;
  }

let run ?(profile = false) ?monitor ~mode ~machine workload =
  execute
    {
      (request workload) with
      config = { Run_config.default with machine; mode };
      observers = { no_observers with profile; monitor };
    }

let speedup ~baseline result =
  if baseline.output <> result.output then
    invalid_arg
      (Printf.sprintf
         "speedup: %s/%s: program output differs between %s and %s runs \
          (optimization changed semantics!)"
         result.workload result.machine
         (Strideprefetch.Options.mode_name baseline.mode)
         (Strideprefetch.Options.mode_name result.mode));
  if result.cycles = 0 then invalid_arg "speedup: zero cycle count";
  float_of_int baseline.cycles /. float_of_int result.cycles

let percent_speedup ~baseline result = (speedup ~baseline result -. 1.0) *. 100.0

let compiled_fraction r =
  let total = r.interpreted_cycles + r.compiled_cycles in
  if total = 0 then 0.0 else float_of_int r.compiled_cycles /. float_of_int total

let prefetch_overhead_fraction r =
  if r.total_compile_seconds = 0.0 then 0.0
  else r.prefetch_pass_seconds /. r.total_compile_seconds
