(* The benchmark's own copy of the plain harness wiring: what
   [Workloads.Harness.run] does when no observer is on, spelled out with
   public library calls so that each layer boundary (front end, VM
   creation, JIT pipeline, closure precompile, execution) is a call the
   benchmark can time from outside. test_e2e.ml holds this copy to
   [Harness.run] on output, cycles, core stats, GC count and methods
   compiled. *)

module O = Strideprefetch.Options

type config = {
  mode : O.mode;
  standard_passes : bool;
  machine : Memsim.Config.machine;
  engine : Vm.Interp.engine;
}

let headline machine =
  { mode = O.Inter_intra; standard_passes = true; machine; engine = Vm.Interp.Closure }

(* BASELINE on the switch engine: the reference expected.json is checked
   against, never the optimising path under test. *)
let reference machine =
  { mode = O.Off; standard_passes = true; machine; engine = Vm.Interp.Switch }

let front_end source =
  match Minijava.Compile.program_of_source source with
  | Ok program -> program
  | Error e -> failwith (Minijava.Compile.string_of_error e)

let create config ~heap_limit_bytes program =
  let options =
    {
      (Vm.Interp.default_options config.machine) with
      Vm.Interp.heap_limit_bytes;
      engine = config.engine;
    }
  in
  Vm.Interp.create ~options config.machine program

type jit = {
  pipeline : Jit.Pipeline.t;
  reports : Strideprefetch.Pass.loop_report list ref;
}

(* [span] and [on_mutate] are the timing points of the traced run; the
   untraced run leaves them at the pipeline's defaults. *)
let install ?span ?on_mutate config interp =
  let reports = ref [] in
  let passes =
    (if config.standard_passes then Jit.Pipeline.standard_passes () else [])
    @
    match config.mode with
    | O.Off -> []
    | O.Inter | O.Inter_intra ->
        [
          Strideprefetch.Pass.make_pass
            ~opts:(O.with_mode config.mode O.default)
            ~interp
            ~report_sink:(fun r -> reports := List.rev_append r !reports)
            ();
        ]
  in
  let on_mutate =
    Option.value on_mutate ~default:(Vm.Interp.precompile_method interp)
  in
  let pipeline = Jit.Pipeline.create ?span ~on_mutate passes in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  { pipeline; reports }

type outcome = {
  output : string;
  cycles : int;
  retired : int;
  loads : int;
  stores : int;
  gc_count : int;
  methods_compiled : int;
  faulting_prefetches : int;
  core : (string * int) list;  (** [Memsim.Stats.core_alist] *)
}

let outcome interp jit =
  let stats = Vm.Interp.stats interp in
  {
    output = Vm.Interp.output interp;
    cycles = stats.Memsim.Stats.cycles;
    retired = stats.Memsim.Stats.retired_instructions;
    loads = stats.Memsim.Stats.loads;
    stores = stats.Memsim.Stats.stores;
    gc_count = Vm.Interp.gc_count interp;
    methods_compiled = Jit.Pipeline.methods_compiled jit.pipeline;
    faulting_prefetches = Vm.Interp.faulting_prefetches interp;
    core = Memsim.Stats.core_alist stats;
  }

(* Everything before the first simulated instruction. *)
let setup config ~heap_limit_bytes source =
  let interp = create config ~heap_limit_bytes (front_end source) in
  (interp, install config interp)

let run config ~heap_limit_bytes source =
  let interp, jit = setup config ~heap_limit_bytes source in
  ignore (Vm.Interp.run interp);
  outcome interp jit
