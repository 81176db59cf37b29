(* Command-line driver: run workloads or MiniJava source files through the
   mini-JVM with stride prefetching, and compare configurations. *)

(* Workload lookup and the configuration axes are shared across all
   spf_* drivers. *)
module R = Workloads.Run_config
module H = Workloads.Harness

let workloads = Cli_common.workloads

let max_steps_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Step budget: abort with exit code 3 once the VM has dispatched \
           more than $(docv) instructions (default: 2e9).")

(* Exit code 3 marks a run cut off by the step budget — distinct from
   cmdliner usage errors (124/125) and uncaught VM faults, so scripts and
   CI rules can gate on it. *)
let budget_exit_code = 3

let with_budget_exit f =
  try f ()
  with Vm.Interp.Budget_exhausted n ->
    Printf.eprintf "spf_run: step budget exceeded (max_steps=%d)\n" n;
    exit budget_exit_code

let verbose_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Print per-loop prefetching reports.")

let interproc_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "interprocedural" ]
        ~doc:
          "Inter-procedural object inspection: step into callees instead \
           of skipping them (extension; see Section 3.2 of the paper).")

let phased_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "phased" ]
        ~doc:
          "Detect Wu-style phased multiple-stride loads and prefetch them \
           with a run-time-computed stride (extension).")

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Run with telemetry enabled and write the event stream as Chrome \
           trace_event JSON (load in chrome://tracing or ui.perfetto.dev). \
           Also prints the per-site effectiveness table.")

let explain_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print per-loop decision provenance: candidate sites, observed \
           delta histograms, detected patterns and rejection reasons \
           (same reports as $(b,--verbose)).")

let profile_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Run with the object-centric profiler installed and print the \
           top-down cycle accounting (see $(b,spf_prof) for the full \
           table/flamegraph/JSON tooling).")

let monitor_arg =
  Cmdliner.Arg.(
    value
    & opt ~vopt:(Some Monitor.Collector.default_window_cycles) (some int) None
    & info [ "monitor" ] ~docv:"WINDOW"
        ~doc:
          "Run with the live windowed monitor armed (implies telemetry) \
           and print the monitoring dashboard: per-window prefetch \
           usefulness, stall-bin mix and degradation verdicts. $(docv) is \
           the window size in simulated cycles (default 262144). See \
           $(b,spf_mon) for the full time-series tooling.")

let config_arg =
  Cli_common.config_term R.[ Machine; Hw; Mode; Prediction; Engine ]

(* One configured run, with the driver's knobs, budget and observers. *)
let run_config ?program ~interproc ~phased ~trace ~profile ~monitor ~max_steps
    config w =
  with_budget_exit (fun () ->
      H.execute
        {
          (H.request ?program w) with
          config;
          opts =
            {
              Strideprefetch.Options.default with
              inspect_calls = interproc;
              enable_phased = phased;
            };
          observers =
            { H.no_observers with telemetry = trace <> None; profile; monitor };
          max_steps;
        })

let print_result ~verbose (r : H.run_result) =
  Printf.printf "workload: %s  machine: %s  mode: %s\n" r.workload r.machine
    (Strideprefetch.Options.mode_name r.mode);
  Printf.printf "cycles: %d  (compiled %.1f%%)  GCs: %d\n" r.cycles
    (100.0 *. H.compiled_fraction r)
    r.gc_count;
  Format.printf "%a@." Memsim.Stats.pp r.stats;
  Format.printf "MPI: %a@." Memsim.Stats.pp_mpi r.stats;
  Printf.printf "methods compiled: %d  compile time: %.3f ms (prefetch pass \
                 %.3f ms)\n"
    r.methods_compiled
    (1000.0 *. r.total_compile_seconds)
    (1000.0 *. r.prefetch_pass_seconds);
  Printf.printf "program output:\n%s" r.output;
  if verbose then
    List.iter
      (fun rep -> Format.printf "%a@." Strideprefetch.Pass.pp_report rep)
      r.reports;
  (match r.profile with
  | Some rep -> Format.printf "@.%a@." (Profile.Report.pp_topdown ~top:10) rep
  | None -> ());
  match r.monitor with
  | Some rep -> Format.printf "@.%a" (Monitor.Report.pp_dashboard ~top:5) rep
  | None -> ()

(* Telemetry epilogue shared by [run] and [file]: effectiveness table plus
   the Chrome-trace export, when the run carried a sink. *)
let export_trace ~trace (r : H.run_result) =
  match trace with
  | None -> ()
  | Some path ->
      (match r.effectiveness with
      | Some eff when eff.Workloads.Effectiveness.rows <> [] ->
          Format.printf "@.%a@." Workloads.Effectiveness.pp_table eff
      | Some _ | None -> ());
      (match r.sink with
      | Some sink ->
          let other =
            [
              ("workload", Telemetry.Json.Str r.workload);
              ("machine", Telemetry.Json.Str r.machine);
              ( "mode",
                Telemetry.Json.Str (Strideprefetch.Options.mode_name r.mode) );
            ]
          in
          Telemetry.Trace.write_chrome ~other sink ~path;
          Printf.printf "chrome trace written to %s\n" path
      | None -> ())

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Workload.t) ->
        Printf.printf "%-12s %-10s %s\n" w.name
          (match w.suite with
          | `Specjvm -> "SPECjvm98"
          | `Javagrande -> "JavaGrande"
          | `Phase -> "Phase")
          w.description)
      workloads
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List the available workloads.")
    Cmdliner.Term.(const run $ const ())

let workload_arg =
  Cmdliner.Arg.(
    required
    & pos 0 (some Cli_common.workload_conv) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,list)).")

let run_cmd =
  let run w config verbose interproc phased trace explain profile monitor
      max_steps =
    let result =
      run_config ~interproc ~phased ~trace ~profile ~monitor ~max_steps config
        w
    in
    print_result ~verbose:(verbose || explain) result;
    export_trace ~trace result
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run" ~doc:"Run one workload under one configuration.")
    Cmdliner.Term.(
      const run $ workload_arg $ config_arg $ verbose_arg $ interproc_arg
      $ phased_arg $ trace_arg $ explain_arg $ profile_arg $ monitor_arg
      $ max_steps_arg)

let compare_cmd =
  let run (w : Workloads.Workload.t) (config : R.t) max_steps =
    (* One compile serves the three modes. *)
    let req = { (H.request w) with max_steps } in
    let one mode =
      with_budget_exit (fun () ->
          H.execute { req with config = { config with mode } })
    in
    let baseline = one Strideprefetch.Options.Off in
    let inter = one Strideprefetch.Options.Inter in
    let both = one Strideprefetch.Options.Inter_intra in
    Printf.printf "%s on %s:\n" w.name baseline.machine;
    Printf.printf "  BASELINE     %12d cycles\n" baseline.cycles;
    Printf.printf "  INTER        %12d cycles  %+.1f%%\n" inter.cycles
      (H.percent_speedup ~baseline inter);
    Printf.printf "  INTER+INTRA  %12d cycles  %+.1f%%\n" both.cycles
      (H.percent_speedup ~baseline both)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "compare"
       ~doc:"Run BASELINE / INTER / INTER+INTRA and print speedups.")
    Cmdliner.Term.(
      const run $ workload_arg
      $ Cli_common.config_term R.[ Machine; Hw; Engine ]
      $ max_steps_arg)

let file_cmd =
  let path_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.mj" ~doc:"MiniJava source file.")
  in
  let run path config verbose interproc phased trace explain profile monitor
      max_steps =
    let source = In_channel.with_open_text path In_channel.input_all in
    match Minijava.Compile.program_of_source source with
    | Error e ->
        Printf.eprintf "%s: %s\n" path (Minijava.Compile.string_of_error e);
        exit 1
    | Ok program ->
        let w =
          Workloads.Workload.of_source ~name:(Filename.basename path)
            ~description:"user program" ~heap_limit_bytes:(64 * 1024 * 1024)
            source
        in
        let result =
          run_config ~program ~interproc ~phased ~trace ~profile ~monitor
            ~max_steps config w
        in
        print_result ~verbose:(verbose || explain) result;
        export_trace ~trace result
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "file" ~doc:"Compile and run a MiniJava source file.")
    Cmdliner.Term.(
      const run $ path_arg $ config_arg $ verbose_arg $ interproc_arg
      $ phased_arg $ trace_arg $ explain_arg $ profile_arg $ monitor_arg
      $ max_steps_arg)

let () =
  let info =
    Cmdliner.Cmd.info "spf_run" ~version:"1.0"
      ~doc:
        "Stride prefetching by dynamically inspecting objects: simulation \
         driver."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info [ list_cmd; run_cmd; compare_cmd; file_cmd ]))
