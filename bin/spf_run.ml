(* Command-line driver: run workloads or MiniJava source files through the
   mini-JVM with stride prefetching, under any mix of the three observers
   (telemetry attribution, the object-centric profiler and the windowed
   monitor), and compare configurations. *)

(* Workload lookup and the configuration axes are shared across all
   spf_* drivers. *)
module R = Workloads.Run_config
module H = Workloads.Harness

let workloads = Cli_common.workloads

(* One exit-code table for every command. Cmdliner's usage error (124)
   covers a bad flag or value, an unknown workload and a size below 1. *)
let frontend_error = 1
let check_failed = 2
let budget_exhausted = 3
let program_failed = 4

let exits =
  Cmdliner.Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info frontend_error ~doc:"when $(b,file) cannot compile its source.";
      info check_failed
        ~doc:
          "when an armed check fails: a conservation law (the profiler's \
           on every profiled run, attribution's under \
           $(b,--check-invariants)), or the $(b,--max-latency) gate.";
      info budget_exhausted
        ~doc:"when the run exhausts its step budget ($(b,--max-steps)).";
      info program_failed
        ~doc:
          "when the simulated program fails at run time: a division by \
           zero, a null dereference, an array index out of bounds, an \
           operand-stack error, or a heap exhausted after a collection.";
      info 124
        ~doc:"on a usage error: a bad flag or value, or an unknown workload.";
    ]

(* Run [req], mapping the failures a run signals to the exit table. *)
let execute req =
  try H.execute req with
  | Vm.Interp.Budget_exhausted n ->
      Printf.eprintf "spf_run: step budget exceeded (max_steps=%d)\n" n;
      exit budget_exhausted
  | H.Invariant_violation msg ->
      prerr_endline ("spf_run: invariant violation: " ^ msg);
      exit check_failed
  | Vm.Interp.Vm_error msg | Vm.Frame.Stack_error msg ->
      prerr_endline ("spf_run: " ^ msg);
      exit program_failed

let max_steps_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Step budget: abort with exit code 3 once the VM has dispatched \
           more than $(docv) instructions (default: 2e9).")

(* --- The arguments [run] and [file] share ------------------------------- *)

(* The knobs, observers, views, exports and armed checks of one observed
   run. Every view or export turns on the observer it reads. *)
type observed = {
  verbose : bool;  (** [--verbose] or [--explain] *)
  interproc : bool;
  phased : bool;
  check : bool;
  max_steps : int option;
  trace : string option;
  metrics : string option;
  sink_capacity : int option;
  profile : bool;
  topdown : bool;
  objects : bool;
  loops : bool;
  loop : int option;
  folded : string option;
  json : string option;
  monitor : int option;  (** the window, in simulated cycles *)
  jsonl : string option;
  max_latency : int option;
  top : int option;
}

let telemetry_docs = "TELEMETRY"
let profiler_docs = "PROFILER"
let monitor_docs = "MONITOR"

(* Each observer's options get their own section, after the others. *)
let man =
  Cmdliner.Manpage.
    [ `S s_options; `S telemetry_docs; `S profiler_docs; `S monitor_docs ]

let flag_arg ?docs names doc =
  Cmdliner.Arg.(value & flag & info names ?docs ~doc)

let file_arg ~docs name doc =
  Cmdliner.Arg.(
    value & opt (some string) None & info [ name ] ~docs ~docv:"FILE" ~doc)

let observed_term =
  let open Cmdliner in
  let make verbose explain interproc phased check max_steps trace metrics
      sink_capacity profile topdown objects loops loop folded json monitor
      jsonl max_latency top =
    {
      verbose = verbose || explain;
      interproc;
      phased;
      check;
      max_steps;
      trace;
      metrics;
      sink_capacity;
      profile =
        profile || topdown || objects || loops || loop <> None
        || folded <> None || json <> None || check;
      topdown;
      objects;
      loops;
      loop;
      folded;
      json;
      monitor =
        (if monitor = None && (jsonl <> None || max_latency <> None) then
           Some Monitor.Collector.default_window_cycles
         else monitor);
      jsonl;
      max_latency;
      top;
    }
  in
  Term.(
    const make
    $ flag_arg [ "v"; "verbose" ] "Print per-loop prefetching reports."
    $ flag_arg [ "explain" ]
        "Print per-loop decision provenance: candidate sites, observed \
         delta histograms, detected patterns, the emitted plan and the \
         rejection reasons (the reports of $(b,--verbose))."
    $ flag_arg [ "interprocedural" ]
        "Inter-procedural object inspection: step into callees instead of \
         skipping them (extension; see Section 3.2 of the paper)."
    $ flag_arg [ "phased" ]
        "Detect Wu-style phased multiple-stride loads and prefetch them \
         with a run-time-computed stride (extension)."
    $ flag_arg ~docs:profiler_docs [ "check-invariants" ]
        "Assert the attribution and profiler conservation laws inside the \
         harness and exit with code 2 on a breach. Implies $(b,--profile)."
    $ max_steps_arg
    $ file_arg ~docs:telemetry_docs "trace"
        "Write the event stream as Chrome trace_event JSON (load in \
         chrome://tracing or ui.perfetto.dev); under $(b,--monitor) it \
         carries the per-window samples as a counter track \
         ($(b,monitor.window)). Turns telemetry on and prints the per-site \
         effectiveness table and the event counts."
    $ file_arg ~docs:telemetry_docs "metrics"
        "Write the event stream as flat JSONL (one event per line). Turns \
         telemetry on, as $(b,--trace) does."
    $ Arg.(
        value
        & opt (some Cli_common.positive_int) None
        & info [ "sink-capacity" ] ~docs:telemetry_docs ~docv:"N"
            ~doc:
              "Event-ring capacity (default 65536); the oldest events are \
               overwritten beyond it (the drop count is recorded in the \
               trace).")
    $ flag_arg ~docs:profiler_docs [ "profile" ]
        "Run with the object-centric profiler installed and print the \
         top-down cycle accounting (the default view when no other view is \
         selected). Every simulated cycle lands in one bin; a run whose \
         bins do not sum to its cycles exits with code 2."
    $ flag_arg ~docs:profiler_docs [ "topdown" ]
        "Print the top-down cycle accounting: the bin summary and the \
         hottest pcs."
    $ flag_arg ~docs:profiler_docs [ "objects" ]
        "Print the object-centric table: demand stall cycles keyed by the \
         allocation site of the referenced object."
    $ flag_arg ~docs:profiler_docs [ "loops" ]
        "Print the per-loop rollup, joined with the prefetch pass's planned \
         actions per loop."
    $ Arg.(
        value
        & opt (some int) None
        & info [ "loop" ] ~docs:profiler_docs ~docv:"ID"
            ~doc:"Print every profiled pc of loop $(docv), in pc order.")
    $ file_arg ~docs:profiler_docs "folded"
        "Write flamegraph.pl-compatible collapsed stacks \
         (method;loop;pc:instr;bin count) to $(docv)."
    $ file_arg ~docs:profiler_docs "json"
        "Write the full profile as JSON (schema spf_prof/v1) to $(docv)."
    $ Arg.(
        value
        & opt
            ~vopt:(Some Monitor.Collector.default_window_cycles)
            (some Cli_common.positive_int) None
        & info [ "monitor" ] ~docs:monitor_docs ~docv:"WINDOW"
            ~doc:
              "Run with the live windowed monitor armed and print the \
               monitoring dashboard: per-window prefetch usefulness, \
               stall-bin mix and degradation verdicts, and the detection \
               latency of a phase workload's planted shift. $(docv) is the \
               window size in simulated cycles (default 262144).")
    $ file_arg ~docs:monitor_docs "jsonl"
        "Write the per-window time series as JSONL (one object per window \
         plus a trailing summary line)."
    $ Arg.(
        value
        & opt (some int) None
        & info [ "max-latency" ] ~docs:monitor_docs ~docv:"WINDOWS"
            ~doc:
              "Gate the detection latency of a phase workload's planted \
               shift: exit with code 2 when no Degraded verdict lands \
               within $(docv) windows of the shift. Ignored for workloads \
               without a marker.")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "top" ] ~docv:"N"
            ~doc:
              "Rows in each profiler table (default 20) and in the \
               monitor's top-degrading loops and sites (default 5)."))

(* Either event-stream export turns telemetry on. *)
let telemetry o = o.trace <> None || o.metrics <> None

(* One configured run, with [o]'s knobs, observers and budget. *)
let request o ?program config w =
  {
    (H.request ?program w) with
    config;
    opts =
      {
        Strideprefetch.Options.default with
        inspect_calls = o.interproc;
        enable_phased = o.phased;
        check_invariants = o.check;
      };
    observers =
      {
        H.no_observers with
        telemetry = telemetry o;
        profile = o.profile;
        monitor = o.monitor;
        sink_capacity = o.sink_capacity;
      };
    max_steps = o.max_steps;
  }

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
      r.reports

(* The effectiveness table, the event counts and the two event-stream
   exports of a telemetry run. *)
let report_telemetry o (r : H.run_result) sink =
  (match r.effectiveness with
  | Some eff when eff.Workloads.Effectiveness.rows <> [] ->
      Format.printf "@.%a@." Workloads.Effectiveness.pp_table eff
  | Some _ | None ->
      print_endline
        "no prefetch sites executed (mode off, or nothing qualified)");
  Printf.printf "telemetry: %d events recorded (%d dropped)\n"
    (Telemetry.Sink.total_events sink)
    (Telemetry.Sink.dropped sink);
  let other =
    [
      ("workload", Telemetry.Json.Str r.workload);
      ("machine", Telemetry.Json.Str r.machine);
      ("mode", Telemetry.Json.Str (Strideprefetch.Options.mode_name r.mode));
    ]
  in
  Option.iter
    (fun path ->
      Telemetry.Trace.write_chrome ~other sink ~path;
      Printf.printf "chrome trace written to %s\n" path)
    o.trace;
  Option.iter
    (fun path ->
      Telemetry.Trace.write_jsonl ~extra:other sink ~path;
      Printf.printf
        "JSONL metrics written to %s (%d events + summary, %d dropped)\n" path
        (List.length (Telemetry.Sink.events sink))
        (Telemetry.Sink.dropped sink))
    o.metrics

let report_profile o rep =
  let top = Option.value o.top ~default:20 in
  if o.topdown || not (o.objects || o.loops || o.loop <> None) then
    Format.printf "@.%a@." (Profile.Report.pp_topdown ~top) rep;
  if o.loops then Format.printf "@.%a@." (Profile.Report.pp_loops ~top) rep;
  if o.objects then
    Format.printf "@.%a@." (Profile.Report.pp_objects ~top) rep;
  Option.iter
    (fun id ->
      Format.printf "@.%a@." (Profile.Report.pp_loop_detail ~loop:id) rep)
    o.loop;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Profile.Report.folded rep));
      Printf.printf "folded stacks written to %s\n" path)
    o.folded;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Telemetry.Json.to_string (Profile.Report.to_json rep));
          output_char oc '\n');
      Printf.printf "profile JSON written to %s\n" path)
    o.json

(* The dashboard, the per-window export and the detection latency of a
   phase workload's planted shift, gated under [--max-latency]. *)
let report_monitor o (r : H.run_result) rep =
  Format.printf "@.%a"
    (Monitor.Report.pp_dashboard ~top:(Option.value o.top ~default:5))
    rep;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (Monitor.Report.write_jsonl rep);
      Printf.printf "per-window JSONL written to %s (%d windows)\n" path
        (Array.length rep.Monitor.Report.windows))
    o.jsonl;
  match Workloads.Phase.marker_offset r.output with
  | None -> ()
  | Some off -> (
      match Monitor.Report.detection_latency rep ~marker_offset:off with
      | Monitor.Report.No_shift ->
          print_endline "phase shift: marker past the last window"
      | Monitor.Report.Undetected shift ->
          Printf.printf "phase shift at window %d: NOT detected\n" shift;
          if o.max_latency <> None then exit check_failed
      | Monitor.Report.Detected { shift; degraded; latency } -> (
          Printf.printf
            "phase shift at window %d: degraded at window %d (latency %d \
             windows)\n"
            shift degraded latency;
          match o.max_latency with
          | Some gate when latency > gate ->
              Printf.printf "latency gate FAILED (> %d windows)\n" gate;
              exit check_failed
          | _ -> ()))

(* Execute, refuse a profile whose tables would not sum, then print the
   run, each observer's views and exports, and the latency gate last. *)
let run_observed o ?program config w =
  let r = execute (request o ?program config w) in
  (match Option.bind r.profile Profile.Report.conservation_error with
  | Some msg ->
      prerr_endline ("spf_run: profile conservation: " ^ msg);
      exit check_failed
  | None -> ());
  print_result ~verbose:o.verbose r;
  if telemetry o then report_telemetry o r (Option.get r.sink);
  Option.iter (report_profile o) r.profile;
  Option.iter (report_monitor o r) r.monitor

let config_arg =
  Cli_common.config_term R.[ Machine; Hw; Mode; Prediction; Engine ]

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
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "Workload name (see $(b,list)); the $(b,PhaseShift) and \
           $(b,PhaseChurn) workloads carry a planted mid-run shift.")

let run_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run" ~exits ~man
       ~doc:"Run one workload under one configuration and any observers.")
    Cmdliner.Term.(
      const (fun w config o -> run_observed o config w)
      $ workload_arg $ config_arg $ observed_term)

let compare_cmd =
  let run (w : Workloads.Workload.t) (config : R.t) max_steps =
    (* One compile serves the three modes. *)
    let req = { (H.request w) with max_steps } in
    let one mode = execute { req with config = { config with mode } } in
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
    (Cmdliner.Cmd.info "compare" ~exits
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
  let run path config o =
    let source = In_channel.with_open_text path In_channel.input_all in
    match Minijava.Compile.program_of_source source with
    | Error e ->
        Printf.eprintf "%s: %s\n" path (Minijava.Compile.string_of_error e);
        exit frontend_error
    | Ok program ->
        run_observed o ~program config
          (Workloads.Workload.of_source ~name:(Filename.basename path)
             ~description:"user program" ~heap_limit_bytes:(64 * 1024 * 1024)
             source)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "file" ~exits ~man
       ~doc:"Compile and run a MiniJava source file, as $(b,run) does.")
    Cmdliner.Term.(const run $ path_arg $ config_arg $ observed_term)

let () =
  let info =
    Cmdliner.Cmd.info "spf_run" ~version:"1.0" ~exits
      ~doc:
        "Stride prefetching by dynamically inspecting objects: simulation \
         driver."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info [ list_cmd; run_cmd; compare_cmd; file_cmd ]))
