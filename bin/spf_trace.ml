(* The observability driver: run one workload with the full telemetry
   stack threaded through — effectiveness attribution, decision
   provenance, and the event-span pipeline — then render the per-site
   coverage/accuracy table and export Chrome-trace / JSONL files. *)

module R = Workloads.Run_config
module H = Workloads.Harness

let workload_arg =
  Cmdliner.Arg.(
    required
    & opt (some Cli_common.workload_conv) None
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload name (see $(b,spf_run list)).")

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the event stream as Chrome trace_event JSON (load in \
           chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the event stream as flat JSONL (one event per line).")

let explain_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print per-loop decision provenance: candidate sites, observed \
           delta histograms, detected patterns, the emitted plan and the \
           rejection reasons.")

let phased_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "phased" ]
        ~doc:"Enable Wu-style phased multiple-stride prefetching.")

let capacity_arg =
  Cmdliner.Arg.(
    value & opt Cli_common.positive_int 65536
    & info [ "sink-capacity" ] ~docv:"N"
        ~doc:
          "Event-ring capacity; the oldest events are overwritten beyond \
           it (the drop count is recorded in the trace).")

let extra_of ~(w : Workloads.Workload.t) ~machine ~mode =
  [
    ("workload", Telemetry.Json.Str w.name);
    ("machine", Telemetry.Json.Str machine.Memsim.Config.name);
    ("mode", Telemetry.Json.Str (Strideprefetch.Options.mode_name mode));
  ]

let run w (config : R.t) trace metrics explain phased capacity =
  let machine = R.machine config and mode = config.mode in
  let result =
    H.execute
      {
        (H.request w) with
        config;
        opts =
          { Strideprefetch.Options.default with enable_phased = phased };
        observers =
          {
            H.no_observers with
            telemetry = true;
            sink_capacity = Some capacity;
          };
      }
  in
  Printf.printf "workload: %s  machine: %s  mode: %s\n" result.workload
    result.machine
    (Strideprefetch.Options.mode_name result.mode);
  Printf.printf "cycles: %d  GCs: %d  methods compiled: %d\n"
    result.cycles result.gc_count result.methods_compiled;
  Format.printf "%a@." Memsim.Stats.pp result.stats;
  if explain then
    List.iter
      (fun rep -> Format.printf "%a@." Strideprefetch.Pass.pp_report rep)
      result.reports;
  (match result.effectiveness with
  | Some eff when eff.Workloads.Effectiveness.rows <> [] ->
      Format.printf "@.%a@." Workloads.Effectiveness.pp_table eff
  | Some _ ->
      print_endline
        "no prefetch sites executed (mode off, or nothing qualified)"
  | None -> ());
  let sink = Option.get result.sink in
  Printf.printf "telemetry: %d events recorded (%d dropped)\n"
    (Telemetry.Sink.total_events sink)
    (Telemetry.Sink.dropped sink);
  let other = extra_of ~w ~machine ~mode in
  (match trace with
  | Some path ->
      Telemetry.Trace.write_chrome ~other sink ~path;
      Printf.printf "chrome trace written to %s\n" path
  | None -> ());
  (match metrics with
  | Some path ->
      Telemetry.Trace.write_jsonl ~extra:other sink ~path;
      Printf.printf
        "JSONL metrics written to %s (%d events + summary, %d dropped)\n"
        path
        (List.length (Telemetry.Sink.events sink))
        (Telemetry.Sink.dropped sink)
  | None -> ())

let () =
  let info =
    Cmdliner.Cmd.info "spf_trace" ~version:"1.0"
      ~doc:
        "Prefetch-effectiveness attribution, decision provenance, and \
         trace export for the stride-prefetching simulator."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.v info
          Cmdliner.Term.(
            const run $ workload_arg
            $ Cli_common.config_term R.[ Machine; Hw; Mode ]
            $ trace_arg $ metrics_arg $ explain_arg $ phased_arg
            $ capacity_arg)))
