(* The live-monitoring driver: run one workload with the windowed
   monitor armed, print the terminal dashboard (sparklines, verdict
   timeline, top degrading loops and sites), export the per-window time
   series as JSONL and the run's event stream — monitor counter track
   included — as a Chrome trace.

   For the phase-shifting workloads (which print a marker at their
   planted shift) the detection latency is measured and, under
   [--max-latency], gated: exit code 2 when the monitor missed the shift
   or took too long. *)

module R = Workloads.Run_config
module H = Workloads.Harness

let workload_arg =
  Cmdliner.Arg.(
    required
    & opt (some Cli_common.workload_conv) None
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:
          "Workload name (see $(b,spf_run list)); the $(b,PhaseShift) and \
           $(b,PhaseChurn) workloads carry a planted mid-run shift.")

let window_arg =
  Cmdliner.Arg.(
    value
    & opt int Monitor.Collector.default_window_cycles
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:"Window size in simulated cycles (default 262144).")

let jsonl_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE"
        ~doc:
          "Write the per-window time series as JSONL (one object per \
           window plus a trailing summary line).")

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's event stream as Chrome trace_event JSON; the \
           monitor's per-window samples appear as a counter track \
           ($(b,monitor.window)).")

let top_arg =
  Cmdliner.Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"N"
        ~doc:"Rows in the top-degrading loops/sites tables (default 5).")

let max_latency_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "max-latency" ] ~docv:"WINDOWS"
        ~doc:
          "Gate the detection latency of a phase workload's planted \
           shift: exit with code 2 when no Degraded verdict lands within \
           $(docv) windows of the shift. Ignored for workloads without a \
           marker.")

let latency_gate_exit = 2

let run w (config : R.t) window jsonl trace top max_latency =
  if window <= 0 then begin
    prerr_endline "spf_mon: --window must be positive";
    exit 1
  end;
  let result =
    H.execute
      {
        (H.request w) with
        config;
        observers = { H.no_observers with monitor = Some window };
      }
  in
  let rep = Option.get result.H.monitor in
  Printf.printf "workload: %s  machine: %s  mode: %s  engine: %s\n"
    result.workload result.machine
    (Strideprefetch.Options.mode_name result.mode)
    (Vm.Interp.engine_name config.engine);
  Format.printf "%a" (Monitor.Report.pp_dashboard ~top) rep;
  (match jsonl with
  | Some path ->
      Out_channel.with_open_text path (Monitor.Report.write_jsonl rep);
      Printf.printf "per-window JSONL written to %s (%d windows)\n" path
        (Array.length rep.Monitor.Report.windows)
  | None -> ());
  (match (trace, result.sink) with
  | Some path, Some sink ->
      let other =
        [
          ("workload", Telemetry.Json.Str result.workload);
          ("machine", Telemetry.Json.Str result.machine);
          ( "mode",
            Telemetry.Json.Str (Strideprefetch.Options.mode_name result.mode)
          );
        ]
      in
      Telemetry.Trace.write_chrome ~other sink ~path;
      Printf.printf "chrome trace written to %s\n" path
  | Some _, None | None, _ -> ());
  (* Detection latency against the planted shift, when there is one. *)
  (match Workloads.Phase.marker_offset result.output with
  | None -> ()
  | Some off -> (
      match Monitor.Report.detection_latency rep ~marker_offset:off with
      | Monitor.Report.No_shift ->
          print_endline "phase shift: marker past the last window"
      | Monitor.Report.Undetected shift ->
          Printf.printf "phase shift at window %d: NOT detected\n" shift;
          if max_latency <> None then exit latency_gate_exit
      | Monitor.Report.Detected { shift; degraded; latency } -> (
          Printf.printf
            "phase shift at window %d: degraded at window %d (latency %d \
             windows)\n"
            shift degraded latency;
          match max_latency with
          | Some gate when latency > gate ->
              Printf.printf "latency gate FAILED (> %d windows)\n" gate;
              exit latency_gate_exit
          | _ -> ())))

let () =
  let info =
    Cmdliner.Cmd.info "spf_mon" ~version:"1.0"
      ~doc:
        "Live windowed monitoring for the stride-prefetching simulator: \
         phase-aware time-series metrics, degradation detectors, and a \
         monitoring dashboard."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.v info
          Cmdliner.Term.(
            const run $ workload_arg
            $ Cli_common.config_term R.[ Machine; Hw; Mode; Engine; Prediction ]
            $ window_arg $ jsonl_arg $ trace_arg $ top_arg $ max_latency_arg)))
