(* The object-centric profiler driver: run one workload with profiling
   hooks installed and render the top-down cycle accounting, the per-loop
   and per-allocation-site hot-spot tables, and the flamegraph /JSON
   exports. Every simulated cycle lands in exactly one bin, so the
   tables sum to the run's cycle count (checked here on every
   invocation, and --check-invariants promotes the check to a hard
   failure inside the harness). *)

module R = Workloads.Run_config
module H = Workloads.Harness

let workload_arg =
  Cmdliner.Arg.(
    required
    & opt (some Cli_common.workload_conv) None
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload name (see $(b,spf_run list)).")

let topdown_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "topdown" ]
        ~doc:
          "Print the top-down cycle accounting: the bin summary and the \
           hottest pcs (the default view when no other view is selected).")

let objects_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "objects" ]
        ~doc:
          "Print the object-centric table: demand stall cycles keyed by \
           the allocation site of the referenced object.")

let loops_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "loops" ]
        ~doc:
          "Print the per-loop rollup, joined with the prefetch pass's \
           planned actions per loop.")

let loop_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "loop" ] ~docv:"ID"
        ~doc:"Print every profiled pc of loop $(docv), in pc order.")

let folded_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"FILE"
        ~doc:
          "Write flamegraph.pl-compatible collapsed stacks \
           (method;loop;pc:instr;bin count) to $(docv).")

let json_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full profile as JSON (schema spf_prof/v1) to $(docv).")

let top_arg =
  Cmdliner.Arg.(
    value & opt int 20
    & info [ "top" ] ~docv:"N" ~doc:"Rows to show in each table.")

let check_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Assert the attribution and profiler conservation laws inside \
           the harness and exit non-zero on violation (they are also \
           checked here either way).")

let phased_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "phased" ]
        ~doc:"Enable Wu-style phased multiple-stride prefetching.")

let run w (config : R.t) topdown objects loops loop folded json top check
    phased =
  let opts =
    {
      Strideprefetch.Options.default with
      enable_phased = phased;
      check_invariants = check;
    }
  in
  let result =
    try
      H.execute
        {
          (H.request w) with
          config;
          opts;
          observers = { H.no_observers with profile = true };
        }
    with H.Invariant_violation msg ->
      prerr_endline ("invariant violation: " ^ msg);
      exit 2
  in
  let rep = Option.get result.profile in
  (* The conservation law is this tool's foundation; refuse to print
     tables that do not sum. *)
  (match Profile.Report.conservation_error rep with
  | Some msg ->
      prerr_endline ("BUG: " ^ msg);
      exit 2
  | None -> ());
  Printf.printf "workload: %s  machine: %s  mode: %s\n" result.workload
    result.machine
    (Strideprefetch.Options.mode_name result.mode);
  let any_view = topdown || objects || loops || loop <> None in
  if topdown || not any_view then
    Format.printf "@.%a@." (Profile.Report.pp_topdown ~top) rep;
  if loops then Format.printf "@.%a@." (Profile.Report.pp_loops ~top) rep;
  if objects then
    Format.printf "@.%a@." (Profile.Report.pp_objects ~top) rep;
  (match loop with
  | Some id ->
      Format.printf "@.%a@." (Profile.Report.pp_loop_detail ~loop:id) rep
  | None -> ());
  (match folded with
  | Some path ->
      let oc = open_out path in
      output_string oc (Profile.Report.folded rep);
      close_out oc;
      Printf.printf "folded stacks written to %s\n" path
  | None -> ());
  (match json with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Telemetry.Json.to_string (Profile.Report.to_json rep));
      output_char oc '\n';
      close_out oc;
      Printf.printf "profile JSON written to %s\n" path
  | None -> ())

let () =
  let info =
    Cmdliner.Cmd.info "spf_prof" ~version:"1.0"
      ~doc:
        "Object-centric cycle profiler for the stride-prefetching \
         simulator: top-down stall attribution per pc, loop and \
         allocation site, with flamegraph and JSON export."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.v info
          Cmdliner.Term.(
            const run $ workload_arg
            $ Cli_common.config_term R.[ Machine; Hw; Mode; Engine; Prediction ]
            $ topdown_arg $ objects_arg $ loops_arg $ loop_arg
            $ folded_arg $ json_arg $ top_arg $ check_arg $ phased_arg)))
