(* Differential run diagnosis driver.

   Three ways in:
   - live twin diff:   spf_diff -w db --vs prediction=hybrid
       runs the base (A) and overridden (B) configurations with the
       profiler installed and prints the blame report — per-loop /
       per-allocation-site cycle deltas by stall bin, attribution deltas
       and pass-decision changes, with the conservation check (per-loop
       deltas + gc = total cycle delta, exactly);
   - axis bisection:   spf_diff -w db --vs mode=off,engine=switch --bisect
       replays intermediate configurations (plain, unprofiled runs —
       cycles are observer-independent) to isolate the minimal axis set
       responsible for the delta;
   - recorded diff:    spf_diff -a old.json -b new.json
       diffs two snapshots written by --record (spf_diff/v1) or by
       spf_prof --json (spf_prof/v1; carries no config/attribution/
       provenance, those sections are skipped).

   Exit codes: 0 clean; 1 conservation violation, --expect-axis
   mismatch, or --max-replays exceeded; 2 invariant violation in a
   replay; cmdliner codes for usage errors. *)

module H = Workloads.Harness
module R = Workloads.Run_config
module B = Diff.Bisect

(* The request every live run of [w] derives from: one compile serves the
   twins and every bisector replay. *)
let live_request w =
  {
    (H.request w) with
    opts = { Strideprefetch.Options.default with check_invariants = true };
  }

let run_live ?(profile = false) (req : H.request) config =
  try
    H.execute
      { req with config; observers = { H.no_observers with profile } }
  with H.Invariant_violation msg ->
    Printf.eprintf "spf_diff: invariant violation in replay: %s\n" msg;
    exit 2

let rundata_of_live req c =
  let r = run_live ~profile:true req c in
  match Diff.Rundata.of_run ~config:c r with
  | Ok rd -> rd
  | Error e ->
      Printf.eprintf "spf_diff: %s\n" e;
      exit 2

let conservation_gate blame =
  match Diff.Blame.check blame with
  | None -> ()
  | Some msg ->
      Printf.eprintf "spf_diff: %s\n" msg;
      exit 1

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Telemetry.Json.to_string json);
      Out_channel.output_string oc "\n")

(* ------------------------------------------------------------------ *)

let workload_arg =
  Cmdliner.Arg.(
    value
    & opt (some Cli_common.workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Workload to replay (required for live diffs and --record).")

let vs_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "vs" ] ~docv:"KEY=VALUE[,...]"
        ~doc:
          "B-side config: the base options with these axes overridden. \
           Keys: $(b,machine), $(b,mode), $(b,engine), $(b,hw), \
           $(b,prediction), $(b,threshold) (int or $(b,default)), \
           $(b,passes) (on/off).")

let bisect_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "bisect" ]
        ~doc:
          "Bisect the option axes instead of profiling: replay \
           intermediate configurations (one axis flipped at a time, \
           early-stopping on an exact reproduction of B's cycles) and \
           name the minimal responsible axis set.")

let expect_axis_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "expect-axis" ] ~docv:"AXIS"
        ~doc:
          "With --bisect: exit 1 unless the top responsible axis is \
           $(docv) — the CI hook that keeps the bisector honest.")

let max_replays_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "max-replays" ] ~docv:"N"
        ~doc:"With --bisect: exit 1 if more than $(docv) replays were spent.")

let record_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Run the base configuration once (profiled) and write its \
           spf_diff/v1 snapshot to $(docv) for later offline diffing.")

let a_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "a" ] ~docv:"FILE"
        ~doc:"Baseline snapshot (spf_diff/v1 or spf_prof/v1 JSON).")

let b_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "b" ] ~docv:"FILE" ~doc:"New snapshot to diff against -a.")

let json_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the blame report as JSON to $(docv).")

let top_arg =
  Cmdliner.Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"N" ~doc:"Rows per blame table (default 10).")

let inject_arg =
  Cli_common.inject_arg [ Vm.Fault.Diff_desync ]
    ~doc:
      "Self-test fault injection: perturb one loop's delta after the blame \
       join, so the conservation check must fail and spf_diff must exit 1. \
       Never use outside the @diff self-test."

let emit_blame ~json ~top blame =
  print_string (Diff.Blame.render ~top blame);
  (match json with
  | Some path ->
      write_json path (Diff.Blame.to_json blame);
      Printf.printf "blame JSON written to %s\n" path
  | None -> ());
  conservation_gate blame

let main workload base vs bisect expect_axis max_replays record a_file b_file
    json top faults =
  let fault_desync = List.mem Vm.Fault.Diff_desync faults in
  match (record, a_file, b_file) with
  | Some path, _, _ ->
      let w =
        match workload with
        | Some w -> w
        | None ->
            Printf.eprintf "spf_diff: --record needs --workload\n";
            exit 2
      in
      let rd = rundata_of_live (live_request w) base in
      write_json path (Diff.Rundata.to_json rd);
      Printf.printf "snapshot written to %s (%s, %d cycles)\n" path
        w.Workloads.Workload.name rd.Diff.Rundata.cycles
  | None, Some fa, Some fb ->
      let load f =
        match Diff.Rundata.load f with
        | Ok rd -> rd
        | Error e ->
            Printf.eprintf "spf_diff: %s\n" e;
            exit 2
      in
      let ra = load fa and rb = load fb in
      emit_blame ~json ~top (Diff.Blame.build ~fault_desync ~a:ra ~b:rb ())
  | None, Some _, None | None, None, Some _ ->
      Printf.eprintf "spf_diff: -a and -b go together\n";
      exit 2
  | None, None, None -> (
      let w =
        match workload with
        | Some w -> w
        | None ->
            Printf.eprintf
              "spf_diff: nothing to do — need --workload with --vs (live \
               diff), --record, or -a/-b (recorded diff)\n";
            exit 2
      in
      let vs_spec =
        match vs with
        | Some s -> s
        | None ->
            Printf.eprintf "spf_diff: live diff needs --vs overrides\n";
            exit 2
      in
      let b =
        match R.apply_overrides base vs_spec with
        | Ok c -> c
        | Error e ->
            Printf.eprintf "spf_diff: %s\n" e;
            exit 2
      in
      let req = live_request w in
      if bisect then begin
        let outcome =
          B.run ~replay:(fun c -> (run_live req c).H.cycles) ~a:base ~b
        in
        print_string (B.render ~a:base ~b outcome);
        (match max_replays with
        | Some n when outcome.B.replays > n ->
            Printf.eprintf "spf_diff: bisection took %d replays (max %d)\n"
              outcome.B.replays n;
            exit 1
        | _ -> ());
        match expect_axis with
        | None -> ()
        | Some name -> (
            match outcome.B.responsible with
            | top_ax :: _ when R.axis_of_name name = Some top_ax -> ()
            | axes ->
                Printf.eprintf
                  "spf_diff: expected responsible axis %s, bisection found \
                   [%s]\n"
                  name
                  (String.concat ", " (List.map R.axis_name axes));
                exit 1)
      end
      else
        let ra = rundata_of_live req base in
        let rb = rundata_of_live req b in
        emit_blame ~json ~top (Diff.Blame.build ~fault_desync ~a:ra ~b:rb ()))

let () =
  let info =
    Cmdliner.Cmd.info "spf_diff" ~version:"1.0"
      ~doc:
        "Differential run diagnosis: blame a cycle delta on loops, \
         allocation sites, attribution classes and option axes."
  in
  let term =
    Cmdliner.Term.(
      const main $ workload_arg
      $ Cli_common.config_term
          R.[ Machine; Hw; Mode; Engine; Prediction; Threshold; Passes ]
      $ vs_arg $ bisect_arg $ expect_axis_arg $ max_replays_arg $ record_arg
      $ a_arg $ b_arg $ json_arg $ top_arg $ inject_arg)
  in
  exit (Cmdliner.Cmd.eval (Cmdliner.Cmd.v info term))
