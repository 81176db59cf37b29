(* spf_e2e: the repository's end-to-end benchmark (README.md here).

   run     one workload, untraced: every end-to-end metric
   run --trace 1 / trace
           one workload, traced: every per-layer metric
   expect  rewrite expected.json, checked against the reference engine
   smoke   every workload shrunk, both modes, metric names checked
           against BENCHMARK.json

   Metrics print as [name value unit]; the last line of standard output
   is the result object. Exit 1 when a correctness check fails. *)

open Cmdliner
open E2e

let finish ?json_out (o : Measure.outcome) =
  Report.print_metrics o.metrics;
  List.iter (Printf.eprintf "FAIL %s\n") o.problems;
  let json =
    Telemetry.Json.to_string
      (Report.result_json ~correct:(o.problems = []) ~attempted:o.attempted
         ~failed:o.failed o.metrics)
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc json;
          output_char oc '\n'))
    json_out;
  print_endline json;
  if o.problems = [] then 0 else 1

let measure ~expected_path ~seed ~seconds ~trace ?chrome workload =
  let expected = Expected.read ~path:expected_path in
  let units = Suite.units ~seed workload in
  if trace then begin
    let o, sink = Traced.run ~expected units in
    Option.iter (fun path -> Telemetry.Trace.write_chrome sink ~path) chrome;
    o
  end
  else Measure.run ~expected ~seconds:(float_of_int seconds) units

let workload_arg =
  let workloads = List.map (fun w -> (Suite.name w, w)) Suite.all in
  Arg.(
    required
    & opt (some (enum workloads)) None
    & info [ "workload"; "w" ] ~docv:"WORKLOAD"
        ~doc:("One of " ^ String.concat ", " (List.map fst workloads) ^ "."))

let seed_arg =
  Arg.(
    value & opt int 2026
    & info [ "seed" ]
        ~doc:
          "Picks the fuzz corpus and the cell order of the fixed-program \
           workloads.")

let seconds_arg =
  Arg.(
    value & opt int 25
    & info [ "seconds" ]
        ~doc:
          "Measurement budget: whole passes over the workload run until the \
           next one would not fit; at least one runs.")

let trace_arg =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1: the traced run, printing the per-layer metrics.")

let expected_arg =
  Arg.(
    value
    & opt string Expected.default_path
    & info [ "expected" ] ~docv:"PATH" ~doc:"The expected-results file.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"OUT" ~doc:"Also write the result object to $(docv).")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"PATH"
        ~doc:"Traced runs: write the layer spans as a Chrome trace to $(docv).")

let run_cmd =
  let run workload seed seconds trace expected_path json_out chrome =
    finish ?json_out
      (measure ~expected_path ~seed ~seconds ~trace ?chrome workload)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload and print its metrics.")
    Term.(
      const run $ workload_arg $ seed_arg $ seconds_arg $ trace_arg
      $ expected_arg $ json_arg $ chrome_arg)

let trace_cmd =
  let trace workload seed expected_path json_out chrome =
    let chrome =
      Option.value chrome
        ~default:(Printf.sprintf "e2e-trace-%s.json" (Suite.name workload))
    in
    finish ?json_out
      (measure ~expected_path ~seed ~seconds:0 ~trace:true ~chrome workload)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Traced run of one workload: print the per-layer metrics and write \
          a Chrome trace (default e2e-trace-WORKLOAD.json).")
    Term.(
      const trace $ workload_arg $ seed_arg $ expected_arg $ json_arg
      $ chrome_arg)

let expect_cmd =
  let expect path =
    let entries =
      List.map
        (fun (c : Suite.cell) ->
          let key = Suite.key c in
          prerr_endline ("expect " ^ key);
          let heap_limit_bytes = c.workload.Workloads.Workload.heap_limit_bytes in
          let source = c.workload.Workloads.Workload.source in
          let headline = Wiring.run (Wiring.headline c.machine) ~heap_limit_bytes source in
          let reference = Wiring.run (Wiring.reference c.machine) ~heap_limit_bytes source in
          if headline.output <> reference.output then
            failwith (key ^ ": output differs from the switch-engine BASELINE run");
          if headline.faulting_prefetches > 0 then
            failwith (key ^ ": faulting prefetches");
          (key, Expected.of_outcome headline))
        (Suite.expected_cells ())
    in
    Expected.write ~path entries;
    Printf.printf "wrote %d cells to %s\n" (List.length entries) path;
    0
  in
  Cmd.v
    (Cmd.info "expect"
       ~doc:
         "Run every fixed-program cell and write its cycles, retired \
          instructions, GC count and output MD5, after checking each output \
          against a BASELINE run on the switch engine.")
    Term.(
      const expect
      $ Arg.(
          value
          & opt string Expected.default_path
          & info [ "expected" ] ~docv:"PATH" ~doc:"Where to write."))

let smoke_cmd =
  let smoke benchmark_json expected_path =
    let expected = Expected.read ~path:expected_path in
    let ok = ref true in
    let check section names =
      let declared = Report.declared ~path:benchmark_json section in
      let missing = List.filter (fun n -> not (List.mem n names)) declared in
      let undeclared = List.filter (fun n -> not (List.mem n declared)) names in
      List.iter (Printf.printf "  declared but not printed: %s\n") missing;
      List.iter (Printf.printf "  printed but not declared: %s\n") undeclared;
      missing = [] && undeclared = []
    in
    List.iter
      (fun w ->
        let units = Suite.units ~smoke:true ~seed:2026 w in
        List.iter
          (fun (trace, section) ->
            let t0 = Report.now () in
            let o =
              if trace then fst (Traced.run ~expected units)
              else Measure.run ~expected ~seconds:0.0 units
            in
            let names_ok =
              check section (List.map (fun (m : Report.metric) -> m.name) o.metrics)
            in
            List.iter (Printf.printf "  FAIL %s\n") o.problems;
            let pass = names_ok && o.problems = [] in
            ok := !ok && pass;
            Printf.printf "smoke %s --trace %d: %d units, %.2f s: %s\n%!"
              (Suite.name w) (Bool.to_int trace) o.attempted
              (Report.now () -. t0)
              (if pass then "ok" else "FAILED"))
          [ (false, "end_to_end"); (true, "per_layer") ])
      Suite.all;
    if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Run every workload shrunk to one cell (five fuzz programs), untraced \
          and traced; fail on a correctness problem or on a metric name \
          BENCHMARK.json does not declare, or declares and is not printed.")
    Term.(
      const smoke
      $ Arg.(
          value & opt string "BENCHMARK.json"
          & info [ "benchmark-json" ] ~docv:"PATH" ~doc:"The benchmark description.")
      $ expected_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "spf_e2e" ~doc:"End-to-end benchmark of the stride-prefetch simulator.")
          [ run_cmd; trace_cmd; expect_cmd; smoke_cmd ]))
