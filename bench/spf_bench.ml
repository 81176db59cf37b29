(* spf_bench: record bench_hotpath/v2 reports, sweep configuration axes,
   and run the statistical regression gate between reports.

   Usage:
     spf_bench --record PATH [--jobs N]         run the canonical matrix,
                                                write the report to PATH
     spf_bench --compare BASELINE NEW           gate NEW against BASELINE
                                                (exit 1 on regression)
     spf_bench --gate-against BASELINE [--jobs N]
                                                record a fresh in-memory
                                                run and gate it against
                                                BASELINE
     spf_bench --sweep AXIS=V1,V2,... [--sweep ...] [--record PATH]
                                                run every combination of
                                                the values, print each
                                                one's sums and each
                                                machine's pick, check the
                                                sweep's own report
     spf_bench --smoke                          fast self-check used by
                                                dune runtest: one cell run
                                                twice must gate clean, an
                                                injected +10% cycle count
                                                must fail, and a v1 schema
                                                must be refused

   Cycle counts are gated on exact equality (they are deterministic);
   wall-clock is gated on a bootstrap 95% CI of the per-cell geomean
   ratio against a practical threshold (--threshold, default 5%). *)

module Runner = Bench_runner.Runner
module Report = Bench_runner.Report
module Gate = Bench_runner.Gate
module R = Workloads.Run_config

let usage () =
  prerr_endline
    "usage: spf_bench (--record PATH | --compare BASELINE NEW | \
     --gate-against BASELINE | --sweep AXIS=V1,V2,... [--record PATH] | \
     --smoke) [--jobs N] [--threshold PCT]\n\
     --sweep (repeatable) runs every combination of the given values; \
     AXIS is workload (default: the paper's twelve) or a run-config \
     axis: machine, mode, hw, threshold, prediction, passes, engine. It \
     prints cycles, inspection iterations and steps and prefetch-pass \
     time per combination, summed over the workloads, and each \
     machine's lowest-cycle combination (its pick)."

let ok_or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("spf_bench: " ^ e);
      exit 2

let run_cells ~jobs what cells =
  Printf.eprintf "[spf_bench] %s: %d cells on %d job(s)...\n%!" what
    (List.length cells) jobs;
  let t0 = Unix.gettimeofday () in
  let timed =
    Runner.run_matrix ~jobs
      ~progress:(fun c ->
        Printf.eprintf "[spf_bench]   %s\n%!" (Runner.cell_key c))
      cells
  in
  (timed, Unix.gettimeofday () -. t0)

(* Render a report, write it when asked, and read it back: the gate sees
   exactly what was written. *)
let report ?sweep ?path ~jobs (timed, wall) =
  let json =
    Report.to_json_string ?sweep ~jobs ~matrix_wall_seconds:wall timed
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc json);
      Printf.printf "wrote %s (%d cells, %.1f s wall)\n" path
        (List.length timed) wall)
    path;
  ok_or_die
    (Gate.of_string ~label:(Option.value ~default:"<fresh run>" path) json)

let print_dispatch label (run : Gate.run) =
  match Gate.dispatch_geomean (Gate.dispatch_pairs run.Gate.cells) with
  | Some g ->
      Printf.printf "dispatch geomean speedup (switch/closure) %s: %.3fx\n"
        label g
  | None -> ()

let record ~jobs path =
  let matrix = run_cells ~jobs "canonical matrix" (Report.default_cells ()) in
  print_dispatch path (report ~path ~jobs matrix)

(* ------------------------------------------------------------------ *)
(* Blame on failure: when the gate trips on a cycle regression, explain
   it — per-loop cycle deltas decomposed by stall bin (lib/diff's blame
   report), so a red gate ships its own diagnosis instead of a bare
   cycle count.

   Two-sided when both reports embed the profiled cell's blame payload
   (reports written by the current Report.to_json_string do); when the
   baseline predates the blame lane, --gate-against falls back to a
   one-sided fresh profiled re-run of the regressed cell — where the
   cycles go now, even if the delta can't be split per loop. *)

let rundata_of_cell name (c : Gate.cell_rec) =
  match c.Gate.blame with
  | Some payload ->
      Diff.Rundata.of_bench_blame
        ~stamp:{ workload = c.workload; config = c.config }
        ~cycles:c.Gate.cycles payload
  | None -> Error (name ^ " carries no blame payload")

(* The one-sided fallback rendering: the fresh run's hottest loops. *)
let print_one_sided (rd : Diff.Rundata.t) =
  let loops =
    List.sort
      (fun (a : Diff.Rundata.loop) b -> compare b.lr_total a.lr_total)
      rd.Diff.Rundata.loops
  in
  List.iteri
    (fun i (l : Diff.Rundata.loop) ->
      if i < 5 then
        Printf.printf "  %s/%s: %d cycles\n" l.Diff.Rundata.lr_method
          (if l.lr_loop < 0 then "(straight-line)"
           else Printf.sprintf "loop%d" l.lr_loop)
          l.lr_total)
    loops

let max_explained = 3

let explain_regressions ?rerun (c : Gate.comparison) =
  let explain (p : Gate.pair) =
    Printf.printf "\n--- blame: %s ---\n" p.Gate.key;
    let b_side =
      match (rundata_of_cell "run B" p.Gate.b, rerun) with
      | (Ok _ as ok), _ -> ok
      | Error _, Some fresh -> fresh p
      | (Error _ as e), None -> e
    in
    match (rundata_of_cell "baseline" p.Gate.a, b_side) with
    | Ok a, Ok b ->
        let bl = Diff.Blame.build ~a ~b () in
        print_string (Diff.Blame.render ~top:5 bl)
    | Error why, Ok b ->
        Printf.printf
          "%s; one-sided diagnosis (profiled breakdown of the regressed \
           run, %+d cycles vs baseline):\n"
          why
          (p.Gate.b.Gate.cycles - p.Gate.a.Gate.cycles);
        print_one_sided b
    | _, Error why ->
        Printf.printf
          "%s; re-record the baseline with the current writer or run \
           --gate-against for a fresh profiled diagnosis\n"
          why
  in
  match c.Gate.cycle_regressions with
  | [] -> ()
  | regressed ->
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      List.iter explain (take max_explained regressed);
      let dropped = List.length regressed - max_explained in
      if dropped > 0 then
        Printf.printf
          "\n(%d more regressed cell(s) not explained; fix the above \
           first)\n"
          dropped

let compare_runs ?threshold ?rerun a b =
  let c = ok_or_die (Gate.compare_runs ?threshold ~a ~b ()) in
  print_string (Gate.render c);
  print_dispatch "A" a;
  print_dispatch "B" b;
  if not (Gate.passes c) then explain_regressions ?rerun c;
  exit (Gate.gate_exit c)

let compare_files ?threshold path_a path_b =
  let a = ok_or_die (Gate.load path_a) and b = ok_or_die (Gate.load path_b) in
  compare_runs ?threshold a b

let gate_against ?threshold ~jobs baseline_path =
  let a = ok_or_die (Gate.load baseline_path) in
  let ((timed, _) as matrix) =
    run_cells ~jobs "canonical matrix" (Report.default_cells ())
  in
  let b = report ~jobs matrix in
  (* The fresh run is still in memory: a regressed cell whose baseline
     has no blame payload is re-run with the profiler installed (one
     cell — cheap next to the matrix) for the one-sided diagnosis. *)
  let rerun (p : Gate.pair) =
    match
      List.find_opt
        (fun (t : Runner.timed) -> Runner.cell_key t.cell = p.Gate.key)
        timed
    with
    | None -> Error "regressed cell not found in the fresh run"
    | Some t ->
        let result =
          match t.result.Workloads.Harness.profile with
          | Some _ -> t.result
          | None ->
              (Runner.run_cell { t.cell with Runner.profile = true })
                .Runner.result
        in
        Diff.Rundata.of_run ~config:t.cell.config result
  in
  compare_runs ?threshold ~rerun a b

(* --sweep: every combination of the given axis values. For each
   configuration the lane prints cycles, inspection iterations begun,
   inspection steps and prefetch-pass wall-clock, summed over the
   workloads — the compile-side work a prediction tier saves next to the
   simulated cycles it must not cost — and for each machine its
   lowest-cycle configuration, the pick (the SW/HW arbitration point when
   the sweep grids threshold against hw). Every sweep cell lands in the
   report under its own gate key; the lane always checks its own report:
   it round-trips, keys are distinct, and each pick has the fewest
   cycles of its machine's grid as read back from the report's cells. *)
let check_sweep (sw : Report.sweep) (run : Gate.run) =
  let fail msg =
    prerr_endline ("sweep self-check FAIL: " ^ msg);
    exit 1
  in
  if run.Gate.schema <> Gate.schema then fail "wrong schema";
  let keys = List.map Gate.cell_key run.Gate.cells in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    fail "sweep cells collide under gate keys";
  let cycles config =
    List.fold_left
      (fun acc (c : Gate.cell_rec) ->
        if R.equal c.Gate.config config then acc + c.Gate.cycles else acc)
      0 run.Gate.cells
  in
  let machine (r : Report.row) = R.axis_value r.config R.Machine in
  List.iter
    (fun (p : Report.row) ->
      if cycles p.config <> p.cycles then
        fail "a pick's cycles differ from its cells in the report";
      if
        List.exists
          (fun r -> machine r = machine p && cycles r.config < p.cycles)
          sw.rows
      then fail ("the pick is not the grid minimum for " ^ machine p))
    sw.picks;
  print_endline "sweep self-check: OK"

let sweep ~jobs ?record specs =
  let dims = List.map (fun s -> ok_or_die (Report.dim s)) specs in
  let ((timed, _) as run) = run_cells ~jobs "sweep" (Report.grid dims) in
  let sw = Report.sweep dims timed in
  let table =
    Telemetry.Table.make
      ~columns:
        (List.map (fun ax -> (R.axis_name ax, Telemetry.Table.Left)) sw.axes
        @ List.map
            (fun c -> (c, Telemetry.Table.Right))
            [ "cycles"; "iterations"; "insp steps"; "pass (ms)" ])
  in
  List.iter
    (fun (r : Report.row) ->
      Telemetry.Table.add_row table
        (List.map (R.axis_value r.config) sw.axes
        @ [
            Telemetry.Table.cell_int r.cycles;
            Telemetry.Table.cell_int r.iterations;
            Telemetry.Table.cell_int r.steps;
            Printf.sprintf "%.3f" (1000.0 *. r.pass_seconds);
          ]))
    sw.rows;
  Printf.printf "sweep over %s\n%s\n"
    (String.concat "+" sw.sweep_workloads)
    (Telemetry.Table.to_string table);
  List.iter
    (fun (p : Report.row) ->
      Printf.printf "pick [%s]: %s (%d cycles)\n"
        (R.axis_value p.config R.Machine)
        (String.concat " "
           (List.filter_map
              (fun ax ->
                if ax = R.Machine then None
                else Some (R.axis_name ax ^ "=" ^ R.axis_value p.config ax))
              sw.axes))
        p.cycles)
    sw.picks;
  check_sweep sw (report ~sweep:sw ?path:record ~jobs run)

(* The runtest self-check: everything the gate promises, on one cell. *)
let smoke () =
  let db =
    List.find (fun (w : Workloads.Workload.t) -> w.name = "db") Report.workloads
  in
  let cell = Runner.cell db R.default in
  let report_once () =
    Report.to_json_string ~jobs:1 ~matrix_wall_seconds:0.0
      [ Runner.run_cell cell ]
  in
  let a = ok_or_die (Gate.of_string ~label:"run A" (report_once ()))
  and b = ok_or_die (Gate.of_string ~label:"run B" (report_once ())) in
  (* A huge threshold takes single-cell wall-clock noise out of the
     verdict: the smoke asserts the cycle law, not host timing. *)
  let c = ok_or_die (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  print_string (Gate.render c);
  if not (Gate.passes c) || c.Gate.cycle_improvements <> [] then begin
    prerr_endline
      "smoke FAIL: identical re-runs disagree on simulated cycles";
    exit 1
  end;
  (* An injected +10% cycle count must trip the exact-equality gate. *)
  let b_slow =
    {
      b with
      Gate.cells =
        List.map
          (fun (r : Gate.cell_rec) ->
            { r with Gate.cycles = r.cycles + (r.cycles / 10) })
          b.Gate.cells;
    }
  in
  (match Gate.compare_runs ~threshold:10.0 ~a ~b:b_slow () with
  | Ok c' when Gate.gate_exit c' = 1 ->
      print_endline "smoke: injected +10% cycles fails the gate (good)"
  | Ok _ ->
      prerr_endline "smoke FAIL: injected cycle regression not detected";
      exit 1
  | Error e ->
      prerr_endline ("smoke FAIL: " ^ e);
      exit 1);
  (* A v1 report must be refused, naming both schemas. *)
  (match
     Gate.compare_runs ~a:{ a with Gate.schema = "bench_hotpath/v1" } ~b ()
   with
  | Error e ->
      print_endline ("smoke: v1 schema refused (good): " ^ e)
  | Ok _ ->
      prerr_endline "smoke FAIL: cross-schema compare was not refused";
      exit 1);
  print_endline "smoke: OK"

let () =
  let jobs = ref (Runner.default_jobs ()) in
  let threshold = ref None in
  let record_path = ref None and compare = ref None and gate = ref None in
  let sweeps = ref [] and smoke_flag = ref false in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            prerr_endline "--jobs expects a positive integer";
            exit 2);
        parse rest
    | "--threshold" :: p :: rest ->
        (match float_of_string_opt p with
        | Some p when p >= 0.0 -> threshold := Some (p /. 100.0)
        | _ ->
            prerr_endline "--threshold expects a percentage >= 0";
            exit 2);
        parse rest
    | "--record" :: path :: rest ->
        record_path := Some path;
        parse rest
    | "--compare" :: a :: b :: rest ->
        compare := Some (a, b);
        parse rest
    | "--gate-against" :: path :: rest ->
        gate := Some path;
        parse rest
    | "--sweep" :: spec :: rest ->
        sweeps := !sweeps @ [ spec ];
        parse rest
    | "--smoke" :: rest ->
        smoke_flag := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        prerr_endline ("spf_bench: unknown argument " ^ arg);
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* --record names the sweep's report when it rides on --sweep, and is
     the canonical-matrix recorder on its own. *)
  match (!sweeps, !record_path, !compare, !gate, !smoke_flag) with
  | [], Some path, None, None, false -> record ~jobs:!jobs path
  | [], None, Some (a, b), None, false ->
      compare_files ?threshold:!threshold a b
  | [], None, None, Some path, false ->
      gate_against ?threshold:!threshold ~jobs:!jobs path
  | _ :: _, record, None, None, false -> sweep ~jobs:!jobs ?record !sweeps
  | [], None, None, None, true -> smoke ()
  | [], None, None, None, false ->
      usage ();
      exit 2
  | _ ->
      prerr_endline "spf_bench: more than one action given";
      usage ();
      exit 2
