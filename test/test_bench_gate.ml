(* Tests for the statistical bench-regression gate (bench/gate.ml):
   report round-tripping through the shared v2 writer, exact-cycle
   gating, schema refusal, bootstrap determinism, and the
   practical-significance threshold on wall-clock. *)

module R = Bench_runner.Runner
module Report = Bench_runner.Report
module Gate = Bench_runner.Gate
module RC = Workloads.Run_config
module W = Workloads.Workload

let fixture =
  {
    W.name = "gate-walk";
    suite = `Javagrande;
    description = "gate test fixture: array walk";
    paper_note = "";
    heap_limit_bytes = 4 * 1024 * 1024;
    source =
      {|
class Cell { int v; Cell(int x) { v = x; } }
class T {
  static void main() {
    Cell[] cs = new Cell[600];
    for (int i = 0; i < 600; i = i + 1) { cs[i] = new Cell(i * 3); }
    int acc = 0;
    for (int r = 0; r < 5; r = r + 1) {
      for (int i = 0; i < 600; i = i + 1) { acc = (acc + cs[i].v) % 7919; }
    }
    print(acc);
  }
}
|};
  }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* One real timed cell, rendered and parsed back through the shared
   writer — the recorder and the gate agree on the format. *)
let record () =
  let timed =
    [
      R.run_cell (R.cell fixture RC.default);
      R.run_cell (R.cell ~profile:true fixture RC.default);
    ]
  in
  ok
    (Gate.of_string ~label:"test"
       (Report.to_json_string ~jobs:1 ~matrix_wall_seconds:0.0 timed))

let test_roundtrip () =
  let run = record () in
  Alcotest.(check string) "schema" Gate.schema run.Gate.schema;
  Alcotest.(check int) "two cells" 2 (List.length run.Gate.cells);
  let plain, prof =
    match run.Gate.cells with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Alcotest.(check bool) "plain cell not profiled" false plain.Gate.profile;
  Alcotest.(check bool) "profiled cell flagged" true prof.Gate.profile;
  Alcotest.(check bool) "distinct keys" true
    (Gate.cell_key plain <> Gate.cell_key prof);
  Alcotest.(check int) "cycles agree across the observer" plain.Gate.cycles
    prof.Gate.cycles;
  Alcotest.(check bool) "cycles recorded" true (plain.Gate.cycles > 0)

let test_same_run_passes () =
  let a = record () and b = record () in
  (* A huge threshold removes single-cell wall-clock noise: this asserts
     the cycle law, which must hold exactly. *)
  let c = ok (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  Alcotest.(check bool) "gate passes" true (Gate.passes c);
  Alcotest.(check int) "no cycle regressions" 0
    (List.length c.Gate.cycle_regressions);
  Alcotest.(check int) "no cycle improvements" 0
    (List.length c.Gate.cycle_improvements);
  Alcotest.(check int) "both cells matched" 2 (List.length c.Gate.pairs);
  Alcotest.(check int) "exit code 0" 0 (Gate.gate_exit c)

let bump_cycles pct (run : Gate.run) =
  {
    run with
    Gate.cells =
      List.map
        (fun (r : Gate.cell_rec) ->
          { r with Gate.cycles = r.cycles + (r.cycles * pct / 100) })
        run.Gate.cells;
  }

let test_injected_regression_fails () =
  let a = record () in
  let b = bump_cycles 10 a in
  let c = ok (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  Alcotest.(check bool) "gate fails" false (Gate.passes c);
  Alcotest.(check int) "every cell regressed" 2
    (List.length c.Gate.cycle_regressions);
  Alcotest.(check int) "exit code 1" 1 (Gate.gate_exit c);
  (* ...and a cycle improvement alone must NOT fail the gate. *)
  let c' = ok (Gate.compare_runs ~threshold:10.0 ~a:b ~b:a ()) in
  Alcotest.(check bool) "improvement passes" true (Gate.passes c');
  Alcotest.(check int) "reported as improvements" 2
    (List.length c'.Gate.cycle_improvements)

let test_schema_refusal () =
  let a = record () in
  let v1 = { a with Gate.schema = "bench_hotpath/v1" } in
  (match Gate.compare_runs ~a:v1 ~b:a () with
  | Ok _ -> Alcotest.fail "v1 baseline accepted"
  | Error e ->
      Alcotest.(check bool) "names the old schema" true
        (contains ~affix:"bench_hotpath/v1" e);
      Alcotest.(check bool) "names the expected schema" true
        (contains ~affix:Gate.schema e));
  match Gate.compare_runs ~a ~b:v1 () with
  | Ok _ -> Alcotest.fail "v1 candidate accepted"
  | Error _ -> ()

(* Synthetic runs let us pin the statistics without wall-clock noise. *)
let synth_run ?(schema = Gate.schema) cells =
  {
    Gate.schema;
    jobs = 1;
    host_cpus = 1;
    cells =
      List.mapi
        (fun i (seconds, cycles) ->
          {
            Gate.workload = Printf.sprintf "w%d" i;
            config = RC.default;
            telemetry = false;
            profile = false;
            monitor = false;
            blame = None;
            seconds;
            cycles;
          })
        cells;
  }

let test_wallclock_significance () =
  let base = List.init 8 (fun i -> (1.0 +. (0.01 *. float_of_int i), 1000)) in
  let a = synth_run base in
  (* Uniform 2x slowdown: the whole CI sits above +5%. *)
  let slow = synth_run (List.map (fun (s, c) -> (s *. 2.0, c)) base) in
  let c = ok (Gate.compare_runs ~a ~b:slow ()) in
  Alcotest.(check bool) "2x slowdown is significant" true
    c.Gate.significant_slowdown;
  Alcotest.(check bool) "gate fails on wall-clock alone" false (Gate.passes c);
  (* Uniform +1%: inside the practical threshold, must pass. *)
  let near = synth_run (List.map (fun (s, c) -> (s *. 1.01, c)) base) in
  let c' = ok (Gate.compare_runs ~a ~b:near ()) in
  Alcotest.(check bool) "+1% is not significant" false
    c'.Gate.significant_slowdown;
  Alcotest.(check bool) "gate passes" true (Gate.passes c')

let test_bootstrap_deterministic () =
  let a =
    synth_run (List.init 10 (fun i -> (1.0 +. (0.05 *. float_of_int i), 500)))
  in
  let b =
    synth_run
      (List.init 10 (fun i -> (1.1 +. (0.04 *. float_of_int (10 - i)), 500)))
  in
  let c1 = ok (Gate.compare_runs ~a ~b ())
  and c2 = ok (Gate.compare_runs ~a ~b ()) in
  Alcotest.(check (float 0.0)) "ci_low deterministic" c1.Gate.ci_low
    c2.Gate.ci_low;
  Alcotest.(check (float 0.0)) "ci_high deterministic" c1.Gate.ci_high
    c2.Gate.ci_high;
  Alcotest.(check string) "render byte-identical" (Gate.render c1)
    (Gate.render c2);
  Alcotest.(check bool) "CI brackets the geomean" true
    (c1.Gate.ci_low <= c1.Gate.seconds_geomean
    && c1.Gate.seconds_geomean <= c1.Gate.ci_high)

let test_unmatched_cells () =
  let a = synth_run [ (1.0, 100); (2.0, 200); (3.0, 300) ] in
  let b =
    {
      a with
      Gate.cells =
        List.filter (fun (c : Gate.cell_rec) -> c.workload <> "w2") a.Gate.cells;
    }
  in
  let c = ok (Gate.compare_runs ~a ~b ()) in
  Alcotest.(check int) "two cells matched" 2 (List.length c.Gate.pairs);
  Alcotest.(check int) "one cell only in A" 1 (List.length c.Gate.only_a);
  Alcotest.(check int) "none only in B" 0 (List.length c.Gate.only_b);
  Alcotest.(check bool) "still passes" true (Gate.passes c)

let test_bad_reports () =
  (match Gate.of_string ~label:"x" "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Gate.of_string ~label:"x" "{\"cells\": []}" with
  | Ok _ -> Alcotest.fail "schema-less report accepted"
  | Error _ -> ());
  (match
     Gate.of_string ~label:"x"
       "{\"schema\": \"bench_hotpath/v2\", \"cells\": [{\"workload\": \"w\"}]}"
   with
  | Ok _ -> Alcotest.fail "cell without cycles accepted"
  | Error _ -> ());
  (* A cell's configuration is parsed by Run_config: an unknown machine
     or a malformed hardware spec is an error naming the cell, not a
     cell that loads and never matches. *)
  let report cell =
    Printf.sprintf
      "{\"schema\": \"bench_hotpath/v2\", \"cells\": [{\"workload\": \"w\", \
       \"machine\": \"Pentium4\", \"mode\": \"INTER\", \"seconds\": 1.0, \
       \"cycles\": 5}, {\"workload\": \"w\", \"mode\": \"INTER\", \"seconds\": \
       1.0, \"cycles\": 5, %s}]}"
      cell
  in
  List.iter
    (fun (cell, what) ->
      match Gate.of_string ~label:"x" (report cell) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
          Alcotest.(check bool) (what ^ ": names cells[1]") true
            (contains ~affix:"cells[1]" e))
    [
      ("\"machine\": \"Pentium3\"", "unknown machine");
      ( "\"machine\": \"Pentium4\", \"hw_prefetch\": \"rpt:banana\"",
        "malformed hw spec" );
    ]

(* The canonical matrix is pinned to the committed baseline: the keys
   [Report.default_cells] produces are exactly the keys the baseline's
   cells read back to, so @bench-gate matches every cell. *)
let test_default_keys_pinned () =
  let keys = List.map R.cell_key (Report.default_cells ()) in
  Alcotest.(check int) "110 cells" 110 (List.length keys);
  Alcotest.(check int) "distinct keys" 110
    (List.length (List.sort_uniq compare keys));
  let baseline = ok (Gate.load "../BENCH_hotpath.json") in
  Alcotest.(check (list string))
    "key set of the committed baseline"
    (List.sort compare (List.map Gate.cell_key baseline.Gate.cells))
    (List.sort compare keys)

let suite =
  [
    Alcotest.test_case "report round-trips through the shared writer" `Slow
      test_roundtrip;
    Alcotest.test_case "same tree re-run gates clean" `Slow
      test_same_run_passes;
    Alcotest.test_case "injected +10% cycles fails the gate" `Slow
      test_injected_regression_fails;
    Alcotest.test_case "cross-schema compares are refused" `Slow
      test_schema_refusal;
    Alcotest.test_case "wall-clock significance thresholding" `Quick
      test_wallclock_significance;
    Alcotest.test_case "bootstrap CI is deterministic" `Quick
      test_bootstrap_deterministic;
    Alcotest.test_case "unmatched cells are reported, not fatal" `Quick
      test_unmatched_cells;
    Alcotest.test_case "ill-formed reports are rejected" `Quick
      test_bad_reports;
    Alcotest.test_case "default matrix keys equal the committed baseline's"
      `Quick test_default_keys_pinned;
  ]
