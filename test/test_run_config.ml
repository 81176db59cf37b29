(* The run configuration (lib/workloads/run_config.ml): every spelling a
   sweep, a gate key or a --vs override uses parses back to the same
   configuration, bad keys and values are errors, and the hardware axis
   compares resolved models. *)

module RC = Workloads.Run_config
module C = Memsim.Config
module Report = Bench_runner.Report
module R = Bench_runner.Runner

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* Every value the bench sweeps, the committed gate keys and the @diff
   lane spell, in the forms users type and in canonical form. *)
let spellings =
  [
    "machine=pentium4"; "machine=athlonmp"; "machine=AthlonMP"; "m=Pentium4";
    "mode=off"; "mode=inter"; "mode=inter+intra"; "mode=BASELINE";
    "mode=INTER+INTRA"; "p=inter_intra";
    "hw=none"; "hw=stream"; "hw=stream:8"; "hw=stream:2"; "hw=rpt";
    "hw=rpt:64x2@4"; "hw=rpt:64x4@4"; "hw=rpt:256x2@8"; "hw-prefetch=none";
    "threshold=0"; "threshold=16"; "threshold=32"; "threshold=64";
    "threshold=default"; "thr=8";
    "prediction=inspect"; "prediction=static"; "prediction=hybrid";
    "pred=hybrid";
    "passes=on"; "passes=off";
    "engine=closure"; "engine=switch";
    "mode=off,engine=switch"; "machine=athlonmp,hw=rpt,threshold=0";
  ]

let round_trip label c =
  let s = RC.to_string c in
  let c' = ok (RC.apply_overrides RC.default s) in
  Alcotest.(check bool)
    (label ^ ": equal after round trip")
    true (RC.equal c c');
  Alcotest.(check string) (label ^ ": canonical form is a fixpoint") s
    (RC.to_string c');
  (* The canonical form spells the hardware model out, so apart from
     making [hw] explicit the round trip is structural. *)
  Alcotest.(check bool) (label ^ ": structural") true
    (c' = { c with hw = Some (RC.machine c).C.hw_prefetch })

let test_round_trip () =
  List.iter
    (fun spec -> round_trip spec (ok (RC.apply_overrides RC.default spec)))
    spellings;
  List.iter
    (fun (c : R.cell) -> round_trip (R.cell_key c) c.config)
    (Report.default_cells ());
  List.iter
    (fun ax ->
      let v = RC.axis_value RC.default ax in
      let c = (ok (RC.parse ax v)) RC.default in
      Alcotest.(check string)
        (RC.axis_name ax ^ ": axis_value parses back") v (RC.axis_value c ax))
    RC.all_axes

let test_errors () =
  List.iter
    (fun spec ->
      match RC.apply_overrides RC.default spec with
      | Ok c -> Alcotest.failf "%S accepted as %s" spec (RC.to_string c)
      | Error _ -> ())
    [
      ""; ","; "machine"; "bogus=1"; "machine=pentium3"; "mode=fast";
      "hw=rpt:banana"; "hw=stream:-1"; "threshold=lots"; "prediction=oracle";
      "passes=maybe"; "engine=jit"; "mode=off,colour=red";
    ]

let test_resolved_hw () =
  let explicit = ok (RC.apply_overrides RC.default "hw=stream:8") in
  Alcotest.(check bool) "hw = None equals an explicit stream:8" true
    (RC.equal RC.default explicit);
  Alcotest.(check bool) "so does the default stream unit" true
    (RC.equal RC.default { RC.default with hw = Some C.default_stream });
  let amp = { RC.default with machine = C.athlon_mp } in
  Alcotest.(check bool) "on the Athlon too" true
    (RC.equal amp { amp with hw = Some C.default_stream });
  Alcotest.(check bool) "another model differs" false
    (RC.equal RC.default { RC.default with hw = Some C.Hw_none });
  Alcotest.(check string) "the run's machine carries the override" "none"
    (C.hw_prefetch_to_string
       (RC.machine { RC.default with hw = Some C.Hw_none }).C.hw_prefetch)

(* A strided object walk with a foldable constant in its loop, so each
   axis but the engine moves its books or its loop reports. *)
let axes_workload =
  Workloads.Workload.of_source ~name:"axes"
    ~description:"run-config test fixture" ~heap_limit_bytes:(4 * 1024 * 1024)
    {|
class Node { int v; Node next; Node(int x) { v = x; } }
class T {
  static int walk(Node[] ns) {
    int acc = 0;
    for (int i = 0; i < ns.length; i = i + 1) {
      acc = (acc + ns[i].v * (2 + 3)) % 65521;
    }
    return acc;
  }
  static void main() {
    Node[] ns = new Node[2000];
    for (int i = 0; i < 2000; i = i + 1) { ns[i] = new Node(i); }
    int acc = 0;
    for (int r = 0; r < 8; r = r + 1) { acc = (acc + T.walk(ns)) % 9973; }
    print(acc);
  }
}
|}

let test_opts () =
  let c = ok (RC.apply_overrides RC.default "prediction=hybrid,threshold=16") in
  let o = RC.opts c in
  Alcotest.(check bool) "default opts at the default config" true
    (RC.opts RC.default = Strideprefetch.Options.default);
  Alcotest.(check bool) "prediction set" true
    (o.Strideprefetch.Options.prediction = Strideprefetch.Options.Hybrid);
  Alcotest.(check (option int)) "threshold set" (Some 16)
    o.Strideprefetch.Options.inter_stride_threshold;
  (* Every axis of a request reaches its run. Each row sets one axis off
     its default; its cycles, retired instructions, loop reports and
     inspection steps were recorded through the harness's per-axis
     arguments before the request replaced them. Each row's numbers
     differ from the first row's, so a request that dropped an axis
     would fail here. *)
  let module H = Workloads.Harness in
  let req = H.request axes_workload in
  let run spec =
    H.execute { req with config = ok (RC.apply_overrides RC.default spec) }
  in
  let steps (r : H.run_result) =
    List.fold_left
      (fun acc (l : Strideprefetch.Pass.loop_report) ->
        acc + l.inspection_steps)
      0 r.reports
  in
  List.iter
    (fun (spec, cycles, retired, reports, inspection_steps) ->
      let r = run spec in
      Alcotest.(check (list int))
        (spec ^ ": cycles, retired, loop reports, inspection steps")
        [ cycles; retired; reports; inspection_steps ]
        [
          r.cycles;
          r.stats.Memsim.Stats.retired_instructions;
          List.length r.reports;
          steps r;
        ])
    [
      ("mode=inter+intra", 1_070_898, 380_218, 1, 404);
      ("machine=athlonmp", 1_030_777, 380_218, 1, 404);
      ("hw=none", 1_077_018, 380_218, 1, 404);
      ("mode=off", 1_070_898, 380_218, 0, 0);
      ("passes=off", 1_098_898, 408_218, 1, 444);
      ("prediction=static", 1_119_023, 408_218, 1, 0);
      ("threshold=0", 1_098_898, 408_218, 1, 404);
    ];
  (* The engine moves nothing: that is the engines' contract. *)
  let closure = run "engine=closure" and switch = run "engine=switch" in
  Alcotest.(check (list (pair string int)))
    "engine=switch: identical books"
    (("cycles", closure.cycles) :: ("gc_count", closure.gc_count)
     :: Memsim.Stats.core_alist closure.stats)
    (("cycles", switch.cycles) :: ("gc_count", switch.gc_count)
     :: Memsim.Stats.core_alist switch.stats);
  Alcotest.(check string) "engine=switch: identical output" closure.output
    switch.output

let suite =
  [
    ("round trip of every sweep, key and --vs spelling", `Quick,
     test_round_trip);
    ("unknown keys and values are errors", `Quick, test_errors);
    ("hw compares resolved models", `Quick, test_resolved_hw);
    ("opts and machine feed the harness", `Quick, test_opts);
  ]
