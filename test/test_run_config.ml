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

let test_opts () =
  let c = ok (RC.apply_overrides RC.default "prediction=hybrid,threshold=16") in
  let o = RC.opts c in
  Alcotest.(check bool) "default opts at the default config" true
    (RC.opts RC.default = Strideprefetch.Options.default);
  Alcotest.(check bool) "prediction set" true
    (o.Strideprefetch.Options.prediction = Strideprefetch.Options.Hybrid);
  Alcotest.(check (option int)) "threshold set" (Some 16)
    o.Strideprefetch.Options.inter_stride_threshold

let suite =
  [
    ("round trip of every sweep, key and --vs spelling", `Quick,
     test_round_trip);
    ("unknown keys and values are errors", `Quick, test_errors);
    ("hw compares resolved models", `Quick, test_resolved_hw);
    ("opts and machine feed the harness", `Quick, test_opts);
  ]
