(* The differential-diagnosis engine (lib/diff): the blame join's
   identity and conservation laws, the planted-regression attribution
   contract, the snapshot round trips (spf_diff/v1, spf_prof/v1, the
   bench report's compact blame payload), the injected desync self-test,
   and the axis bisector's replay algebra on synthetic cycle
   functions. *)

module J = Telemetry.Json
module RD = Diff.Rundata
module B = Diff.Blame
module Bi = Diff.Bisect
module RC = Workloads.Run_config
module O = Strideprefetch.Options

let all_workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all

let find_workload name =
  List.find (fun (w : Workloads.Workload.t) -> w.name = name) all_workloads

let profiled_run ?(mode = O.Inter_intra) name =
  Workloads.Harness.run ~profile:true ~mode ~machine:Memsim.Config.pentium4
    (find_workload name)

let snapshot ?mode name =
  let config =
    match mode with Some O.Off -> { RC.default with mode = O.Off } | _ -> RC.default
  in
  match RD.of_run ~config (profiled_run ?mode name) with
  | Ok rd -> rd
  | Error e -> Alcotest.failf "snapshot failed: %s" e

let check_conservation label bl =
  match B.check bl with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: conservation violated: %s" label msg

(* ------------------------------------------------------------------ *)
(* Identity law: a run diffed against itself blames nothing.           *)

let test_self_diff_empty () =
  let rd = snapshot "Euler" in
  let bl = B.build ~a:rd ~b:rd () in
  Alcotest.(check int) "total delta" 0 bl.B.total_delta;
  Alcotest.(check int) "gc delta" 0 bl.B.gc_delta;
  Array.iter (fun d -> Alcotest.(check int) "bin delta" 0 d) bl.B.bin_deltas;
  List.iter
    (fun (d : B.loop_delta) -> Alcotest.(check int) "loop delta" 0 d.d_delta)
    bl.B.loops;
  Alcotest.(check bool) "no provenance changes" true (bl.B.provenance = []);
  check_conservation "self diff" bl

(* A real two-sided diff (inter+intra vs off) holds the law and renders
   deterministically. *)
let test_real_diff_deterministic () =
  let a = snapshot ~mode:O.Off "Euler" and b = snapshot "Euler" in
  let bl1 = B.build ~a ~b () and bl2 = B.build ~a ~b () in
  check_conservation "off vs inter+intra" bl1;
  Alcotest.(check int)
    "delta is the cycle difference"
    (b.RD.cycles - a.RD.cycles)
    bl1.B.total_delta;
  Alcotest.(check string)
    "render is deterministic" (B.render bl1) (B.render bl2);
  (* The blame JSON is well-formed. *)
  match J.parse (J.to_string (B.to_json bl1)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "blame JSON does not re-parse: %s" e

(* ------------------------------------------------------------------ *)
(* Attribution contract: a planted single-loop perturbation is named
   top-1, with the right dominant bin.                                 *)

let test_planted_loop_blamed () =
  let rd = snapshot "Euler" in
  let mem_idx =
    match List.mapi (fun i n -> (n, i)) RD.bin_names |> List.assoc_opt "mem" with
    | Some i -> i
    | None -> Alcotest.fail "no mem bin"
  in
  (* Perturb the hottest loop by +10% of its cycles, charged to mem. *)
  let victim =
    List.fold_left
      (fun (best : RD.loop) (l : RD.loop) ->
        if l.lr_total > best.lr_total then l else best)
      (List.hd rd.RD.loops) rd.RD.loops
  in
  let d = (victim.lr_total / 10) + 1 in
  let bump (l : RD.loop) =
    if (l.lr_method, l.lr_loop) = (victim.lr_method, victim.lr_loop) then begin
      let bins = Array.copy l.lr_bins in
      bins.(mem_idx) <- bins.(mem_idx) + d;
      { l with lr_bins = bins; lr_total = l.lr_total + d }
    end
    else l
  in
  let totals = Array.copy rd.RD.totals in
  totals.(mem_idx) <- totals.(mem_idx) + d;
  let perturbed =
    {
      rd with
      RD.cycles = rd.RD.cycles + d;
      totals;
      loops = List.map bump rd.RD.loops;
    }
  in
  let bl = B.build ~a:rd ~b:perturbed () in
  check_conservation "planted" bl;
  Alcotest.(check int) "total delta is the plant" d bl.B.total_delta;
  match B.top_loop bl with
  | None -> Alcotest.fail "no top loop"
  | Some top ->
      Alcotest.(check string) "top-1 method" victim.lr_method top.B.d_method;
      Alcotest.(check int) "top-1 loop" victim.lr_loop top.B.d_loop;
      Alcotest.(check int) "top-1 delta" d top.B.d_delta;
      Alcotest.(check int) "charged to mem" d top.B.d_bins.(mem_idx)

(* The desync injection must make the conservation check fail — the
   self-test that the check can catch a corrupted join. *)
let test_fault_desync_caught () =
  let rd = snapshot "Euler" in
  let bl = B.build ~fault_desync:true ~a:rd ~b:rd () in
  match B.check bl with
  | Some _ -> ()
  | None -> Alcotest.fail "injected desync not reported"

(* ------------------------------------------------------------------ *)
(* Round trips.                                                        *)

(* The stamp is compared axis by axis: a recorded [hw] is the resolved
   model, so the configuration comes back [RC.equal], not [=]. *)
let stamp_string (rd : RD.t) =
  match rd.stamp with
  | Some s -> s.workload ^ " " ^ RC.to_string s.config
  | None -> "(no stamp)"

let test_snapshot_round_trip () =
  let rd = snapshot "Euler" in
  (* differs from RC.default on every axis *)
  let other =
    {
      RC.machine = Memsim.Config.athlon_mp;
      hw = Some Memsim.Config.default_rpt;
      mode = O.Inter;
      passes = false;
      engine = Vm.Interp.Switch;
      prediction = O.Hybrid;
      threshold = Some 32;
    }
  in
  Alcotest.(check int) "every axis differs from the default"
    (List.length RC.all_axes)
    (List.length (RC.differing ~a:RC.default ~b:other));
  List.iter
    (fun rd ->
      match J.parse (J.to_string (RD.to_json rd)) with
      | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
      | Ok v -> (
          match RD.of_json v with
          | Error e -> Alcotest.failf "snapshot rejected: %s" e
          | Ok rd' ->
              Alcotest.(check string) "stamp round-trips" (stamp_string rd)
                (stamp_string rd');
              Alcotest.(check bool) "the rest round-trips exactly" true
                ({ rd with stamp = None } = { rd' with stamp = None })))
    [ rd; { rd with stamp = Some { workload = "Euler"; config = other } } ]

let test_prof_report_ingest () =
  let r = profiled_run "Euler" in
  let rep = Option.get r.Workloads.Harness.profile in
  match RD.of_json (Profile.Report.to_json rep) with
  | Error e -> Alcotest.failf "spf_prof/v1 rejected: %s" e
  | Ok rd ->
      Alcotest.(check int) "cycles carried over" rep.Profile.Report.cycles
        rd.RD.cycles;
      Alcotest.(check bool) "no stamp" true (rd.RD.stamp = None);
      Alcotest.(check int) "all loops carried over"
        (List.length rep.Profile.Report.loops)
        (List.length rd.RD.loops);
      (* A prof-report snapshot still self-diffs to nothing. *)
      let bl = B.build ~a:rd ~b:rd () in
      Alcotest.(check int) "self diff empty" 0 bl.B.total_delta;
      check_conservation "prof ingest" bl

let test_bench_blame_ingest () =
  let rd = snapshot "Euler" in
  let loop_json (l : RD.loop) =
    J.Obj
      [
        ("method", J.Str l.lr_method);
        ("loop", J.Int l.lr_loop);
        ("depth", J.Int l.lr_depth);
        ("actions", J.Int l.lr_actions);
        ( "bins",
          J.Obj (List.mapi (fun i n -> (n, J.Int l.lr_bins.(i))) RD.bin_names)
        );
        ("total", J.Int l.lr_total);
      ]
  in
  let payload =
    J.Obj
      [
        ("gc_cycles", J.Int rd.RD.gc_cycles);
        ("loops", J.List (List.map loop_json rd.RD.loops));
      ]
  in
  let stamp = Option.get rd.RD.stamp in
  (match RD.of_bench_blame ~stamp ~cycles:rd.RD.cycles payload with
  | Error e -> Alcotest.failf "bench blame rejected: %s" e
  | Ok rd' ->
      Alcotest.(check bool) "totals reconstructed from loops" true
        (rd.RD.totals = rd'.RD.totals);
      let bl = B.build ~a:rd ~b:rd' () in
      Alcotest.(check int) "diff vs the embedding is empty" 0 bl.B.total_delta;
      check_conservation "bench blame" bl);
  match RD.of_bench_blame ~stamp ~cycles:0 (J.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "payload without loops accepted"

(* ------------------------------------------------------------------ *)
(* The axis bisector, on synthetic replay functions (pure, no VM).     *)

let axis = Alcotest.testable (Fmt.of_to_string RC.axis_name) ( = )

let test_bisect_single_axis () =
  let a = RC.default in
  let b = { a with RC.mode = O.Off } in
  let replay (c : RC.t) = if c.RC.mode = O.Off then 2000 else 1000 in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis)) "responsible" [ RC.Mode ] o.Bi.responsible;
  Alcotest.(check bool) "exact" true o.Bi.exact;
  Alcotest.(check int) "a single differing axis needs no probe" 2 o.Bi.replays

let test_bisect_planted_among_neutral () =
  let a = RC.default in
  let b = { a with RC.mode = O.Off; engine = Vm.Interp.Switch } in
  (* The engine axis is cycle-neutral (the engines' contract); only the
     mode moves cycles. *)
  let replay (c : RC.t) = if c.RC.mode = O.Off then 2000 else 1000 in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis))
    "candidates in canonical order" [ RC.Mode; RC.Engine ] o.Bi.candidates;
  Alcotest.(check (list axis)) "mode blamed" [ RC.Mode ] o.Bi.responsible;
  Alcotest.(check bool) "exact" true o.Bi.exact;
  Alcotest.(check int) "early stop: 3 replays" 3 o.Bi.replays

let test_bisect_pure_interaction () =
  let a = RC.default in
  let b = { a with RC.mode = O.Off; prediction = O.Hybrid } in
  let replay (c : RC.t) =
    if c.RC.mode = O.Off && c.RC.prediction = O.Hybrid then 1500 else 1000
  in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis))
    "no single flip moves: whole candidate set"
    [ RC.Mode; RC.Prediction ] o.Bi.responsible;
  Alcotest.(check bool) "exact (flipping all is B)" true o.Bi.exact

let test_bisect_joint_verification () =
  let a = RC.default in
  let b = { a with RC.mode = O.Off; threshold = Some 64 } in
  let replay (c : RC.t) =
    1000
    + (if c.RC.mode = O.Off then 300 else 0)
    + if c.RC.threshold = Some 64 then 200 else 0
  in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis))
    "both movers blamed" [ RC.Mode; RC.Threshold ] o.Bi.responsible;
  Alcotest.(check bool) "joint flip verified against B" true o.Bi.exact;
  (* A, B, two single-axis probes, one joint verification. *)
  Alcotest.(check int) "replays" 5 o.Bi.replays

let test_bisect_axis_names () =
  List.iter
    (fun ax ->
      match RC.axis_of_name (RC.axis_name ax) with
      | Some ax' -> Alcotest.check axis "name round trip" ax ax'
      | None -> Alcotest.failf "axis %s unparsed" (RC.axis_name ax))
    RC.all_axes;
  (* The hw axis compares resolved specs: [None] (machine default) and
     the machine's own model spelled explicitly do not differ. *)
  let a = RC.default in
  let b = { a with RC.hw = Some Memsim.Config.default_stream } in
  Alcotest.(check (list axis)) "resolved hw equal" [] (RC.differing ~a ~b)

let suite =
  [
    ("blame: self diff is empty", `Slow, test_self_diff_empty);
    ( "blame: real twin diff conserves and renders deterministically",
      `Slow, test_real_diff_deterministic );
    ("blame: planted loop perturbation named top-1", `Slow,
     test_planted_loop_blamed);
    ("blame: injected desync breaks conservation", `Slow,
     test_fault_desync_caught);
    ("rundata: spf_diff/v1 round trip", `Slow, test_snapshot_round_trip);
    ("rundata: spf_prof/v1 ingest", `Slow, test_prof_report_ingest);
    ("rundata: bench blame payload ingest", `Slow, test_bench_blame_ingest);
    ("bisect: single differing axis", `Quick, test_bisect_single_axis);
    ("bisect: planted axis among neutral in 3 replays", `Quick,
     test_bisect_planted_among_neutral);
    ("bisect: pure interaction blames the set", `Quick,
     test_bisect_pure_interaction);
    ("bisect: joint verification of movers", `Quick,
     test_bisect_joint_verification);
    ("bisect: axis names and resolved hw", `Quick, test_bisect_axis_names);
  ]
