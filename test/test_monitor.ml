(* Tests for the live windowed monitor (lib/monitor): detectors on
   synthetic series, the Stats windowed-counter helpers, observer-freedom
   (a monitored run is bit-identical to a plain one on both engines),
   and the phase goldens — the planted shifts are flagged within four
   windows on both machines while every stationary seed workload stays
   free of Degraded verdicts. *)

module H = Workloads.Harness
module SP = Strideprefetch
module Detect = Monitor.Detect
module Report = Monitor.Report
module Window = Monitor.Window

(* ------------------------------------------------------------------ *)
(* Detectors on synthetic series. *)

let cfg = Detect.default

let test_ph_step_drop () =
  (* A healthy plateau then a cliff: the decrease-direction Page–Hinkley
     must alarm within a handful of post-shift samples and stay silent
     before it. *)
  let p = Detect.ph_create () in
  let alarm = ref None in
  for i = 0 to 39 do
    let x = if i < 30 then 0.95 else 0.05 in
    let acc = Detect.ph_update cfg p x in
    if !alarm = None && acc > cfg.Detect.ph_lambda then alarm := Some i
  done;
  match !alarm with
  | None -> Alcotest.fail "cliff never alarmed"
  | Some i ->
      Alcotest.(check bool) "alarmed after the shift" true (i >= 30);
      Alcotest.(check bool)
        (Printf.sprintf "alarmed within 4 samples (at %d)" i)
        true (i <= 33)

let test_ph_stationary_silent () =
  (* Oscillation around a stable mean — the shape of a healthy run —
     must never accumulate past lambda. *)
  let p = Detect.ph_create () in
  for i = 0 to 199 do
    let x = 0.85 +. (0.08 *. if i mod 2 = 0 then 1.0 else -1.0) in
    let acc = Detect.ph_update cfg p x in
    if acc > cfg.Detect.ph_lambda then
      Alcotest.failf "stationary series alarmed at sample %d (acc %.3f)" i acc
  done

let test_drift_one_sided () =
  (* The stall-share drift alarms on a sustained increase... *)
  let d = Detect.drift_create () in
  let alarm = ref None in
  for i = 0 to 29 do
    let x = if i < 20 then 0.35 else 0.60 in
    let acc =
      Detect.drift_update ~slack:cfg.Detect.stall_slack
        ~cap:cfg.Detect.mix_cap ~warmup:cfg.Detect.warmup d x
    in
    if !alarm = None && acc > cfg.Detect.stall_h then alarm := Some i
  done;
  (match !alarm with
  | None -> Alcotest.fail "sustained increase never alarmed"
  | Some i ->
      Alcotest.(check bool)
        (Printf.sprintf "alarmed within 4 samples of the shift (at %d)" i)
        true
        (i >= 20 && i <= 23));
  (* ...but never on symmetric swings around a stable mean, however
     large: that is the benign-phase shape the one-sided form exists
     for. *)
  let d = Detect.drift_create () in
  for i = 0 to 199 do
    let x = 0.40 +. (0.25 *. if i mod 2 = 0 then 1.0 else -1.0) in
    let acc =
      Detect.drift_update ~slack:cfg.Detect.stall_slack
        ~cap:cfg.Detect.mix_cap ~warmup:cfg.Detect.warmup d x
    in
    if acc > cfg.Detect.stall_h then
      Alcotest.failf "symmetric swings alarmed at sample %d (acc %.3f)" i acc
  done

let test_mix_cap_bounds_outlier () =
  (* One maximally divergent window cannot cross a threshold above the
     cap on its own — divergence must be sustained. *)
  let m = Detect.mix_create 4 in
  let steady = [| 0.25; 0.25; 0.25; 0.25 |] in
  for _ = 1 to cfg.Detect.warmup + 4 do
    ignore
      (Detect.mix_update ~slack:cfg.Detect.loop_slack ~cap:cfg.Detect.mix_cap
         ~warmup:cfg.Detect.warmup m steady)
  done;
  let outlier = [| 1.0; 0.0; 0.0; 0.0 |] in
  let acc =
    Detect.mix_update ~slack:cfg.Detect.loop_slack ~cap:cfg.Detect.mix_cap
      ~warmup:cfg.Detect.warmup m outlier
  in
  Alcotest.(check bool)
    (Printf.sprintf "one outlier stays under the cap (acc %.3f)" acc)
    true
    (acc <= cfg.Detect.mix_cap +. 1e-9)

let test_churn_single_window_alarms () =
  (* The defaults promise a window of ~all-fresh allocation sites alarms
     on its own: 1.0 - churn_slack > churn_h. *)
  let c = Detect.cusum_create () in
  let acc = Detect.cusum_update ~slack:cfg.Detect.churn_slack c 1.0 in
  Alcotest.(check bool) "all-fresh window alarms alone" true
    (acc > cfg.Detect.churn_h)

let test_detectors_deterministic () =
  (* Bit-identical accumulator trajectories on reruns: pure float
     arithmetic, no hidden state. *)
  let series =
    Array.init 64 (fun i ->
        0.5 +. (0.3 *. sin (float_of_int i /. 3.0)))
  in
  let trajectory () =
    let p = Detect.ph_create () and d = Detect.drift_create () in
    Array.map
      (fun x ->
        ( Detect.ph_update cfg p x,
          Detect.drift_update ~slack:0.1 ~cap:0.25 ~warmup:4 d x ))
      series
  in
  Alcotest.(check bool) "identical trajectories" true
    (trajectory () = trajectory ())

(* ------------------------------------------------------------------ *)
(* Stats windowed-counter helpers: delta/delta_into are derived from the
   canonical [fields] list, so every counter participates and the two
   forms agree. *)

let test_stats_delta_canonical () =
  let module S = Memsim.Stats in
  let n = List.length S.fields in
  Alcotest.(check int) "fields covers the whole record" n
    (List.length (S.to_alist (S.create ())));
  let a = S.create () and b = S.create () in
  List.iteri (fun i (_, _, set) -> set a ((i + 1) * 7)) S.fields;
  List.iteri (fun i (_, _, set) -> set b (i * 3)) S.fields;
  let d = S.delta a b in
  List.iteri
    (fun i (name, get, _) ->
      Alcotest.(check int)
        (Printf.sprintf "delta.%s" name)
        (((i + 1) * 7) - (i * 3))
        (get d))
    S.fields;
  let into = S.create () in
  S.delta_into a b ~into;
  Alcotest.(check bool) "delta_into agrees with delta" true
    (S.to_alist into = S.to_alist d)

(* ------------------------------------------------------------------ *)
(* Observer freedom: a monitored run must be bit-identical to its plain
   twin in every simulated observable, on both engines — and the
   monitor's verdict timeline must itself be engine-independent. *)

let find_workload name =
  List.find
    (fun (w : Workloads.Workload.t) -> w.name = name)
    (Workloads.Specjvm.all @ Workloads.Javagrande.all)

let test_monitor_observer_only () =
  let w = find_workload "db" in
  let req = H.request w in
  let run ~engine ~monitor =
    let monitor =
      if monitor then Some Monitor.Collector.default_window_cycles else None
    in
    H.execute
      {
        req with
        config = { Workloads.Run_config.default with engine };
        observers = { H.no_observers with monitor };
      }
  in
  let timelines =
    List.map
      (fun engine ->
        let plain = run ~engine ~monitor:false in
        let mon = run ~engine ~monitor:true in
        Alcotest.(check string) "output identical" plain.H.output mon.H.output;
        Alcotest.(check int) "cycles identical" plain.H.cycles mon.H.cycles;
        Alcotest.(check int) "gc_count identical" plain.H.gc_count
          mon.H.gc_count;
        Alcotest.(check bool) "core counters identical" true
          (Memsim.Stats.core_alist plain.H.stats
          = Memsim.Stats.core_alist mon.H.stats);
        let rep = Option.get mon.H.monitor in
        Array.map
          (fun (w : Window.t) -> Detect.verdict_code w.verdict)
          rep.Report.windows)
      [ Vm.Interp.Switch; Vm.Interp.Closure ]
  in
  match timelines with
  | [ sw; cl ] ->
      Alcotest.(check bool) "verdict timeline engine-independent" true
        (sw = cl)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Phase goldens: the planted shifts are found within four windows on
   both machines; the stationary seed workloads never go Degraded. *)

let monitored_report ?(machine = Memsim.Config.pentium4) w =
  let r =
    H.run ~monitor:Monitor.Collector.default_window_cycles
      ~mode:SP.Options.Inter_intra ~machine w
  in
  (r, Option.get r.H.monitor)

let check_phase_latency w machine =
  let r, rep = monitored_report ~machine w in
  match Workloads.Phase.marker_offset r.H.output with
  | None -> Alcotest.failf "%s printed no shift marker" w.Workloads.Workload.name
  | Some off -> (
      match Report.detection_latency rep ~marker_offset:off with
      | Report.No_shift -> Alcotest.fail "marker lies past every window"
      | Report.Undetected shift ->
          Alcotest.failf "shift at window %d never flagged" shift
      | Report.Detected { latency; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s latency %d <= 4"
               w.Workloads.Workload.name machine.Memsim.Config.name latency)
            true (latency <= 4))

let test_phaseshift_detected () =
  check_phase_latency Workloads.Phase.phaseshift Memsim.Config.pentium4;
  check_phase_latency Workloads.Phase.phaseshift Memsim.Config.athlon_mp

let test_phasechurn_detected () =
  check_phase_latency Workloads.Phase.churn Memsim.Config.pentium4;
  check_phase_latency Workloads.Phase.churn Memsim.Config.athlon_mp

let test_phasechurn_reason () =
  (* The churn workload's planted shift is an in-loop allocation burst:
     the first Degraded verdict must name alloc-site churn, on both
     machines. *)
  List.iter
    (fun machine ->
      let _, rep = monitored_report ~machine Workloads.Phase.churn in
      match rep.Report.degraded with
      | [] -> Alcotest.fail "no Degraded verdict"
      | (_, reason) :: _ ->
          Alcotest.(check string) "first reason" "alloc-site-churn"
            (Detect.reason_name reason))
    [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ]

let test_stationary_never_degraded () =
  (* The four historically false-positive-prone stationary workloads
     (periodic bursts, mid-run pass handovers, startup oscillation) on
     both machines; the full 24-run sweep lives in `dune build
     @monitor` / spf_mon. *)
  List.iter
    (fun name ->
      let w = find_workload name in
      List.iter
        (fun machine ->
          let _, rep = monitored_report ~machine w in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s stays clean" name
               machine.Memsim.Config.name)
            true
            (rep.Report.first_degraded = None))
        [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ])
    [ "db"; "jess"; "MonteCarlo"; "RayTracer" ]

let suite =
  [
    Alcotest.test_case "Page-Hinkley flags a cliff within 4 samples" `Quick
      test_ph_step_drop;
    Alcotest.test_case "Page-Hinkley silent on stationary oscillation" `Quick
      test_ph_stationary_silent;
    Alcotest.test_case "drift is one-sided: rises alarm, swings don't" `Quick
      test_drift_one_sided;
    Alcotest.test_case "mix cap bounds a single outlier window" `Quick
      test_mix_cap_bounds_outlier;
    Alcotest.test_case "one all-fresh window alarms the churn cusum" `Quick
      test_churn_single_window_alarms;
    Alcotest.test_case "detector trajectories are deterministic" `Quick
      test_detectors_deterministic;
    Alcotest.test_case "Stats.delta covers every canonical field" `Quick
      test_stats_delta_canonical;
    Alcotest.test_case "monitor is observer-only on both engines" `Slow
      test_monitor_observer_only;
    Alcotest.test_case "PhaseShift flagged within 4 windows, both machines"
      `Slow test_phaseshift_detected;
    Alcotest.test_case "PhaseChurn flagged within 4 windows, both machines"
      `Slow test_phasechurn_detected;
    Alcotest.test_case "PhaseChurn degrades for alloc-site churn" `Slow
      test_phasechurn_reason;
    Alcotest.test_case "stationary workloads never go Degraded" `Slow
      test_stationary_never_degraded;
  ]
