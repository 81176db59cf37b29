(* The benchmark keeps its own copy of the harness wiring so it can time
   each layer from outside. These tests keep that copy from drifting:
   the plain wiring must match Workloads.Harness.run, and each traced
   pass must leave the simulation exactly as the untraced run left it. *)

open E2e

let euler =
  { Suite.workload = Workloads.Javagrande.euler; machine = Memsim.Config.pentium4 }

(* Collects garbage, so pass B runs for real on it. *)
let churn =
  {
    Suite.workload = Suite.with_heap 512 Workloads.Phase.churn;
    machine = Memsim.Config.pentium4;
  }

let core = Alcotest.(list (pair string int))

let parity (c : Suite.cell) () =
  let h =
    Workloads.Harness.run ~mode:Strideprefetch.Options.Inter_intra
      ~machine:c.machine c.workload
  in
  let o = Measure.run_plain c in
  Alcotest.(check string) "output" h.output o.output;
  Alcotest.(check int) "cycles" h.cycles o.cycles;
  Alcotest.check core "core stats" (Memsim.Stats.core_alist h.stats) o.core;
  Alcotest.(check int) "gc_count" h.gc_count o.gc_count;
  Alcotest.(check int) "methods compiled" h.methods_compiled o.methods_compiled

let observe_only (c : Suite.cell) () =
  let reference = Measure.run_plain c in
  let cell = Traced.cell_of c in
  let same pass (o : Wiring.outcome) =
    Alcotest.(check int) (pass ^ " cycles") reference.cycles o.cycles;
    Alcotest.check core (pass ^ " core stats") reference.core o.core;
    Alcotest.(check string) (pass ^ " output") reference.output o.output
  in
  let a, layers = Traced.pass_a (Telemetry.Sink.create ()) cell in
  same "A" a;
  Alcotest.(check bool) "A times the run" true (layers.Traced.exec > 0.0);
  let b, gc_s, dropped = Traced.pass_b cell in
  same "B" b;
  Alcotest.(check int) "B dropped" 0 dropped;
  Alcotest.(check bool) "B times collections iff any ran" (reference.gc_count > 0)
    (gc_s > 0.0);
  let c, recorded, _ = Traced.pass_c cell in
  same "C" c;
  Alcotest.(check bool) "C recorded loads" true (recorded > 0)

let () =
  Alcotest.run "e2e"
    [
      ( "parity with Harness.run",
        [
          Alcotest.test_case "Euler/Pentium4" `Quick (parity euler);
          Alcotest.test_case "PhaseChurn@512K/Pentium4" `Quick (parity churn);
        ] );
      ( "traced passes observe only",
        [
          Alcotest.test_case "Euler/Pentium4" `Quick (observe_only euler);
          Alcotest.test_case "PhaseChurn@512K/Pentium4" `Quick (observe_only churn);
        ] );
    ]
