(* Workload and harness tests. Full benchmark runs live in bench/main.exe;
   here we verify that every workload compiles and that the harness
   machinery (speedup, output equality, fractions) behaves. *)

module W = Workloads.Workload
module H = Workloads.Harness

let all = Workloads.Specjvm.all @ Workloads.Javagrande.all

let test_twelve_workloads () =
  Alcotest.(check int) "twelve benchmarks (Table 3)" 12 (List.length all);
  let names = List.map (fun (w : W.t) -> w.name) all in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [
      "mtrt"; "jess"; "compress"; "db"; "mpegaudio"; "jack"; "javac";
      "Euler"; "MolDyn"; "MonteCarlo"; "RayTracer"; "Search";
    ]

let test_all_workloads_compile () =
  List.iter
    (fun (w : W.t) ->
      match Minijava.Compile.program_of_source w.source with
      | Ok program ->
          Alcotest.(check bool)
            (w.name ^ " has methods")
            true
            (Array.length program.methods > 0)
      | Error e ->
          Alcotest.failf "%s does not compile: %s" w.name
            (Minijava.Compile.string_of_error e))
    all

let tiny_workload =
  {
    W.name = "tiny";
    suite = `Specjvm;
    description = "harness test fixture";
    paper_note = "";
    heap_limit_bytes = 4 * 1024 * 1024;
    source =
      {|
class Node { int v; Node(int x) { v = x; } }
class T {
  static int walk(Node[] ns) {
    int acc = 0;
    for (int i = 0; i < ns.length; i = i + 1) { acc = acc + ns[i].v; }
    return acc;
  }
  static void main() {
    Node[] ns = new Node[500];
    for (int i = 0; i < 500; i = i + 1) { ns[i] = new Node(i); }
    int acc = 0;
    for (int r = 0; r < 5; r = r + 1) { acc = (acc + T.walk(ns)) % 9973; }
    print(acc);
  }
}
|};
  }

let test_harness_runs_and_checks_output () =
  let machine = Memsim.Config.pentium4 in
  let baseline =
    H.run ~mode:Strideprefetch.Options.Off ~machine tiny_workload
  in
  let optimized =
    H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload
  in
  Alcotest.(check string) "identical program output" baseline.output
    optimized.output;
  Alcotest.(check bool) "baseline cycles positive" true (baseline.cycles > 0);
  let s = H.speedup ~baseline optimized in
  Alcotest.(check bool) "speedup is finite and sane" true
    (s > 0.5 && s < 10.0);
  Alcotest.(check (float 1e-9)) "percent consistent"
    ((s -. 1.0) *. 100.0)
    (H.percent_speedup ~baseline optimized)

let test_harness_mode_recorded () =
  let machine = Memsim.Config.athlon_mp in
  let r = H.run ~mode:Strideprefetch.Options.Inter ~machine tiny_workload in
  Alcotest.(check bool) "mode" true (r.mode = Strideprefetch.Options.Inter);
  Alcotest.(check string) "machine" "AthlonMP" r.machine;
  Alcotest.(check bool) "methods compiled" true (r.methods_compiled > 0)

let test_harness_compiled_fraction () =
  let machine = Memsim.Config.pentium4 in
  let r = H.run ~mode:Strideprefetch.Options.Off ~machine tiny_workload in
  let f = H.compiled_fraction r in
  Alcotest.(check bool) "fraction in (0,1)" true (f > 0.0 && f < 1.0)

let test_harness_prefetch_overhead () =
  let machine = Memsim.Config.pentium4 in
  let r =
    H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload
  in
  let f = H.prefetch_overhead_fraction r in
  Alcotest.(check bool) "overhead fraction in [0,1)" true (f >= 0.0 && f < 1.0);
  Alcotest.(check bool) "prefetch pass timed" true
    (r.prefetch_pass_seconds >= 0.0)

let test_harness_rejects_output_mismatch () =
  let machine = Memsim.Config.pentium4 in
  let a = H.run ~mode:Strideprefetch.Options.Off ~machine tiny_workload in
  let forged = { a with H.output = "different\n"; cycles = 1 } in
  Alcotest.(check bool) "mismatch detected" true
    (try
       ignore (H.speedup ~baseline:a forged);
       false
     with Invalid_argument _ -> true)

let test_workload_determinism () =
  (* same workload, same machine, same mode: identical cycle counts *)
  let machine = Memsim.Config.pentium4 in
  let r1 = H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload in
  let r2 = H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload in
  Alcotest.(check int) "deterministic cycles" r1.cycles r2.cycles;
  Alcotest.(check string) "deterministic output" r1.output r2.output

let test_jess_outputs_agree_across_modes () =
  (* one real benchmark end-to-end on both machines and all three modes;
     the rest are covered by bench/main.exe *)
  let w = List.find (fun (w : W.t) -> w.name = "jess") all in
  List.iter
    (fun machine ->
      let baseline = H.run ~mode:Strideprefetch.Options.Off ~machine w in
      let inter = H.run ~mode:Strideprefetch.Options.Inter ~machine w in
      let both = H.run ~mode:Strideprefetch.Options.Inter_intra ~machine w in
      Alcotest.(check string) "INTER agrees" baseline.output inter.output;
      Alcotest.(check string) "INTER+INTRA agrees" baseline.output both.output)
    [ Memsim.Config.pentium4 ]

let suite =
  [
    ("the twelve benchmarks exist", `Quick, test_twelve_workloads);
    ("all workloads compile", `Quick, test_all_workloads_compile);
    ("harness: run + output equality", `Quick,
     test_harness_runs_and_checks_output);
    ("harness: metadata recorded", `Quick, test_harness_mode_recorded);
    ("harness: compiled fraction", `Quick, test_harness_compiled_fraction);
    ("harness: prefetch overhead fraction", `Quick,
     test_harness_prefetch_overhead);
    ("harness: output mismatch rejected", `Quick,
     test_harness_rejects_output_mismatch);
    ("harness: determinism", `Quick, test_workload_determinism);
    ("jess: modes agree end-to-end", `Slow, test_jess_outputs_agree_across_modes);
  ]

(* --- side-effect freedom of object inspection (fuzzing-oracle satellite) ---

   The JIT's object inspection executes bytecode against the real heap
   through a read-only shim; any write would be a correctness bug that the
   differential oracle might only catch probabilistically. Here it is
   checked directly: a bit-identical [`All]-scope snapshot (every live
   object with its address, every static) taken around every JIT
   compilation of every seed workload must be unchanged. *)

let test_inspection_leaves_heap_and_globals_intact () =
  let machine = Memsim.Config.pentium4 in
  List.iter
    (fun (w : W.t) ->
      let compilations = ref 0 in
      let observer ~meth ~before ~after =
        incr compilations;
        match Workloads.Observables.diff before after with
        | None -> ()
        | Some diff ->
            Alcotest.failf "%s: compiling %s changed the heap/statics: %s"
              w.W.name meth.Vm.Classfile.method_name diff
      in
      let r =
        H.execute
          {
            (H.request w) with
            config = { Workloads.Run_config.default with machine };
            observers =
              { H.no_observers with compile_observer = Some observer };
          }
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: something was compiled" w.W.name)
        true
        (!compilations > 0 && r.H.methods_compiled = !compilations))
    all

let side_effect_suite =
  [
    ("inspection leaves heap and globals bit-identical", `Slow,
     test_inspection_leaves_heap_and_globals_intact);
  ]

(* --- one compiled program, many runs ---

   A request carries a compiled program and every run executes a fresh
   copy of it, so one compile serves any number of runs. Each run of a
   shared request must match a run compiled from source, whatever ran
   before it, and the shared program must come out as the front end left
   it: the JIT rewrites only the copies. *)

let test_one_program_many_runs () =
  let fuzz =
    let g = Fuzz.Gen.generate ~seed:2026 ~max_size:6 in
    W.of_source ~name:"fuzz-2026" ~description:"generated program"
      ~heap_limit_bytes:g.Fuzz.Gen.heap_limit_bytes (Fuzz.Gen.source g)
  in
  let churn =
    { Workloads.Phase.churn with W.heap_limit_bytes = 512 * 1024 }
  in
  let db = List.find (fun (w : W.t) -> w.name = "db") all in
  let pentium4 = Memsim.Config.pentium4 in
  List.iter
    (fun (w, machines) ->
      let req = H.request w in
      List.iter
        (fun machine ->
          let config = { Workloads.Run_config.default with machine } in
          let expected = H.execute { (H.request w) with config } in
          List.iteri
            (fun i engine ->
              let r =
                H.execute { req with config = { config with engine } }
              in
              let ctx =
                Printf.sprintf "%s/%s run %d (%s)" w.W.name
                  machine.Memsim.Config.name (i + 1)
                  (Vm.Interp.engine_name engine)
              in
              Alcotest.(check string) (ctx ^ ": output") expected.output
                r.output;
              Alcotest.(check (list (pair string int)))
                (ctx ^ ": books")
                (("cycles", expected.cycles)
                 :: ("gc_count", expected.gc_count)
                 :: ("methods_compiled", expected.methods_compiled)
                 :: Memsim.Stats.core_alist expected.stats)
                (("cycles", r.cycles) :: ("gc_count", r.gc_count)
                 :: ("methods_compiled", r.methods_compiled)
                 :: Memsim.Stats.core_alist r.stats))
            Vm.Interp.[ Closure; Closure; Switch ])
        machines;
      let front_end = W.compile w in
      Array.iteri
        (fun i (m : Vm.Classfile.method_info) ->
          let ctx = w.W.name ^ ": " ^ m.method_name in
          Alcotest.(check bool) (ctx ^ ": front-end body") true
            (m.code = front_end.methods.(i).code
            && m.original_code = front_end.methods.(i).code);
          Alcotest.(check (list int))
            (ctx ^ ": locals, sites, registers, counters")
            [
              front_end.methods.(i).max_locals;
              front_end.methods.(i).n_sites;
              0; 0; 0; 0;
            ]
            [
              m.max_locals; m.n_sites; m.n_pref_regs; Bool.to_int m.compiled;
              m.invocations; m.backedges;
            ];
          Alcotest.(check (float 0.0)) (ctx ^ ": compile seconds") 0.0
            m.compile_seconds)
        req.program.methods)
    [
      (db, [ pentium4; Memsim.Config.athlon_mp ]);
      (churn, [ pentium4 ]);
      (fuzz, [ pentium4 ]);
    ]

let suite =
  suite @ side_effect_suite
  @ [ ("harness: one compiled program, many runs", `Slow,
       test_one_program_many_runs) ]
