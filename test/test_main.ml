let () =
  Alcotest.run "strideprefetch"
    [
      ("memsim", Test_memsim.suite);
      ("hw-prefetch", Test_hw_prefetch.suite);
      ("vm", Test_vm.suite);
      ("engine", Test_engine.suite);
      ("jit", Test_jit.suite);
      ("minijava", Test_minijava.suite);
      ("strideprefetch", Test_strideprefetch.suite);
      ("workloads", Test_workloads.suite);
      ("heap-dense", Test_heap_dense.suite);
      ("bench-runner", Test_bench_runner.suite);
      ("fuzz", Test_fuzz.suite);
      ("analysis", Test_analysis.suite);
      ("telemetry", Test_telemetry.suite);
      ("profile", Test_profile.suite);
      ("bench-gate", Test_bench_gate.suite);
      ("monitor", Test_monitor.suite);
      ("diff", Test_diff.suite);
      ("run-config", Test_run_config.suite);
    ]
