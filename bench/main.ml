(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index), plus an
   ablation sweep and bechamel microbenchmarks of the compiler machinery.
   The bench_hotpath/v2 report of per-cell wall-clock is spf_bench
   --record's.

   Usage: dune exec bench/main.exe [-- flags] [experiment ...]
   Experiments: table1 table2 table3 fig34 fig5 fig6 fig7 fig8 fig9 fig10
   fig11 ablation micro; default is all of them in paper order.

   Flags:
     --jobs N     size of the Domain pool for the simulation matrix
                  (default: Domain.recommended_domain_count ())
     --smoke      reduced bechamel quota for [micro] (used by dune runtest)

   All simulation cells needed by the requested experiments are collected
   up front, deduplicated, and run once on the Domain pool (Bench_runner);
   the experiments then only read the pre-computed matrix. Simulated cycle
   counts are independent of --jobs. *)

module SP = Strideprefetch
module W = Workloads.Workload
module H = Workloads.Harness
module R = Workloads.Run_config
module Runner = Bench_runner.Runner

let workloads = Bench_runner.Report.workloads
let machines = Bench_runner.Report.machines
let specjvm_names = List.map (fun (w : W.t) -> w.name) Workloads.Specjvm.all
let all_modes = [ SP.Options.Off; SP.Options.Inter; SP.Options.Inter_intra ]

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheading title = Printf.printf "\n-- %s --\n" title

(* ------------------------------------------------------------------ *)
(* Result matrix: each cell runs once per process, keyed by its gate key.
   The cells for the requested experiments are prefilled in parallel by
   [prefill]; [timed_of_cell] falls back to a serial run only for cells
   no experiment declared (which would be a bug in [needs]). *)

let cache : (string, Runner.timed) Hashtbl.t = Hashtbl.create 64

let prefill ~jobs cells =
  (* Dedup while preserving order. *)
  let seen = Hashtbl.create 64 in
  let todo =
    List.filter
      (fun c ->
        let k = Runner.cell_key c in
        if Hashtbl.mem cache k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cells
  in
  if todo <> [] then begin
    Printf.eprintf "[bench] running %d simulation cells on %d domain(s)...\n%!"
      (List.length todo) jobs;
    let timed =
      Runner.run_matrix ~jobs
        ~progress:(fun c ->
          Printf.eprintf "[bench]   %s\n%!" (Runner.cell_key c))
        todo
    in
    List.iter
      (fun (t : Runner.timed) ->
        Hashtbl.replace cache (Runner.cell_key t.cell) t)
      timed
  end

let timed_of_cell (c : Runner.cell) =
  let k = Runner.cell_key c in
  match Hashtbl.find_opt cache k with
  | Some t -> t
  | None ->
      Printf.eprintf "[bench] running %s (not prefilled)...\n%!" k;
      let t = Runner.run_cell c in
      Hashtbl.replace cache k t;
      t

let cell w machine mode = Runner.cell w { R.default with machine; mode }
let result w machine mode = (timed_of_cell (cell w machine mode)).Runner.result

let speedup_percent w machine mode =
  let baseline = result w machine SP.Options.Off in
  H.percent_speedup ~baseline (result w machine mode)

(* ------------------------------------------------------------------ *)
(* Table 1: the load instructions of findInMemory. *)

let kernel_and_infos () =
  let program = Workloads.Figure1.compile () in
  let meth =
    Option.get (Vm.Classfile.find_method program Workloads.Figure1.kernel_name)
  in
  let infos =
    Jit.Stack_model.analyze meth.code ~arity:meth.arity
      ~callee_arity:(fun m -> (Vm.Classfile.method_of_id program m).arity)
      ~callee_returns:(fun m ->
        (Vm.Classfile.method_of_id program m).returns_value)
  in
  (program, meth, infos)

let table1 () =
  heading "Table 1: load instructions in the findInMemory() method";
  let _, meth, infos = kernel_and_infos () in
  Printf.printf "%-6s %-20s %s\n" "Load" "Memory address" "instruction";
  for site = 0 to meth.n_sites - 1 do
    let instr =
      Array.to_list meth.code
      |> List.find_opt (fun i -> List.mem site (Vm.Bytecode.all_sites i))
    in
    Printf.printf "%-6s %-20s %s\n"
      (Printf.sprintf "L%d" site)
      (Workloads.Figure1.describe_site infos site)
      (match instr with Some i -> Vm.Bytecode.to_string i | None -> "?")
  done

(* ------------------------------------------------------------------ *)

let table2 () =
  heading "Table 2: parameters related to prefetching";
  Printf.printf "%-10s %-8s %-9s %-8s %-9s %-6s %s\n" "Processor" "L1(KB)"
    "L1 line" "L2(KB)" "L2 line" "#DTLB" "prefetch target";
  List.iter
    (fun (m : Memsim.Config.machine) ->
      Printf.printf "%-10s %-8d %-9d %-8d %-9d %-6d %s\n" m.name
        (m.l1.size_bytes / 1024) m.l1.line_bytes (m.l2.size_bytes / 1024)
        m.l2.line_bytes m.dtlb.entries
        (match m.prefetch_target with
        | Memsim.Config.To_l2 -> "L2"
        | Memsim.Config.To_l1 -> "L1"))
    machines

(* ------------------------------------------------------------------ *)

let table3 () =
  heading "Table 3: benchmarks and % of cycles in compiled code (Pentium 4)";
  Printf.printf "%-11s %-10s %-14s %s\n" "Program" "Suite" "Compiled (%)"
    "Description";
  List.iter
    (fun (w : W.t) ->
      let r = result w Memsim.Config.pentium4 SP.Options.Off in
      Printf.printf "%-11s %-10s %-14.1f %s\n" w.name
        (if List.mem w.name specjvm_names then "SPECjvm98" else "JavaGrande")
        (100.0 *. H.compiled_fraction r)
        w.description)
    workloads

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: the generated prefetching code, INTER vs INTER+INTRA. *)

let optimized_kernel mode machine =
  let program = Workloads.Figure1.compile () in
  let opts = SP.Options.with_mode mode SP.Options.default in
  let interp = Vm.Interp.create machine program in
  let reports = ref [] in
  let pipeline =
    Jit.Pipeline.create
      (Jit.Pipeline.standard_passes ()
      @
      match mode with
      | SP.Options.Off -> []
      | _ ->
          [
            SP.Pass.make_pass ~opts ~interp
              ~report_sink:(fun r -> reports := !reports @ r)
              ();
          ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  let meth =
    Option.get (Vm.Classfile.find_method program Workloads.Figure1.kernel_name)
  in
  (meth, !reports)

let fig34 () =
  heading "Figures 3 & 4: generated prefetching code for findInMemory";
  subheading "Figure 3 analogue: INTER only (Wu-style, in-loop loads)";
  let meth, _ = optimized_kernel SP.Options.Inter Memsim.Config.pentium4 in
  Format.printf "%a@." Vm.Classfile.pp_method meth;
  subheading "Figure 4 analogue: INTER+INTRA (dereference + intra-stride)";
  let meth, reports =
    optimized_kernel SP.Options.Inter_intra Memsim.Config.pentium4
  in
  Format.printf "%a@." Vm.Classfile.pp_method meth;
  subheading "per-loop pass reports";
  List.iter (fun r -> Format.printf "%a@." SP.Pass.pp_report r) reports

(* ------------------------------------------------------------------ *)

let fig5 () =
  heading "Figure 5: load dependence graph for findInMemory";
  let _, meth, infos = kernel_and_infos () in
  let sites = List.init meth.n_sites Fun.id in
  let ldg = SP.Ldg.build infos ~sites in
  Format.printf "%a@." SP.Ldg.pp ldg;
  subheading "GraphViz rendering";
  print_string
    (SP.Ldg.to_dot ldg ~labels:(fun site ->
         Printf.sprintf "L%d: %s" site
           (Workloads.Figure1.describe_site infos site)))

(* ------------------------------------------------------------------ *)

let speedup_figure ~figure ~machine () =
  heading
    (Printf.sprintf "Figure %s: speedup ratios on the %s" figure
       machine.Memsim.Config.name);
  Printf.printf "%-11s %12s %12s\n" "Program" "INTER" "INTER+INTRA";
  List.iter
    (fun (w : W.t) ->
      Printf.printf "%-11s %+11.1f%% %+11.1f%%\n" w.name
        (speedup_percent w machine SP.Options.Inter)
        (speedup_percent w machine SP.Options.Inter_intra))
    workloads

let fig6 () = speedup_figure ~figure:"6" ~machine:Memsim.Config.pentium4 ()
let fig7 () = speedup_figure ~figure:"7" ~machine:Memsim.Config.athlon_mp ()

(* ------------------------------------------------------------------ *)

let mpi_figure ~figure ~label ~extract () =
  heading
    (Printf.sprintf "Figure %s: %s on the Pentium 4 (x1000)" figure label);
  Printf.printf "%-11s %12s %12s\n" "Program" "BASELINE" "INTER+INTRA";
  List.iter
    (fun (w : W.t) ->
      let base = result w Memsim.Config.pentium4 SP.Options.Off in
      let opt = result w Memsim.Config.pentium4 SP.Options.Inter_intra in
      Printf.printf "%-11s %12.3f %12.3f\n" w.name
        (1000.0 *. extract base.H.stats)
        (1000.0 *. extract opt.H.stats))
    workloads

let fig8 () =
  mpi_figure ~figure:"8" ~label:"L1 cache load MPI"
    ~extract:Memsim.Stats.l1_load_mpi ()

let fig9 () =
  mpi_figure ~figure:"9" ~label:"L2 cache load MPI"
    ~extract:Memsim.Stats.l2_load_mpi ()

let fig10 () =
  mpi_figure ~figure:"10" ~label:"DTLB load MPI"
    ~extract:Memsim.Stats.dtlb_load_mpi ()

(* ------------------------------------------------------------------ *)

let fig11 () =
  heading "Figure 11: compilation time of the prefetching pass (Pentium 4)";
  Printf.printf "%-11s %10s %15s %15s %12s\n" "Program" "methods"
    "prefetch (ms)" "rest of JIT(ms)" "per hot method";
  let worst_per_method = ref 0.0 in
  List.iter
    (fun (w : W.t) ->
      let r = result w Memsim.Config.pentium4 SP.Options.Inter_intra in
      let per_method =
        if r.methods_compiled = 0 then 0.0
        else 1000.0 *. r.prefetch_pass_seconds /. float_of_int r.methods_compiled
      in
      if per_method > !worst_per_method then worst_per_method := per_method;
      Printf.printf "%-11s %10d %15.3f %15.3f %9.3f ms\n" w.name
        r.methods_compiled
        (1000.0 *. r.prefetch_pass_seconds)
        (1000.0
        *. (r.total_compile_seconds -. r.prefetch_pass_seconds))
        per_method)
    workloads;
  Printf.printf
    "\nWorst-case prefetch-pass cost: %.3f ms per hot method.\n\
     The paper reports the pass adds < 3.0%% to total JIT compilation time\n\
     and < 0.4%% to total execution time. A ratio against OUR baseline\n\
     pipeline would be meaningless: this reproduction's non-prefetch JIT\n\
     work (CFG/loops/fold/inline) is a deliberately thin stand-in, tens of\n\
     microseconds per method, where the IBM JIT's full compilation\n\
     (native code generation, register allocation, inlining, ...) runs\n\
     milliseconds to tens of milliseconds per hot method. Against such a\n\
     baseline, the measured sub-millisecond pass cost is the same order\n\
     as the paper's < 3%% claim. EXPERIMENTS.md discusses this further.\n"
    !worst_per_method

(* ------------------------------------------------------------------ *)
(* Ablation: sweeps of algorithm knobs that are not run-configuration
   axes, run through Harness.run ~opts on the same Domain pool. *)

let find_workload name = List.find (fun (w : W.t) -> w.name = name) workloads

(* (section title, workload, mode, [(label, opts)]) *)
let ablation_sections =
  let iterations =
    List.map
      (fun n ->
        ( Printf.sprintf "%2d iterations" n,
          { SP.Options.default with SP.Options.inspect_iterations = n } ))
      [ 5; 10; 20; 40 ]
  and distances =
    List.map
      (fun c ->
        ( Printf.sprintf "c = %d" c,
          { SP.Options.default with SP.Options.scheduling_distance = c } ))
      [ 1; 2; 4 ]
  and majorities =
    List.map
      (fun m ->
        ( Printf.sprintf "majority %.2f" m,
          { SP.Options.default with SP.Options.majority = m } ))
      [ 0.5; 0.75; 0.95 ]
  in
  [
    ( "db: INTER+INTRA speedup vs inspected iterations", "db",
      SP.Options.Inter_intra, iterations );
    ( "db: INTER+INTRA speedup vs scheduling distance c", "db",
      SP.Options.Inter_intra, distances );
    ( "Euler: INTER speedup vs scheduling distance c", "Euler",
      SP.Options.Inter, distances );
    ("jess: majority threshold", "jess", SP.Options.Inter_intra, majorities);
  ]

let ablation ~jobs () =
  heading "Ablation: inspected iterations and scheduling distance (Pentium 4)";
  let machine = Memsim.Config.pentium4 in
  let points =
    List.concat_map
      (fun (title, name, mode, knobs) ->
        List.map
          (fun (label, opts) -> (title, find_workload name, mode, label, opts))
          knobs)
      ablation_sections
  in
  Printf.eprintf "[bench] running %d ablation cells on %d domain(s)...\n%!"
    (List.length points) jobs;
  let runs =
    Runner.map ~jobs
      (fun (title, w, mode, label, opts) ->
        (title, w, label, H.run ~opts ~mode ~machine w))
      points
  in
  ignore
    (List.fold_left
       (fun previous (title, w, label, r) ->
         if title <> previous then subheading title;
         let baseline = result w machine SP.Options.Off in
         Printf.printf "  %s: %+6.1f%%\n" label
           (H.percent_speedup ~baseline r);
         title)
       "" runs)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the compiler-side machinery. *)

let micro ~smoke () =
  heading "Microbenchmarks (bechamel): compiler-side costs";
  let program, meth, infos = kernel_and_infos () in
  let cfg_built = Jit.Cfg.build meth.code in
  let forest = Jit.Loops.analyze cfg_built in
  let target = List.hd (List.rev (Jit.Loops.postorder forest)) in
  (* a populated interpreter for object inspection *)
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  ignore (Vm.Interp.run interp);
  let opts = SP.Options.default in
  let args =
    let heap = Vm.Interp.heap interp in
    let node = ref Vm.Value.Null
    and tv = ref Vm.Value.Null
    and tok = ref Vm.Value.Null in
    let class_id name =
      (Option.get (Vm.Classfile.find_class program name)).Vm.Classfile.class_id
    in
    Vm.Heap.iter_ids_in_address_order heap (fun id ->
        match Vm.Heap.class_id_of heap id with
        | Some c when c = class_id "Node2" -> node := Vm.Value.Ref id
        | Some c when c = class_id "TokenVector" -> tv := Vm.Value.Ref id
        | Some c when c = class_id "Token" && !tok = Vm.Value.Null ->
            tok := Vm.Value.Ref id
        | _ -> ());
    [| !node; !tv; !tok |]
  in
  let fresh_meth () =
    Vm.Classfile.make_method ~method_id:meth.method_id
      ~method_name:meth.method_name ~arity:meth.arity
      ~returns_value:meth.returns_value ~max_locals:meth.max_locals
      ~code:(Array.copy meth.original_code)
  in
  let tests =
    [
      Bechamel.Test.make ~name:"cfg+dominators+loops"
        (Bechamel.Staged.stage (fun () ->
             let cfg = Jit.Cfg.build meth.code in
             let idom = Jit.Dominators.compute cfg in
             ignore (Jit.Loops.analyze cfg);
             ignore idom));
      Bechamel.Test.make ~name:"stack-model"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Jit.Stack_model.analyze meth.code ~arity:meth.arity
                  ~callee_arity:(fun m ->
                    (Vm.Classfile.method_of_id program m).arity)
                  ~callee_returns:(fun m ->
                    (Vm.Classfile.method_of_id program m).returns_value))));
      Bechamel.Test.make ~name:"ldg-build"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (SP.Ldg.build infos ~sites:(List.init meth.n_sites Fun.id))));
      Bechamel.Test.make ~name:"object-inspection"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (SP.Inspection.inspect ~program ~heap:(Vm.Interp.heap interp)
                  ~globals:(Vm.Interp.global interp) ~opts ~cfg:cfg_built
                  ~forest ~target ~meth ~args)));
      Bechamel.Test.make ~name:"whole-prefetch-pass"
        (Bechamel.Staged.stage (fun () ->
             let m = fresh_meth () in
             ignore (SP.Pass.run ~opts ~interp ~meth:m ~args ())));
      Bechamel.Test.make ~name:"stride-detection-1k"
        (Bechamel.Staged.stage
           (let records = List.init 1000 (fun i -> (i, 4096 + (i * 60))) in
            fun () -> ignore (SP.Stride.inter ~opts records)));
      Bechamel.Test.make ~name:"cache-sim-4k-accesses"
        (Bechamel.Staged.stage
           (let hier = Memsim.Hierarchy.create Memsim.Config.pentium4 in
            fun () ->
              for i = 0 to 4095 do
                ignore
                  (Memsim.Hierarchy.demand_access hier ~pc:0
                     ~addr:(i * 64 * 7) ~kind:`Load ~now:i)
              done));
    ]
  in
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let benchmark_cfg =
    (* The smoke config (dune runtest) only checks the harness runs end to
       end; the quota is slashed so the whole alias stays well under 30s. *)
    if smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Printf.printf "%-26s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all benchmark_cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let ols_result = Analyze.one ols instance raw in
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              let pretty =
                if smoke then "ok"
                else if ns > 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
                else Printf.sprintf "%10.0f ns" ns
              in
              Printf.printf "%-26s %16s\n" name pretty
          | _ -> Printf.printf "%-26s %16s\n" name "n/a")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Experiment index and the cells each one needs from the matrix. *)

let matrix_cells ~machines ~modes =
  List.concat_map
    (fun (w : W.t) ->
      List.concat_map
        (fun machine -> List.map (fun mode -> cell w machine mode) modes)
        machines)
    workloads

let needs = function
  | "table3" ->
      matrix_cells ~machines:[ Memsim.Config.pentium4 ]
        ~modes:[ SP.Options.Off ]
  | "fig6" ->
      matrix_cells ~machines:[ Memsim.Config.pentium4 ] ~modes:all_modes
  | "fig7" ->
      matrix_cells ~machines:[ Memsim.Config.athlon_mp ] ~modes:all_modes
  | "fig8" | "fig9" | "fig10" ->
      matrix_cells ~machines:[ Memsim.Config.pentium4 ]
        ~modes:[ SP.Options.Off; SP.Options.Inter_intra ]
  | "fig11" ->
      matrix_cells ~machines:[ Memsim.Config.pentium4 ]
        ~modes:[ SP.Options.Inter_intra ]
  | "ablation" ->
      List.map
        (fun (_, name, _, _) ->
          cell (find_workload name) Memsim.Config.pentium4 SP.Options.Off)
        ablation_sections
  | _ -> []

let experiment_names =
  [
    "table1"; "table2"; "table3"; "fig34"; "fig5"; "fig6"; "fig7"; "fig8";
    "fig9"; "fig10"; "fig11"; "ablation"; "micro";
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--smoke] [experiment ...]\n\
     experiments: %s\n"
    (String.concat ", " experiment_names)

let () =
  let jobs = ref (Runner.default_jobs ()) in
  let smoke = ref false in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got '%s'\n" n;
            exit 2);
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | name :: rest ->
        if List.mem name experiment_names then names := !names @ [ name ]
        else begin
          Printf.eprintf "unknown experiment '%s'\n" name;
          usage ();
          exit 1
        end;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let requested = if !names = [] then experiment_names else !names in
  (* One parallel pass over every simulation cell any requested experiment
     will read; the experiments themselves are then pure printing. *)
  prefill ~jobs:!jobs (List.concat_map needs requested);
  let run = function
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "table3" -> table3 ()
    | "fig34" -> fig34 ()
    | "fig5" -> fig5 ()
    | "fig6" -> fig6 ()
    | "fig7" -> fig7 ()
    | "fig8" -> fig8 ()
    | "fig9" -> fig9 ()
    | "fig10" -> fig10 ()
    | "fig11" -> fig11 ()
    | "ablation" -> ablation ~jobs:!jobs ()
    | "micro" -> micro ~smoke:!smoke ()
    | name ->
        Printf.eprintf "unknown experiment '%s'\n" name;
        exit 1
  in
  List.iter run requested
