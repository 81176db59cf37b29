(* spf_lint: run workloads (and optionally generated fuzz programs)
   through the mixed-mode JIT, then lint every method body of the
   executed program with the full analysis stack — the type-state
   verifier, the prefetch-safety checkers, and the plan-aware lints
   cross-checked against the pass's own loop reports. Diagnostics are
   pc-level, with the faulting instruction rendered inline.

   Exit status 0 when everything is clean, 1 when any finding was
   produced (or, under --inject, when the injected fault went
   unreported), 124 on usage errors such as an unknown workload — so the
   tool slots directly into CI (`dune build @lint`). *)

open Cmdliner

let all_workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all
let all_modes =
  Strideprefetch.Options.[ Off; Inter; Inter_intra ]

module R = Workloads.Run_config
module H = Workloads.Harness

let predict_flag =
  Arg.(
    value & flag
    & info [ "predict" ]
        ~doc:
          "Agreement mode: run each workload with the address-algebra \
           predictor alongside full dynamic inspection and score the \
           static predictions against the inspected strides per LDG \
           site. Disagreements are reported as pc-level diagnostics; a \
           per-workload agreement table is printed at the end.")

let min_agreement_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-agreement" ] ~docv:"PCT"
        ~doc:
          "With $(b,--predict): exit non-zero if overall agreement \
           (agreed / decided claims) falls below $(docv) percent.")

let workload_arg =
  Arg.(
    value
    & opt (some Cli_common.workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Lint only this workload (default: all seed workloads).")

let fuzz_arg =
  Arg.(
    value & opt int 0
    & info [ "fuzz" ] ~docv:"N"
        ~doc:
          "Also lint $(docv) generated programs (seeded, deterministic; \
           see $(b,--seed)).")

let seed_arg =
  Arg.(
    value & opt int 2026
    & info [ "s"; "seed" ] ~docv:"SEED"
        ~doc:
          "Base seed for $(b,--fuzz); program $(i,i) uses derived seed \
           SEED+$(i,i), matching spf_fuzz's protocol.")

let max_size_arg =
  Arg.(
    value & opt int 8
    & info [ "max-size" ] ~docv:"SIZE"
        ~doc:"Size budget for generated programs.")

let verify_each_pass_arg =
  Arg.(
    value & flag
    & info [ "verify-each-pass" ]
        ~doc:
          "Debug mode: re-verify the method body after every JIT pass \
           instead of linting once after the run; the first finding \
           aborts compilation naming the offending pass.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Print a line per configuration run.")

let inject_arg =
  Cli_common.inject_arg [ Vm.Fault.Skip_guard_dominance ]
    ~doc:
      "Self-test: make the codegen emit dereference prefetches before \
       their spec_load guard and confirm the lint reports it."

let config_name (w : Workloads.Workload.t) (machine : Memsim.Config.machine)
    mode =
  Printf.sprintf "%s/%s/%s" w.name machine.Memsim.Config.name
    (Strideprefetch.Options.mode_name mode)

(* Lint one (workload, machine, mode) cell: [req] run at [config].
   Returns (methods checked, findings printed). *)
let lint_one ~verbose (req : H.request) (config : R.t) =
  let opts = req.opts and machine = R.machine config in
  let name = config_name req.workload machine config.mode in
  if verbose then (
    Printf.printf "-- %s\n" name;
    flush stdout);
  match H.execute { req with config } with
  | exception Jit.Pipeline.Verification_failed
      { pass_name; method_name; message } ->
      Printf.printf "[%s] %s failed verification after pass '%s':\n  %s\n"
        name method_name pass_name message;
      (0, 1)
  | r ->
      let program = r.program in
      let require_guarded = Strideprefetch.Options.use_guarded machine in
      let methods = ref 0 and findings = ref 0 in
      Array.iter
        (fun (m : Vm.Classfile.method_info) ->
          incr methods;
          List.iter
            (fun d ->
              incr findings;
              Printf.printf "[%s] %s\n" name (Analysis.Diag.render ~meth:m d))
            (Analysis.Check.check_method ~program ~reports:r.reports
               ~scheduling_distance:
                 opts.Strideprefetch.Options.scheduling_distance
               ~require_guarded m))
        program.Vm.Classfile.methods;
      (!methods, !findings)

let fuzz_workload ~seed ~max_size index =
  let g = Fuzz.Gen.generate ~seed:(seed + index) ~max_size in
  Workloads.Workload.of_source
    ~name:(Printf.sprintf "fuzz-%d" (seed + index))
    ~description:"generated program (spf_lint corpus)"
    ~heap_limit_bytes:g.Fuzz.Gen.heap_limit_bytes (Fuzz.Gen.source g)

(* Agreement mode: one run per workload x machine with the predictor
   attached but inspection left at full depth, so every static claim has
   its dynamically inspected counterpart to be judged against. *)
let predict_run ~(config : R.t) ~verbose ~min_agreement workloads =
  let min_samples = Strideprefetch.Options.default.min_samples in
  let all_rows = ref [] in
  let scored = ref [] in
  let disagreements = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let wrows = ref [] in
      let req =
        {
          (H.request w) with
          observers = { H.no_observers with predict = true };
        }
      in
      List.iter
        (fun (machine : Memsim.Config.machine) ->
          if verbose then (
            Printf.printf "-- predict %s/%s\n" w.name
              machine.Memsim.Config.name;
            flush stdout);
          let mode = Strideprefetch.Options.Inter_intra in
          let r =
            H.execute { req with config = { config with machine; mode } }
          in
          let rows =
            Strideprefetch.Pass.prediction_rows ~workload:w.name r.reports
          in
          wrows := !wrows @ rows;
          List.iter
            (fun (row : Strideprefetch.Predict.row) ->
              match Strideprefetch.Predict.classify ~min_samples row with
              | Strideprefetch.Predict.Disagree ->
                  incr disagreements;
                  let d =
                    Analysis.Diag.warning ~checker:"predict-agreement"
                      ~pc:row.Strideprefetch.Predict.r_pc
                      "loop L%d site %d: static analysis predicted %s \
                       but %d inspected addresses concluded %s"
                      row.Strideprefetch.Predict.r_loop
                      row.Strideprefetch.Predict.r_site
                      (match row.Strideprefetch.Predict.r_static with
                      | Some s -> Printf.sprintf "stride %d" s
                      | None -> "no stride")
                      row.Strideprefetch.Predict.r_observations
                      (match row.Strideprefetch.Predict.r_inspected with
                      | Some s -> Printf.sprintf "stride %d" s
                      | None -> "no dominant stride")
                  in
                  let meth =
                    Array.to_seq r.program.Vm.Classfile.methods
                    |> Seq.find (fun (m : Vm.Classfile.method_info) ->
                           m.Vm.Classfile.method_name
                           = row.Strideprefetch.Predict.r_method)
                  in
                  (match meth with
                  | Some m ->
                      Printf.printf "[%s/%s] %s\n" w.name
                        machine.Memsim.Config.name
                        (Analysis.Diag.render ~meth:m d)
                  | None ->
                      Printf.printf "[%s/%s] %s: %s\n" w.name
                        machine.Memsim.Config.name
                        row.Strideprefetch.Predict.r_method
                        (Analysis.Diag.render_plain d))
              | _ -> ())
            rows)
        Memsim.Config.machines;
      all_rows := !all_rows @ !wrows;
      scored :=
        (w.name, Strideprefetch.Predict.score ~min_samples !wrows)
        :: !scored)
    workloads;
  print_string (Strideprefetch.Predict.render_table (List.rev !scored));
  print_newline ();
  let total = Strideprefetch.Predict.score ~min_samples !all_rows in
  let pct = Strideprefetch.Predict.agreement_pct total in
  Printf.printf
    "spf_lint --predict: %d site(s), %d claimed, %d disagreement(s), \
     agreement %.1f%%\n"
    total.Strideprefetch.Predict.sites total.Strideprefetch.Predict.claimed
    !disagreements pct;
  match min_agreement with
  | Some floor when pct < floor ->
      Printf.printf "spf_lint: agreement %.1f%% is below the %.1f%% floor\n"
        pct floor;
      1
  | _ -> 0

let run workload fuzz seed max_size verify_each_pass verbose faults
    (config : R.t) predict min_agreement =
  let workloads =
    Option.fold ~none:all_workloads ~some:(fun w -> [ w ]) workload
    @ List.init fuzz (fuzz_workload ~seed ~max_size)
  in
  if predict then exit (predict_run ~config ~verbose ~min_agreement workloads);
  let runs = ref 0 and methods = ref 0 and findings = ref 0 in
  List.iter
    (fun w ->
      (* One compile serves every machine x mode cell. *)
      let req =
        {
          (H.request w) with
          observers = { H.no_observers with verify_each_pass };
          faults;
        }
      in
      List.iter
        (fun machine ->
          List.iter
            (fun mode ->
              let m, f =
                lint_one ~verbose req { config with machine; mode }
              in
              incr runs;
              methods := !methods + m;
              findings := !findings + f)
            all_modes)
        Memsim.Config.machines)
    workloads;
  Printf.printf "spf_lint: %d configuration(s), %d method bodies checked: \
                 %d finding(s)\n"
    !runs !methods !findings;
  if faults <> [] then
    (* self-test semantics: the injected miscompile MUST be reported *)
    if !findings > 0 then (
      Printf.printf
        "spf_lint: injected guard-dominance fault was caught (self-test \
         passed)\n";
      0)
    else (
      Printf.printf
        "spf_lint: injected guard-dominance fault went UNREPORTED\n";
      1)
  else if !findings = 0 then 0
  else 1

let cmd =
  let info =
    Cmd.info "spf_lint" ~version:"1.0"
      ~doc:
        "Static analysis of prefetch-optimized bytecode: type-state \
         verification, prefetch-safety checking and plan-aware linting \
         of every JIT-transformed method body."
  in
  Cmd.v info
    Term.(
      const run $ workload_arg $ fuzz_arg $ seed_arg $ max_size_arg
      $ verify_each_pass_arg $ verbose_arg $ inject_arg
      $ Cli_common.config_term R.[ Hw; Prediction ]
      $ predict_flag $ min_agreement_arg)

let () = exit (Cmd.eval' cmd)
