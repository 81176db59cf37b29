(* Tests for the static-analysis layer (lib/analysis): the type-state
   verifier, the prefetch-safety checkers, the lint rules, and the
   wiring — verify-each-pass debug mode, the fuzz oracle's lint cell,
   and the skip-guard-dominance fault injection. *)

module B = Vm.Bytecode
module SP = Strideprefetch
module A = Analysis

(* --- helpers ------------------------------------------------------------- *)

let meth ?(name = "T.m") ?(max_locals = 4) ?(n_pref_regs = 0)
    ?(returns_value = false) code =
  let m =
    Vm.Classfile.make_method ~method_id:0 ~method_name:name ~arity:0
      ~returns_value ~max_locals ~code:(Array.of_list code)
  in
  m.Vm.Classfile.n_pref_regs <- n_pref_regs;
  m

let program_of m =
  { Vm.Classfile.classes = [||]; methods = [| m |]; statics = [||]; entry = 0 }

let checkers diags = List.map (fun (d : A.Diag.t) -> d.A.Diag.checker) diags

let expect_checker what checker diags =
  if not (List.mem checker (checkers diags)) then
    Alcotest.failf "%s: expected a %S finding, got [%s]" what checker
      (String.concat "; "
         (List.map (fun (d : A.Diag.t) -> d.A.Diag.checker) diags))

let getfield ~site =
  B.Getfield { site; offset = 8; name = "f"; is_ref = false }

let spec_safety_diags ?(n_pref_regs = 1) code =
  let m = meth ~n_pref_regs code in
  let cfg = Jit.Cfg.build m.Vm.Classfile.code in
  let idom = Jit.Dominators.compute cfg in
  A.Spec_safety.check ~cfg ~idom m

(* --- the type-state verifier --------------------------------------------- *)

let typestate code =
  let m = meth code in
  A.Typestate.check ~program:(program_of m) m

let test_typestate_structural () =
  let expect_error what code =
    match typestate code with
    | [] -> Alcotest.failf "%s: malformed body accepted" what
    | [ d ] ->
        Alcotest.(check string) "checker name" "typestate" d.A.Diag.checker
    | _ -> Alcotest.failf "%s: more than one diagnostic" what
  in
  expect_error "branch out of range" [ B.Goto 99 ];
  expect_error "falls off the end" [ B.Iconst 1; B.Pop ];
  expect_error "stack underflow" [ B.Pop; B.Return ];
  expect_error "local out of range" [ B.Iload 77; B.Pop; B.Return ];
  expect_error "inconsistent join depth"
    [
      B.Iconst 0;
      (* pc 1: branch to 4 with depth 0; fall through pushes *)
      B.If (B.Eq, 4);
      B.Iconst 1;
      B.Goto 4;
      (* pc 4: joined at depths 0 and 1 *)
      B.Iconst 2;
      B.Pop;
      B.Return;
    ]

let test_typestate_value_kinds () =
  let expect_error what code =
    match typestate code with
    | [] -> Alcotest.failf "%s: misuse accepted" what
    | _ -> ()
  in
  (* integer arithmetic on a definite reference *)
  expect_error "arith on null"
    [ B.Iconst 1; B.Aconst_null; B.Iadd; B.Pop; B.Return ];
  expect_error "arith on fresh object"
    [ B.Iconst 1; B.New 0; B.Iadd; B.Pop; B.Return ];
  (* dereference of a definite null *)
  expect_error "getfield on definite null"
    [ B.Aconst_null; getfield ~site:0; B.Pop; B.Return ];
  (* array index must be an int *)
  expect_error "ref as array index"
    [
      B.Iconst 4;
      B.Newarray B.Int_array;
      B.Aconst_null;
      B.Iaload { len_site = 0; elem_site = 1 };
      B.Pop;
      B.Return;
    ];
  (* value return in a void method *)
  (match
     A.Typestate.check
       ~program:(program_of (meth [ B.Iconst 1; B.Ireturn ]))
       (meth [ B.Iconst 1; B.Ireturn ])
   with
  | [] -> Alcotest.fail "value return in void method accepted"
  | _ -> ());
  (* null-tolerant contexts stay accepted: comparisons and null tests *)
  (match
     typestate
       [
         B.Aconst_null;
         B.Ifnull 3;
         B.Goto 3;
         B.Aconst_null;
         B.Aconst_null;
         B.If_acmpeq 6;
         B.Return;
       ]
   with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "null test rejected: %s" d.A.Diag.message)

let test_typestate_reg_use_before_def () =
  let m =
    meth ~n_pref_regs:1
      [ B.Prefetch_indirect { reg = 0; offset = 0; guarded = false }; B.Return ]
  in
  match A.Typestate.check ~program:(program_of m) m with
  | [ d ] ->
      Alcotest.(check string) "checker" "typestate" d.A.Diag.checker;
      Alcotest.(check int) "pc" 0 d.A.Diag.pc
  | _ -> Alcotest.fail "use-before-def of a prefetch register accepted"

let test_typestate_accepts_frontend_output () =
  let program = Helpers.compile Test_strideprefetch.quickstart_source in
  Array.iter
    (fun m ->
      match A.Typestate.check ~program m with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "frontend output rejected: %s"
            (A.Diag.render ~meth:m d))
    program.Vm.Classfile.methods

(* --- prefetch-safety checkers -------------------------------------------- *)

let test_spec_def_use_diamond () =
  (* both arms define p0, so every path defines it (the type-state
     verifier is happy) — but neither definition dominates the use *)
  let diags =
    spec_safety_diags
      [
        B.Iconst 1;
        B.If (B.Eq, 4);
        B.Spec_load { site = 0; distance = 8; reg = 0 };
        B.Goto 5;
        B.Spec_load { site = 0; distance = 8; reg = 0 };
        B.Prefetch_indirect { reg = 0; offset = 0; guarded = false };
        B.Return;
      ]
  in
  expect_checker "diamond defs" "spec-def-use" diags

let test_guard_dominance_bypass () =
  (* a path around the spec_load reaches the guarded dereference *)
  let diags =
    spec_safety_diags
      [
        B.Iconst 1;
        B.If (B.Eq, 3);
        B.Spec_load { site = 0; distance = 8; reg = 0 };
        B.Prefetch_indirect { reg = 0; offset = 0; guarded = true };
        B.Return;
      ]
  in
  expect_checker "guard bypass" "guard-dominance" diags

let test_splice_purity_interrupted () =
  (* a store inside the spliced sequence is a miscompile *)
  let diags =
    spec_safety_diags
      [
        B.Spec_load { site = 0; distance = 8; reg = 0 };
        B.Iconst 5;
        B.Istore 0;
        B.Prefetch_indirect { reg = 0; offset = 0; guarded = false };
        B.Return;
      ]
  in
  expect_checker "store in splice" "splice-purity" diags;
  (* the clean contiguous splice passes all three checkers *)
  let clean =
    spec_safety_diags
      [
        B.Spec_load { site = 0; distance = 8; reg = 0 };
        B.Prefetch_indirect { reg = 0; offset = 0; guarded = true };
        B.Prefetch_indirect { reg = 0; offset = 8; guarded = false };
        B.Return;
      ]
  in
  Alcotest.(check int) "clean splice" 0 (List.length clean)

(* --- lint rules ---------------------------------------------------------- *)

let test_redundant_prefetch () =
  let lint code =
    A.Lint.redundant_prefetch ~cfg:(Jit.Cfg.build (Array.of_list code))
  in
  (* duplicate with no intervening re-anchor: flagged *)
  let dup =
    lint
      [
        B.Prefetch_inter { site = 0; distance = 8 };
        B.Prefetch_inter { site = 0; distance = 8 };
        B.Return;
      ]
  in
  expect_checker "duplicate prefetch" "redundant-prefetch" dup;
  (* an anchor load in between recomputes A(site): not flagged *)
  let reanchored =
    lint
      [
        B.Prefetch_inter { site = 0; distance = 8 };
        getfield ~site:0;
        B.Prefetch_inter { site = 0; distance = 8 };
        B.Return;
      ]
  in
  Alcotest.(check int) "re-anchored" 0 (List.length reanchored);
  (* different distances are different address expressions: not flagged *)
  let different =
    lint
      [
        B.Prefetch_inter { site = 0; distance = 8 };
        B.Prefetch_inter { site = 0; distance = 16 };
        B.Return;
      ]
  in
  Alcotest.(check int) "different distances" 0 (List.length different)

let test_dead_spec_reg () =
  let dead =
    A.Lint.dead_spec_regs
      [| B.Spec_load { site = 0; distance = 8; reg = 0 }; B.Return |]
  in
  expect_checker "dead spec reg" "dead-spec-reg" dead;
  let live =
    A.Lint.dead_spec_regs
      [|
        B.Spec_load { site = 0; distance = 8; reg = 0 };
        B.Prefetch_indirect { reg = 0; offset = 0; guarded = false };
        B.Return;
      |]
  in
  Alcotest.(check int) "live spec reg" 0 (List.length live)

let direct_report ~plan_distance ~stride =
  let pattern = { SP.Stride.stride; matched = 19; samples = 19 } in
  let action =
    {
      SP.Codegen.anchor_site = 0;
      anchor_pc = 0;
      kind = SP.Codegen.Prefetch_direct { distance = plan_distance };
    }
  in
  {
    SP.Pass.method_name = "T.m";
    loop_id = 0;
    header_block = 0;
    candidate_sites = [ 0 ];
    evidence = [];
    inter_patterns = [ (0, pattern) ];
    intra_patterns = [];
    plan = { SP.Codegen.actions = [ action ]; rejected = []; regs_used = 0 };
    promoted = false;
    skipped_low_trip = false;
    iterations_observed = 20;
    inspection_steps = 100;
    predictions = [];
    inspection_skipped = false;
    inspection_shortened = false;
  }

let test_plan_consistency () =
  let code splice_distance =
    [|
      getfield ~site:0;
      B.Prefetch_inter { site = 0; distance = splice_distance };
      B.Return;
    |]
  in
  (* consistent: plan distance = stride x scheduling distance, splice
     matches the plan *)
  let ok =
    A.Lint.plan_consistency ~code:(code 16)
      ~reports:[ direct_report ~plan_distance:16 ~stride:16 ]
      ~scheduling_distance:1 ()
  in
  Alcotest.(check int) "consistent plan" 0 (List.length ok);
  (* spliced distance differs from the plan's *)
  expect_checker "splice distance" "plan-consistency"
    (A.Lint.plan_consistency ~code:(code 8)
       ~reports:[ direct_report ~plan_distance:16 ~stride:16 ]
       ~scheduling_distance:1 ());
  (* plan distance contradicts the detected stride pattern *)
  expect_checker "plan vs pattern" "plan-consistency"
    (A.Lint.plan_consistency ~code:(code 8)
       ~reports:[ direct_report ~plan_distance:8 ~stride:16 ]
       ~scheduling_distance:1 ());
  (* planned action never spliced *)
  expect_checker "missing splice" "plan-consistency"
    (A.Lint.plan_consistency
       ~code:[| getfield ~site:0; B.Return |]
       ~reports:[ direct_report ~plan_distance:16 ~stride:16 ]
       ~scheduling_distance:1 ())

let deref_report =
  let action =
    {
      SP.Codegen.anchor_site = 0;
      anchor_pc = 0;
      kind =
        SP.Codegen.Prefetch_deref
          {
            distance = 16;
            reg = 0;
            targets =
              [ { SP.Codegen.target_site = 1; offset = 8; via_intra = true } ];
          };
    }
  in
  {
    (direct_report ~plan_distance:16 ~stride:16) with
    SP.Pass.plan =
      { SP.Codegen.actions = [ action ]; rejected = []; regs_used = 1 };
  }

let test_guard_required () =
  let code guarded =
    [|
      getfield ~site:0;
      B.Spec_load { site = 0; distance = 16; reg = 0 };
      B.Prefetch_indirect { reg = 0; offset = 8; guarded };
      B.Return;
    |]
  in
  (* machine requires guarding; intra-stride target spliced unguarded *)
  expect_checker "unguarded on guarding machine" "guard-required"
    (A.Lint.plan_consistency ~code:(code false) ~reports:[ deref_report ]
       ~scheduling_distance:1 ~require_guarded:true ());
  (* guarded form where the machine calls for hardware prefetch *)
  expect_checker "guarded on hardware machine" "guard-required"
    (A.Lint.plan_consistency ~code:(code true) ~reports:[ deref_report ]
       ~scheduling_distance:1 ~require_guarded:false ());
  (* matching forms: clean both ways *)
  Alcotest.(check int) "guarded where required" 0
    (List.length
       (A.Lint.plan_consistency ~code:(code true) ~reports:[ deref_report ]
          ~scheduling_distance:1 ~require_guarded:true ()));
  Alcotest.(check int) "hardware where required" 0
    (List.length
       (A.Lint.plan_consistency ~code:(code false) ~reports:[ deref_report ]
          ~scheduling_distance:1 ~require_guarded:false ()))

(* --- the composing driver and the wiring --------------------------------- *)

let test_check_method_gates_on_typestate () =
  (* a structurally broken body yields exactly the type-state finding —
     CFG-level checkers never run on garbage *)
  let m = meth [ B.Goto 99 ] in
  match A.Check.check_method ~program:(program_of m) m with
  | [ d ] -> Alcotest.(check string) "checker" "typestate" d.A.Diag.checker
  | ds -> Alcotest.failf "expected exactly the gate finding, got %d" (List.length ds)

let quickstart_workload : Workloads.Workload.t =
  {
    Workloads.Workload.name = "quickstart";
    suite = `Specjvm;
    description = "tok-vector scan kernel (test workload)";
    paper_note = "";
    source = Test_strideprefetch.quickstart_source;
    heap_limit_bytes = 64 * 1024 * 1024;
  }

let test_transformed_workload_is_lint_clean () =
  (* end-to-end: run the quickstart kernel with prefetching on, then lint
     every method of the executed program with the full stack, plan-aware
     lints included. Sanity-check the run actually spliced something. *)
  List.iter
    (fun machine ->
      let opts = SP.Options.default in
      let r =
        Workloads.Harness.run ~mode:SP.Options.Inter_intra ~machine
          quickstart_workload
      in
      let spliced =
        Array.exists
          (fun (m : Vm.Classfile.method_info) ->
            Array.exists A.Spec_safety.is_prefetch_family m.Vm.Classfile.code)
          r.Workloads.Harness.program.Vm.Classfile.methods
      in
      Alcotest.(check bool) "prefetches were spliced" true spliced;
      Array.iter
        (fun (m : Vm.Classfile.method_info) ->
          match
            A.Check.check_method ~program:r.Workloads.Harness.program
              ~reports:r.Workloads.Harness.reports
              ~scheduling_distance:opts.SP.Options.scheduling_distance
              ~require_guarded:(SP.Options.use_guarded machine)
              m
          with
          | [] -> ()
          | d :: _ ->
              Alcotest.failf "%s not lint-clean on %s: %s"
                m.Vm.Classfile.method_name machine.Memsim.Config.name
                (A.Diag.render ~meth:m d))
        r.Workloads.Harness.program.Vm.Classfile.methods)
    Memsim.Config.machines

let test_verify_each_pass_mode () =
  let req =
    {
      (Workloads.Harness.request quickstart_workload) with
      observers =
        { Workloads.Harness.no_observers with verify_each_pass = true };
    }
  in
  (* clean run: the per-pass verifier stays silent *)
  (try ignore (Workloads.Harness.execute req)
   with Jit.Pipeline.Verification_failed { pass_name; message; _ } ->
     Alcotest.failf "clean run failed verification after %s: %s" pass_name
       message);
  (* injected miscompile: the verifier aborts compilation naming the
     offending pass *)
  match
    Workloads.Harness.execute
      { req with faults = [ Vm.Fault.Skip_guard_dominance ] }
  with
  | exception Jit.Pipeline.Verification_failed { pass_name; message; _ } ->
      Alcotest.(check string) "offending pass" "stride-prefetch" pass_name;
      Alcotest.(check bool) "pc-level diagnostic" true
        (Helpers.contains message "pc ")
  | _ -> Alcotest.fail "injected miscompile survived verify-each-pass"

let lint_cells =
  (* baseline + one prefetching cell: enough for the lint oracle, cheap
     enough for the unit suite *)
  [
    {
      Fuzz.Oracle.mode = SP.Options.Off;
      standard_passes = true;
      machine = Memsim.Config.pentium4;
    };
    {
      Fuzz.Oracle.mode = SP.Options.Inter_intra;
      standard_passes = true;
      machine = Memsim.Config.pentium4;
    };
  ]

let test_oracle_lint_cell_catches_injection () =
  (* without the fault the program passes the full oracle... *)
  (match
     Fuzz.Oracle.check ~cells:lint_cells
       ~source:Test_strideprefetch.quickstart_source
       ~heap_limit_bytes:(64 * 1024 * 1024) ()
   with
  | Fuzz.Oracle.Pass _ -> ()
  | Fuzz.Oracle.Fail f ->
      Alcotest.failf "clean program failed the oracle: %s"
        (Fuzz.Oracle.describe f));
  (* ... with it, the lint cell (and only a static check — the program's
     behaviour is unchanged) reports the miscompile *)
  match
    Fuzz.Oracle.check ~cells:lint_cells
      ~faults:[ Vm.Fault.Skip_guard_dominance ]
      ~source:Test_strideprefetch.quickstart_source
      ~heap_limit_bytes:(64 * 1024 * 1024) ()
  with
  | Fuzz.Oracle.Fail (Fuzz.Oracle.Lint_violation { meth; message; _ }) ->
      Alcotest.(check bool) "names the kernel" true
        (Helpers.contains meth "Kernel");
      Alcotest.(check bool) "pc-level diagnostic" true
        (Helpers.contains message "pc ")
  | Fuzz.Oracle.Fail f ->
      Alcotest.failf "wrong failure class: %s" (Fuzz.Oracle.describe f)
  | Fuzz.Oracle.Pass _ ->
      Alcotest.fail "injected guard-dominance miscompile went undetected"

let test_fuzz_sample_is_lint_clean () =
  (* a small deterministic corpus through the full oracle (the lint cell
     runs inside it); seed 2026 matches the @lint lane *)
  for index = 0 to 4 do
    let _, verdict =
      Fuzz.Driver.check_seed ~cells:lint_cells ~seed:(2026 + index)
        ~max_size:6 ()
    in
    match verdict with
    | Fuzz.Oracle.Pass _ -> ()
    | Fuzz.Oracle.Fail f ->
        Alcotest.failf "seed %d not lint-clean: %s" (2026 + index)
          (Fuzz.Oracle.describe f)
  done

(* --- the address-algebra prediction tier --------------------------------- *)

let test_addralg_value_lattice () =
  let module V = A.Addralg.Value in
  let i = V.sym 1 in
  Alcotest.(check bool) "join is idempotent" true (V.equal (V.join i i) i);
  Alcotest.(check bool) "different multiples lose affinity" true
    (V.is_top (V.join (V.scale 2 i) (V.scale 3 i)));
  Alcotest.(check bool) "top absorbs on the right" true
    (V.is_top (V.join i V.top));
  Alcotest.(check bool) "top absorbs on the left" true
    (V.is_top (V.join V.top i));
  Alcotest.(check bool) "different constants lose affinity" true
    (V.is_top (V.join (V.const 1) (V.const 2)));
  Alcotest.(check bool) "difference cancels the symbol" true
    (V.equal (V.sub (V.add i (V.const 4)) i) (V.const 4));
  Alcotest.(check bool) "scaling distributes over addition" true
    (V.equal
       (V.scale 4 (V.add i (V.const 3)))
       (V.add (V.scale 4 i) (V.const 12)));
  (* join monotonicity on the height-2 chain: the join of any two values
     is an upper bound of both — it equals each operand or is top *)
  let samples =
    [ V.top; V.const 0; V.const 7; i; V.sym 2; V.add i (V.const 8);
      V.scale 4 i ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let j = V.join a b in
          let above x = V.is_top j || V.equal j x in
          Alcotest.(check bool) "join bounds both operands" true
            (above a && above b))
        samples)
    samples

(* Nested counted loops over the same array: arr[i] in the outer body,
   arr[j] in the inner loop (its induction variable is inner-loop-carried,
   reset every outer iteration). *)
let nested_loops_meth () =
  meth
    [
      B.Iconst 0;
      B.Istore 1 (* i = 0 *);
      (* outer header (pc 2) *)
      B.Iload 1;
      B.Iconst 100;
      B.If_icmp (B.Ge, 28) (* exit *);
      B.Aload 0;
      B.Iload 1;
      B.Iaload { len_site = 0; elem_site = 1 } (* arr[i] *);
      B.Pop;
      B.Iconst 0;
      B.Istore 2 (* j = 0 *);
      (* inner header (pc 11) *)
      B.Iload 2;
      B.Iconst 10;
      B.If_icmp (B.Ge, 23);
      B.Aload 0;
      B.Iload 2;
      B.Iaload { len_site = 2; elem_site = 3 } (* arr[j] *);
      B.Pop;
      B.Iload 2;
      B.Iconst 1;
      B.Iadd;
      B.Istore 2;
      B.Goto 11 (* inner back edge *);
      (* inner exit (pc 23) *)
      B.Iload 1;
      B.Iconst 1;
      B.Iadd;
      B.Istore 1;
      B.Goto 2 (* outer back edge *);
      B.Return;
    ]

let loops_of m =
  let cfg = Jit.Cfg.build m.Vm.Classfile.code in
  let forest = Jit.Loops.analyze cfg in
  (cfg, Jit.Loops.postorder forest)

let find_prediction what (t : SP.Predict.t) site =
  match SP.Predict.find t site with
  | Some p -> p
  | None -> Alcotest.failf "%s: no prediction for site %d" what site

let test_addralg_nested_loops () =
  let m = nested_loops_meth () in
  let cfg, loops = loops_of m in
  let inner, outer =
    match loops with
    | [ a; b ] -> (a, b) (* postorder: children first *)
    | l -> Alcotest.failf "expected 2 loops, found %d" (List.length l)
  in
  Alcotest.(check bool) "inner has a parent" true (inner.Jit.Loops.parent <> None);
  Alcotest.(check bool) "outer is outermost" true (outer.Jit.Loops.parent = None);
  let predict loop candidates =
    A.Addralg.predict ~program:(program_of m) ~meth:m ~cfg ~loop ~candidates
  in
  (* outer target: arr[i] is affine with i stepping 1 -> stride 4, and its
     block dominates the back edge -> Certain; arr[j] is carried by the
     inner loop, whose back-edge join destroys affinity -> Unknown *)
  let t = predict outer [ 1; 3 ] in
  let p1 = find_prediction "outer arr[i]" t 1 in
  Alcotest.(check bool) "arr[i] certain" true
    (p1.SP.Predict.verdict = SP.Predict.Certain);
  Alcotest.(check (option int)) "arr[i] stride 4" (Some 4) p1.SP.Predict.stride;
  let p3 = find_prediction "outer arr[j]" t 3 in
  Alcotest.(check bool) "arr[j] unknown from the outer loop" true
    (p3.SP.Predict.verdict = SP.Predict.Unknown);
  (* inner target: j is this loop's own induction variable -> Certain *)
  let ti = predict inner [ 3 ] in
  let q3 = find_prediction "inner arr[j]" ti 3 in
  Alcotest.(check bool) "arr[j] certain in its own loop" true
    (q3.SP.Predict.verdict = SP.Predict.Certain);
  Alcotest.(check (option int)) "arr[j] stride 4" (Some 4)
    q3.SP.Predict.stride;
  (* the hybrid depth rule on these loops: an all-Certain inner loop is
     probed (its small-trip promotion must still be observed), never
     skipped outright; an Unknown candidate forces a full inspection *)
  let hybrid = { SP.Options.default with SP.Options.prediction = SP.Options.Hybrid } in
  (match SP.Predict.depth_of ~opts:hybrid ti ~loop:inner ~candidates:[ 3 ] with
  | SP.Predict.Probed n ->
      Alcotest.(check int) "probe budget is the small-trip floor"
        (min hybrid.SP.Options.inspect_iterations
           hybrid.SP.Options.small_trip_count)
        n
  | _ -> Alcotest.fail "all-certain inner loop should be probed");
  (match SP.Predict.depth_of ~opts:hybrid t ~loop:outer ~candidates:[ 1; 3 ] with
  | SP.Predict.Full -> ()
  | _ -> Alcotest.fail "unknown candidate should force full inspection");
  match SP.Predict.depth_of ~opts:hybrid t ~loop:outer ~candidates:[ 1 ] with
  | SP.Predict.Skipped -> ()
  | _ -> Alcotest.fail "all-certain outermost loop should be skipped"

(* A diamond that assigns the index local different affine values on its
   two arms: the join must lose affinity, not invent a stride. *)
let test_addralg_diamond_loses_affinity () =
  let m =
    meth
      [
        B.Iconst 0;
        B.Istore 1 (* i = 0 *);
        (* header (pc 2) *)
        B.Iload 1;
        B.Iconst 100;
        B.If_icmp (B.Ge, 22);
        B.Iload 2;
        B.If (B.Eq, 9);
        B.Iload 1;
        B.Goto 12 (* then arm: p = i *);
        B.Iload 1;
        B.Iconst 8;
        B.Iadd (* else arm: p = i + 8 *);
        B.Istore 2 (* join (pc 12): p *);
        B.Aload 0;
        B.Iload 2;
        B.Iaload { len_site = 0; elem_site = 1 } (* arr[p] *);
        B.Pop;
        B.Iload 1;
        B.Iconst 1;
        B.Iadd;
        B.Istore 1;
        B.Goto 2;
        B.Return;
      ]
  in
  let cfg, loops = loops_of m in
  let loop = List.hd loops in
  let t =
    A.Addralg.predict ~program:(program_of m) ~meth:m ~cfg ~loop
      ~candidates:[ 1 ]
  in
  let p = find_prediction "diamond arr[p]" t 1 in
  Alcotest.(check bool) "joined index is not affine" true
    (p.SP.Predict.verdict = SP.Predict.Unknown);
  Alcotest.(check (option int)) "no stride claimed" None p.SP.Predict.stride

(* An irreducible cycle inside a natural loop: the body branches into the
   middle of a two-block cycle, so the cycle has two entries and no
   natural header. The fixpoint must still terminate, claim the regular
   outer site, and refuse the cycle-carried one. *)
let test_addralg_irreducible_entry () =
  let m =
    meth
      [
        B.Iconst 0;
        B.Istore 1 (* i = 0 *);
        (* outer header (pc 2) *)
        B.Iload 1;
        B.Iconst 50;
        B.If_icmp (B.Ge, 27);
        B.Aload 0;
        B.Iload 1;
        B.Iaload { len_site = 0; elem_site = 1 } (* arr[i] *);
        B.Pop;
        B.Iload 2;
        B.If (B.Eq, 15) (* entry into the middle of the cycle *);
        (* cycle block B (pc 11) *)
        B.Iload 3;
        B.Iconst 1;
        B.Iadd;
        B.Istore 3;
        (* cycle block C (pc 15) — second entry *)
        B.Aload 0;
        B.Iload 3;
        B.Iaload { len_site = 2; elem_site = 3 } (* arr[t] *);
        B.Pop;
        B.Iload 3;
        B.Iconst 10;
        B.If_icmp (B.Lt, 11) (* retreating edge, not a natural back edge *);
        B.Iload 1;
        B.Iconst 1;
        B.Iadd;
        B.Istore 1;
        B.Goto 2 (* outer back edge *);
        B.Return;
      ]
  in
  let cfg, loops = loops_of m in
  (* the irreducible cycle is not a natural loop: only the outer counted
     loop is recognized *)
  (match loops with
  | [ l ] -> Alcotest.(check bool) "outermost" true (l.Jit.Loops.parent = None)
  | l -> Alcotest.failf "expected 1 natural loop, found %d" (List.length l));
  let loop = List.hd loops in
  (* termination is the point: the retreating edge iterates inside the
     fixpoint and must converge on the height-2 domain *)
  let t =
    A.Addralg.predict ~program:(program_of m) ~meth:m ~cfg ~loop
      ~candidates:[ 1; 3 ]
  in
  let p1 = find_prediction "regular site" t 1 in
  Alcotest.(check (option int)) "arr[i] still claimed" (Some 4)
    p1.SP.Predict.stride;
  let p3 = find_prediction "cycle-carried site" t 3 in
  Alcotest.(check bool) "cycle-carried index refused" true
    (p3.SP.Predict.verdict = SP.Predict.Unknown)

(* --- the degenerate-plan lint -------------------------------------------- *)

let test_degenerate_plan_lint () =
  let code = [| B.Aload 0; getfield ~site:0; B.Pop; B.Return |] in
  let warnings reports threshold =
    A.Lint.degenerate_plans ~code ~reports ?inter_stride_threshold:threshold ()
  in
  (* zero prefetch distance re-fetches the anchor's own address *)
  let zero = warnings [ direct_report ~plan_distance:0 ~stride:16 ] None in
  expect_checker "zero distance" "degenerate-plan" zero;
  List.iter
    (fun (d : A.Diag.t) ->
      Alcotest.(check bool) "warning, not error" true
        (d.A.Diag.severity = A.Diag.Warning))
    zero;
  (* negative distance against a positive detected stride *)
  expect_checker "negative distance" "degenerate-plan"
    (warnings [ direct_report ~plan_distance:(-16) ~stride:16 ] None);
  (* ...but a genuine descending walk is fine *)
  Alcotest.(check int) "descending walk accepted" 0
    (List.length
       (warnings [ direct_report ~plan_distance:(-16) ~stride:(-16) ] None));
  (* an inter stride at or below the profitability threshold must not
     have survived into a direct-prefetch plan *)
  expect_checker "stride under threshold" "degenerate-plan"
    (warnings [ direct_report ~plan_distance:16 ~stride:16 ] (Some 16));
  (* clean plan: sensible distance, stride above the threshold *)
  Alcotest.(check int) "clean plan" 0
    (List.length (warnings [ direct_report ~plan_distance:16 ~stride:16 ] (Some 8)));
  (* the composing driver threads the threshold through *)
  let m = meth [ B.Aload 0; getfield ~site:0; B.Pop; B.Return ] in
  expect_checker "via check_method" "degenerate-plan"
    (A.Check.check_method ~program:(program_of m)
       ~reports:[ direct_report ~plan_distance:16 ~stride:16 ]
       ~scheduling_distance:1 ~inter_stride_threshold:16 m)

(* --- the prediction-desync fuzz axis ------------------------------------- *)

let test_prediction_desync_injection () =
  (* the injected miscompile is visible in program output, but only on
     rewriting non-inspect tiers — every cell of the ordinary matrix runs
     at the inspect tier, so only the prediction crosscheck can see it *)
  let _, verdict =
    Fuzz.Driver.check_seed
      ~faults:[ Vm.Fault.Prediction_desync ]
      ~seed:1 ~max_size:8 ()
  in
  match verdict with
  | Fuzz.Oracle.Fail (Fuzz.Oracle.Prediction_divergence { tier; _ }) ->
      Alcotest.(check bool) "names a non-inspect tier" true
        (tier = "static" || tier = "hybrid")
  | Fuzz.Oracle.Fail f ->
      Alcotest.failf "wrong failure class: %s" (Fuzz.Oracle.describe f)
  | Fuzz.Oracle.Pass _ ->
      Alcotest.fail "prediction desync went undetected"

let suite =
  [
    ("typestate: structural errors", `Quick, test_typestate_structural);
    ("typestate: value-kind errors", `Quick, test_typestate_value_kinds);
    ( "typestate: reg use-before-def",
      `Quick,
      test_typestate_reg_use_before_def );
    ( "typestate: accepts frontend output",
      `Quick,
      test_typestate_accepts_frontend_output );
    ("spec-safety: def-use diamond", `Quick, test_spec_def_use_diamond);
    ("spec-safety: guard bypass", `Quick, test_guard_dominance_bypass);
    ("spec-safety: splice purity", `Quick, test_splice_purity_interrupted);
    ("lint: redundant prefetch", `Quick, test_redundant_prefetch);
    ("lint: dead spec reg", `Quick, test_dead_spec_reg);
    ("lint: plan consistency", `Quick, test_plan_consistency);
    ("lint: guard required", `Quick, test_guard_required);
    ("lint: degenerate plans", `Quick, test_degenerate_plan_lint);
    ("addralg: value lattice", `Quick, test_addralg_value_lattice);
    ("addralg: nested loops", `Quick, test_addralg_nested_loops);
    ( "addralg: diamond loses affinity",
      `Quick,
      test_addralg_diamond_loses_affinity );
    ("addralg: irreducible entry", `Quick, test_addralg_irreducible_entry);
    ( "wiring: prediction desync caught by the crosscheck",
      `Slow,
      test_prediction_desync_injection );
    ( "check: typestate gates the stack",
      `Quick,
      test_check_method_gates_on_typestate );
    ( "wiring: transformed workload lint-clean",
      `Quick,
      test_transformed_workload_is_lint_clean );
    ("wiring: verify-each-pass mode", `Quick, test_verify_each_pass_mode);
    ( "wiring: oracle lint cell catches injection",
      `Slow,
      test_oracle_lint_cell_catches_injection );
    ("wiring: fuzz sample lint-clean", `Slow, test_fuzz_sample_is_lint_clean);
  ]
