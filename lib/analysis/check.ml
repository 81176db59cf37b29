(* The composing driver: run every checker over one method body, in an
   order that lets later checkers assume what earlier ones established.

   The type-state verifier runs first and is a gate — a body that is not
   even well-formed makes CFG-level analyses meaningless, so its (single)
   diagnostic is returned alone. Then the CFG and dominator tree are
   built once and shared by the prefetch-safety checkers and the
   bytecode lints; plan-aware lints run only when the caller supplies
   the pass's loop reports. *)

let reports_for (m : Vm.Classfile.method_info)
    (reports : Strideprefetch.Pass.loop_report list) =
  List.filter
    (fun (r : Strideprefetch.Pass.loop_report) ->
      r.method_name = m.method_name)
    reports

let check_method ~(program : Vm.Classfile.program)
    ?(reports = []) ?scheduling_distance ?require_guarded
    ?inter_stride_threshold (m : Vm.Classfile.method_info) =
  match Typestate.check ~program m with
  | _ :: _ as fatal -> fatal
  | [] ->
      let cfg = Jit.Cfg.build m.code in
      let idom = Jit.Dominators.compute cfg in
      let safety = Spec_safety.check ~cfg ~idom m in
      let lints = Lint.bytecode_lints ~cfg m in
      let plan =
        match (reports_for m reports, scheduling_distance) with
        | [], _ | _, None -> []
        | mine, Some scheduling_distance ->
            Lint.plan_consistency ~code:m.code ~reports:mine
              ~scheduling_distance ?require_guarded ()
            @ Lint.degenerate_plans ~code:m.code ~reports:mine
                ?inter_stride_threshold ()
      in
      List.stable_sort Diag.compare_by_pc (safety @ lints @ plan)

let errors_only diags = List.filter Diag.is_error diags

let verify ~program ?reports ?scheduling_distance ?require_guarded
    ?inter_stride_threshold (m : Vm.Classfile.method_info) =
  match
    errors_only
      (check_method ~program ?reports ?scheduling_distance ?require_guarded
         ?inter_stride_threshold m)
  with
  | [] -> Ok ()
  | d :: _ -> Error (Diag.render ~meth:m d)
