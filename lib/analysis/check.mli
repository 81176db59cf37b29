(** The composing driver: every checker over one method body.

    Order of battle: the {!Typestate} verifier gates everything — a body
    that fails it is returned with that single diagnostic and nothing
    else (later analyses would be meaningless). Otherwise the CFG and
    dominator tree are built once and shared by {!Spec_safety} and the
    bytecode {!Lint}s; plan-aware lints run only when loop reports and
    the scheduling distance are supplied. Findings come back sorted by
    pc. *)

val check_method :
  program:Vm.Classfile.program ->
  ?reports:Strideprefetch.Pass.loop_report list ->
  ?scheduling_distance:int ->
  ?require_guarded:bool ->
  ?inter_stride_threshold:int ->
  Vm.Classfile.method_info ->
  Diag.t list
(** All findings for one method. [reports] may cover the whole program;
    only those whose [method_name] matches are used. [require_guarded]
    is the machine's {!Strideprefetch.Options.use_guarded};
    [inter_stride_threshold] the resolved
    {!Strideprefetch.Options.resolved_inter_stride_threshold}, enabling
    the threshold clause of {!Lint.degenerate_plans}. *)

val verify :
  program:Vm.Classfile.program ->
  ?reports:Strideprefetch.Pass.loop_report list ->
  ?scheduling_distance:int ->
  ?require_guarded:bool ->
  ?inter_stride_threshold:int ->
  Vm.Classfile.method_info ->
  (unit, string) result
(** [Ok ()] when {!check_method} reports no {e errors} (warnings pass);
    otherwise the first error, rendered with method and instruction
    context. *)
