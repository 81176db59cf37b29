(** Prefetch-safety checkers for spec-load splices (Section 3.3).

    Three named checkers over one method body:

    - ["spec-def-use"]: every dereference ([prefetch_indirect]) of a
      prefetch register is dominated by a [spec_load] defining it
      (def-before-use via {!Jit.Dominators});
    - ["guard-dominance"]: a {e guarded} dereference must be protected by
      its guard on every path — no execution may reach it bypassing the
      [spec_load], and every reaching definition must dominate it;
    - ["splice-purity"]: a register dereference must sit in the contiguous
      run of prefetch pseudo-instructions following its [spec_load] — a
      store, call or branch inside a spliced sequence is a miscompile. *)

val is_prefetch_family : Vm.Bytecode.instr -> bool

val check :
  cfg:Jit.Cfg.t -> idom:int array -> Vm.Classfile.method_info -> Diag.t list
(** All findings of the three checkers, in pc order of discovery. [cfg]
    and [idom] must describe the method's current [code]. *)
