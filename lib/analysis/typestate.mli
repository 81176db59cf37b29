(** The type-state verifier.

    An abstract interpretation of one method body over {!Lattice.Avalue},
    tracking [Int]/[Ref]/[Null]/prefetch-register abstract values through
    the operand stack and the locals at every pc. It checks structural
    well-formedness (branch targets, local/site/register ranges,
    consistent stack depth at joins, no falling off the end, stack
    under/overflow) {e plus} value-kind
    tracking — integer arithmetic on a reference, dereference of a
    definite null, array indexing with a reference, a value return in a
    void method, and a prefetch register dereferenced on a path where no
    [spec_load] defined it are all definite errors.

    Conservative by construction: parameters and mixed joins are [Top]
    and [Top] is accepted everywhere, so the verifier never rejects code
    the interpreter would run. Stops at the first error (a malformed body
    makes later states meaningless). *)

val checker : string
(** ["typestate"], the checker name carried by its diagnostics. *)

val check :
  program:Vm.Classfile.program -> Vm.Classfile.method_info -> Diag.t list
(** Empty list = the method verifies; otherwise a single first-error
    diagnostic. [program] resolves the stack effect of [invoke]. *)
