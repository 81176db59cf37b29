(** An activation record: locals, operand stack, and the per-site address
    registers that anchor prefetch code.

    [site_addr.(s)] holds the last effective address computed by load site
    [s] in this activation (-1 before its first execution); the spliced
    [Prefetch_inter]/[Spec_load] instructions read it as [A(L)], "the
    memory address of data loaded by L in the current iteration"
    (Section 3.3). [site_prev] holds the address before that, for
    dynamic-stride (phased) prefetching. [pref_regs] are the destinations
    of [Spec_load]. *)

type t = {
  method_info : Classfile.method_info;
  locals : Value.t array;
  stack : Value.t array;
  mutable sp : int;
  site_addr : int array;
  site_prev : int array;
  pref_regs : Value.t array;
  mutable pc : int;
}

exception Stack_error of string

val max_stack : int

val create : Classfile.method_info -> args:Value.t array -> t
(** Raises [Invalid_argument] when the argument count does not match the
    method's arity. *)

val reusable : t -> Classfile.method_info -> bool
(** Whether a pooled frame still matches the method's current shape — the
    JIT may swap a method's body and grow its locals/site counts, after
    which old frames must not be recycled. *)

val reset : t -> args:Value.t array -> unit
(** Reinitialize a (reusable) frame to the state {!create} would produce:
    locals zeroed then seeded with [args], empty stack, all site address
    registers -1, prefetch registers null, pc 0. Raises [Invalid_argument]
    on an argument-count mismatch, like {!create}. *)

val iter_roots : t -> (Value.t -> unit) -> unit
(** Visit every value the collector must treat as live: locals, the live
    part of the operand stack, and the speculative prefetch registers. *)
