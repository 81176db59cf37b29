(** An activation record: locals, operand stack, and the per-site address
    registers that anchor prefetch code.

    [locals] and [stack] are {!Value.slots}, each value an unboxed
    (payload, tag) pair; the live part of [stack] is its first [sp]
    slots. The stack array starts small and grows on demand
    ({!reserve}), so a deep recursion does not pay [max_stack] slots per
    level.

    [site_addr.(s)] holds the last effective address computed by load site
    [s] in this activation (-1 before its first execution); the spliced
    [Prefetch_inter]/[Spec_load] instructions read it as [A(L)], "the
    memory address of data loaded by L in the current iteration"
    (Section 3.3). [site_prev] holds the address before that, for
    dynamic-stride (phased) prefetching. [pref_regs] are the destinations
    of [Spec_load]: the object id of the reference loaded, or -1. *)

type t = {
  method_info : Classfile.method_info;
  locals : Value.slots;
  mutable stack : Value.slots;
  mutable sp : int;
  site_addr : int array;
  site_prev : int array;
  pref_regs : int array;
  mutable pc : int;
}

exception Stack_error of string

val max_stack : int
(** The operand stack's logical depth limit: 256 slots. *)

val create : Classfile.method_info -> args:Value.slots -> t
(** Raises [Invalid_argument] when the argument count does not match the
    method's arity. *)

val reusable : t -> Classfile.method_info -> bool
(** Whether a pooled frame still matches the method's current shape — the
    JIT may swap a method's body and grow its locals/site counts, after
    which old frames must not be recycled. *)

val reset : t -> args:Value.slots -> unit
(** Reinitialize a (reusable) frame to the state {!create} would produce:
    locals nulled then seeded with [args], empty stack, all site address
    registers -1, prefetch registers -1, pc 0. Raises [Invalid_argument]
    on an argument-count mismatch, like {!create}. *)

val reserve : t -> int -> unit
(** [reserve t need] makes the stack array hold [need] slots: it raises
    [Stack_error "operand stack overflow in <method>"] when [need]
    exceeds {!max_stack}, and otherwise grows the array (doubling) when
    it is smaller. Every stack write at an index below [need] is then in
    bounds. *)

val record_site : t -> site:int -> addr:int -> unit
(** Load site [site] just computed [addr]: [site_addr.(site)] takes it
    and the address it held moves to [site_prev.(site)]. *)

val iter_roots : t -> (int -> unit) -> unit
(** Visit the object id of every reference the collector must treat as
    live: in the locals, the live part of the operand stack, and the
    speculative prefetch registers. *)
