(** An activation record: locals, operand stack, and the per-site address
    registers that anchor prefetch code.

    [locals] and [stack] are {!Value.slots}: each value an unboxed
    (payload, tag) pair. The operand stack starts at [initial_stack]
    slots and doubles on demand up to [max_stack].

    [site_addr.(s)] holds the last effective address computed by load site
    [s] in this activation (-1 before its first execution); the spliced
    [Prefetch_inter]/[Spec_load] instructions read it as [A(L)], "the
    memory address of data loaded by L in the current iteration"
    (Section 3.3). [pref_regs] are the destinations of [Spec_load]: a
    reference's object id, or -1. *)

type t = {
  method_info : Classfile.method_info;
  locals : Value.slots;
  mutable stack : Value.slots;
  mutable sp : int;
  site_addr : int array;
  site_prev : int array;
      (** the address before [site_addr], for dynamic-stride prefetching *)
  pref_regs : int array;
  mutable pc : int;
}

exception Stack_error of string

let max_stack = 256
let initial_stack = 16

(* Int-specialized [max]: [Stdlib.max] is polymorphic and goes through
   the generic comparison C call — measurable in [reusable], which runs
   on every method invocation. *)
let[@inline] imax (a : int) b = if a > b then a else b

let check_arity (m : Classfile.method_info) args =
  if Value.length args <> m.arity then
    invalid_arg
      (Printf.sprintf "frame: %s expects %d arguments, got %d" m.method_name
         m.arity (Value.length args))

let create (m : Classfile.method_info) ~args =
  check_arity m args;
  let locals = Value.make (imax m.max_locals m.arity) in
  Array.blit args 0 locals 0 (Array.length args);
  {
    method_info = m;
    locals;
    stack = Value.make initial_stack;
    sp = 0;
    site_addr = Array.make (imax m.n_sites 1) (-1);
    site_prev = Array.make (imax m.n_sites 1) (-1);
    pref_regs = Array.make (imax m.n_pref_regs 1) (-1);
    pc = 0;
  }

(* A pooled frame can be reused for a new activation of its method when
   its arrays are still the right shape — the JIT may swap a method's body
   (growing [max_locals] or the site count), in which case the caller must
   discard the pooled frame and build a fresh one. *)
let reusable t (m : Classfile.method_info) =
  t.method_info == m
  && Value.length t.locals = imax m.max_locals m.arity
  && Array.length t.site_addr = imax m.n_sites 1
  && Array.length t.pref_regs = imax m.n_pref_regs 1

let reset t ~args =
  check_arity t.method_info args;
  (* Equivalent to fill-then-blit, skipping the slots the args overwrite.
     The stack keeps its grown capacity; its dead slots hold no pointer. *)
  Array.blit args 0 t.locals 0 (Array.length args);
  Value.fill_null t.locals ~from:(Value.length args);
  t.sp <- 0;
  Array.fill t.site_addr 0 (Array.length t.site_addr) (-1);
  Array.fill t.site_prev 0 (Array.length t.site_prev) (-1);
  Array.fill t.pref_regs 0 (Array.length t.pref_regs) (-1);
  t.pc <- 0

(* The slow path of [reserve]: raise the overflow error exactly when the
   logical depth would pass [max_stack], grow the array otherwise. *)
let[@inline never] grow t need =
  if need > max_stack then
    raise
      (Stack_error ("operand stack overflow in " ^ t.method_info.method_name));
  let cap = ref (Value.length t.stack) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let bigger = Value.make (if !cap < max_stack then !cap else max_stack) in
  Array.blit t.stack 0 bigger 0 (Array.length t.stack);
  t.stack <- bigger

let[@inline] reserve t need = if need > Value.length t.stack then grow t need

let[@inline] record_site t ~site ~addr =
  t.site_prev.(site) <- t.site_addr.(site);
  t.site_addr.(site) <- addr

let iter_roots t f =
  Value.iter_refs t.locals (Value.length t.locals) f;
  Value.iter_refs t.stack t.sp f;
  Array.iter (fun id -> if id >= 0 then f id) t.pref_regs
