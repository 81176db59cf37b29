(** An activation record: locals, operand stack, and the per-site address
    registers that anchor prefetch code.

    [site_addr.(s)] holds the last effective address computed by load site
    [s] in this activation (-1 before its first execution); the spliced
    [Prefetch_inter]/[Spec_load] instructions read it as [A(L)], "the
    memory address of data loaded by L in the current iteration"
    (Section 3.3). [pref_regs] are the destinations of [Spec_load]. *)

type t = {
  method_info : Classfile.method_info;
  locals : Value.t array;
  stack : Value.t array;
  mutable sp : int;
  site_addr : int array;
  site_prev : int array;
      (** the address before [site_addr], for dynamic-stride prefetching *)
  pref_regs : Value.t array;
  mutable pc : int;
}

exception Stack_error of string

let max_stack = 256

(* Int-specialized [max]: [Stdlib.max] is polymorphic and goes through
   the generic comparison C call — measurable in [reusable], which runs
   on every method invocation. *)
let[@inline] imax (a : int) b = if a > b then a else b

let create (m : Classfile.method_info) ~args =
  if Array.length args <> m.arity then
    invalid_arg
      (Printf.sprintf "frame: %s expects %d arguments, got %d" m.method_name
         m.arity (Array.length args));
  let locals = Array.make (imax m.max_locals m.arity) Value.Null in
  Array.blit args 0 locals 0 (Array.length args);
  {
    method_info = m;
    locals;
    stack = Array.make max_stack Value.Null;
    sp = 0;
    site_addr = Array.make (imax m.n_sites 1) (-1);
    site_prev = Array.make (imax m.n_sites 1) (-1);
    pref_regs = Array.make (imax m.n_pref_regs 1) Value.Null;
    pc = 0;
  }

(* A pooled frame can be reused for a new activation of its method when
   its arrays are still the right shape — the JIT may swap a method's body
   (growing [max_locals] or the site count), in which case the caller must
   discard the pooled frame and build a fresh one. *)
let reusable t (m : Classfile.method_info) =
  t.method_info == m
  && Array.length t.locals = imax m.max_locals m.arity
  && Array.length t.site_addr = imax m.n_sites 1
  && Array.length t.pref_regs = imax m.n_pref_regs 1

let reset t ~args =
  let m = t.method_info in
  if Array.length args <> m.arity then
    invalid_arg
      (Printf.sprintf "frame: %s expects %d arguments, got %d" m.method_name
         m.arity (Array.length args));
  (* Equivalent to fill-then-blit, skipping the slots the args overwrite. *)
  let n_args = Array.length args in
  Array.blit args 0 t.locals 0 n_args;
  Array.fill t.locals n_args (Array.length t.locals - n_args) Value.Null;
  t.sp <- 0;
  Array.fill t.site_addr 0 (Array.length t.site_addr) (-1);
  Array.fill t.site_prev 0 (Array.length t.site_prev) (-1);
  Array.fill t.pref_regs 0 (Array.length t.pref_regs) Value.Null;
  t.pc <- 0

let[@inline] record_site t ~site ~addr =
  t.site_prev.(site) <- t.site_addr.(site);
  t.site_addr.(site) <- addr

let iter_roots t f =
  Array.iter f t.locals;
  for i = 0 to t.sp - 1 do
    f t.stack.(i)
  done;
  Array.iter f t.pref_regs
