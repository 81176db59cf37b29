(** Use-def analysis over the operand stack and locals.

    A forward dataflow analysis that mirrors each instruction's stack
    effect abstractly, tracking where every value came from. Its product is
    one {!load_info} per load site describing (a) which earlier load (if
    any) produced the {e base reference} the site loads through — the edge
    relation of the load dependence graph ("L2 is directly data dependent
    upon L1 [when] L2 loads data using the value loaded by L1",
    Section 3.1) — and (b) enough shape information to build the address
    map [F[Lx,Ly]] used by dereference-based prefetching. *)

type source =
  | Unknown
  | Const of int
  | Param of int  (** the initial value of parameter local [i] *)
  | Load of int  (** the value produced by load site [i] *)
  | Alloc  (** a reference freshly allocated in this method *)

val join : source -> source -> source

type load_kind =
  | Field of { offset : int; name : string }
  | Static of { index : int; name : string }
  | Array_length
  | Array_elem

type load_info = {
  site : int;
  pc : int;
  kind : load_kind;
  base : source;  (** producer of the base reference, joined over paths *)
  index : source;  (** for [Array_elem]: producer of the index *)
  yields_ref : bool;  (** can this load's result be a reference? *)
}

val analyze :
  Vm.Bytecode.instr array ->
  arity:int ->
  callee_arity:(int -> int) ->
  callee_returns:(int -> bool) ->
  load_info array
(** One entry per load site (indexed by site id). Sites never reached by
    the dataflow (dead code) get [base = Unknown]. Raises [Invalid_argument]
    on operand stacks of different depths meeting at a join, which the
    frontend never produces. *)

val address_offset_of : load_info -> int option
(** For a site whose address is [base_object_address + constant], that
    constant: field offset, array-length offset, or element offset when
    the index is a compile-time constant. [None] when the address is not
    an affine function of the base with a known constant. This is the
    [F[Lx,Ly]] map of Section 3.3 ("typically, the function simply adds a
    constant offset to the input address"). *)
