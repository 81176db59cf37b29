(** Prefetch code generation (Section 3.3).

    Given a loop's load dependence graph annotated with inter- and
    intra-iteration stride patterns, decide the prefetching actions and
    splice the corresponding pseudo-instruction sequences into the method
    body, immediately after each anchor load:

    - [prefetch (A(Lx) + d*c)] when every load dependent on [Lx] has its
      own inter-iteration pattern (or none depend on it);
    - [a = spec_load (A(Lx) + d*c); prefetch (F[Lx,Ly](a)); prefetch
      (F[Lx,Ly](a) + S[Ly,Lz]); ...] when a dependent [Ly] has no
      inter-iteration pattern — dereference-based prefetching plus
      intra-iteration stride prefetching for every [Lz] intra-strided with
      [Ly] directly or transitively.

    Profitability filtering ({!Profitability}) is applied throughout. *)

type deref_target = {
  target_site : int;  (** the load whose future data is prefetched *)
  offset : int;  (** relative to the spec_load result *)
  via_intra : bool;  (** reached through an intra-iteration pattern *)
}

type action_kind =
  | Prefetch_direct of { distance : int }
  | Prefetch_deref of {
      distance : int;
      reg : int;
      targets : deref_target list;
    }
  | Prefetch_phased of { times : int; phases : Stride.pattern list }
      (** dynamic-stride prefetch for Wu-style phased multiple-stride
          loads; generated only under [Options.enable_phased] (extension
          beyond the paper's single-stride focus) *)

type action = { anchor_site : int; anchor_pc : int; kind : action_kind }

type plan = {
  actions : action list;
  rejected : (int * string) list;  (** anchor site, reason *)
  regs_used : int;
}

val plan :
  opts:Options.t ->
  machine:Memsim.Config.machine ->
  code:Vm.Bytecode.instr array ->
  ldg:Ldg.t ->
  inter:(int -> Stride.pattern option) ->
  intra:(int -> int -> Stride.pattern option) ->
  phased:(int -> Stride.pattern list) ->
  first_reg:int ->
  plan
(** Decide actions for every node of [ldg]. [inter site] and
    [intra anchor succ] expose the detected patterns. [first_reg] is the
    next free spec-load register (plans for several loops of one method
    share the register space). *)

val apply :
  ?fault_skip_guard:bool ->
  guarded:bool ->
  Vm.Bytecode.instr array ->
  plan list ->
  Vm.Bytecode.instr array
(** Splice all planned sequences into the code, remapping branch targets.
    Jump targets keep pointing at the original instructions, so a spliced
    sequence runs exactly when its anchor load ran. [guarded] selects the
    guarded-load form for indirect prefetches (TLB priming on machines
    with small DTLBs, per {!Options.use_guarded}).
    [fault_skip_guard] (default false) injects the guard-dominance
    miscompile of {!Vm.Fault.Skip_guard_dominance}: the dereference
    prefetches are emitted {e before} their [spec_load]. *)

val action_descriptor : action -> string
(** A stable one-line identity of an action for provenance diffing, e.g.
    ["direct s3 d=128"] or ["deref s5 d=64 r0 targets=2"]. Deliberately
    omits the anchor pc — splicing renumbers pcs, so descriptors stay
    comparable across configurations that rewrite the body differently. *)
