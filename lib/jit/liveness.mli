(** Live-local analysis and dead-store elimination.

    A classic backwards dataflow over the CFG: a local is live at a
    program point when some path from that point reads it before writing
    it. Used by the pipeline as a clean-up pass (a store to a dead local
    becomes a [pop]) and available to clients as an analysis. *)

module Int_set : Set.S with type elt = int

type t

val analyze : Vm.Bytecode.instr array -> t

val live_out : t -> int -> Int_set.t
(** Locals live immediately after the instruction at a pc (the union
    over its successors). *)

val eliminate_dead_stores : Vm.Bytecode.instr array -> Vm.Bytecode.instr array
(** Replace [istore]/[astore] to locals that are dead afterwards with
    [pop]. Semantics are preserved; a dead reference store may release an
    object to the collector earlier, which is also legal. *)
