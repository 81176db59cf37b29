(** Diagnostics produced by the static-analysis layer.

    Every finding carries the {e name of the checker} that produced it, the
    faulting pc, and a severity. {!render} adds the method name and the
    rendered instruction at that pc, so a finding reads like

    {v Kernel.scan: pc 23 (`prefetch (p0 +12)`): [spec-def-use] ... v} *)

type severity = Error | Warning

type t = { checker : string; pc : int; severity : severity; message : string }

val error : checker:string -> pc:int -> ('a, unit, string, t) format4 -> 'a
val warning : checker:string -> pc:int -> ('a, unit, string, t) format4 -> 'a

val global : checker:string -> ('a, unit, string, t) format4 -> 'a
(** An error about the whole run rather than one instruction (runtime
    invariant audits: the conservation-law checks). [pc] is [-1];
    render with {!render_plain}. *)

val is_error : t -> bool

val render : meth:Vm.Classfile.method_info -> t -> string
(** ["<method>: pc <pc> (`<instr>`): [<checker>] <message>"]. *)

val render_plain : t -> string
(** ["[<checker>] <message>"] — for {!global} findings, which have no
    method context. *)

val pp : meth:Vm.Classfile.method_info -> Format.formatter -> t -> unit

val compare_by_pc : t -> t -> int
(** Order findings by pc, then checker name (stable report order). *)
