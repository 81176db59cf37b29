type severity = Error | Warning

type t = { checker : string; pc : int; severity : severity; message : string }

let error ~checker ~pc fmt =
  Printf.ksprintf
    (fun message -> { checker; pc; severity = Error; message })
    fmt

let warning ~checker ~pc fmt =
  Printf.ksprintf
    (fun message -> { checker; pc; severity = Warning; message })
    fmt

(* A finding about the whole run rather than one instruction (runtime
   invariant checks: conservation laws, end-of-run audits). pc -1 marks
   it; [render_plain] renders without a method context. *)
let global ~checker fmt =
  Printf.ksprintf
    (fun message -> { checker; pc = -1; severity = Error; message })
    fmt

let is_error d = d.severity = Error

(* The rendered instruction at the faulting pc — diagnostics always name
   the method and show the instruction, not just the pc, so a finding can
   be read without disassembling the body by hand. *)
let instr_at (m : Vm.Classfile.method_info) pc =
  if pc >= 0 && pc < Array.length m.code then
    Vm.Bytecode.to_string m.code.(pc)
  else "<no instruction>"

let render ~(meth : Vm.Classfile.method_info) d =
  Printf.sprintf "%s: pc %d (`%s`): %s[%s] %s" meth.method_name d.pc
    (instr_at meth d.pc)
    (match d.severity with Error -> "" | Warning -> "warning ")
    d.checker d.message

let render_plain d =
  Printf.sprintf "%s[%s] %s"
    (match d.severity with Error -> "" | Warning -> "warning ")
    d.checker d.message

let pp ~meth ppf d = Format.pp_print_string ppf (render ~meth d)

let compare_by_pc a b =
  match compare a.pc b.pc with 0 -> compare a.checker b.checker | c -> c
