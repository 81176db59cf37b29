(* The type-state verifier: an abstract interpretation of one method body
   over {!Lattice.Avalue}, tracking the operand stack, the locals, and the
   spec-load (prefetch) registers at every pc.

   Besides structural well-formedness (branch targets, local/site/register
   ranges, consistent stack depth, no falling off the end) it tracks *what
   kind* of value
   occupies each slot, and reports definite misuse — integer arithmetic on
   a reference, dereference of a definite null, a prefetch register
   dereferenced on a path where no spec_load defined it.

   Conservative by construction: parameters and mixed joins enter as Top
   and Top is accepted everywhere, so a diagnostic means the interpreter
   would really have misbehaved on some path reaching that pc. *)

module B = Vm.Bytecode
module A = Lattice.Avalue

let checker = "typestate"

exception Found of Diag.t

let fail pc fmt =
  Printf.ksprintf
    (fun message ->
      raise (Found { Diag.checker; pc; severity = Diag.Error; message }))
    fmt

type state = {
  stack : A.t list;
  locals : A.t array;
  regs : bool array;
      (* must-defined: regs.(r) is true iff every path to this pc executed
         a spec_load into r *)
  broken : (int * int) option;
      (* set by a join of stacks with different depths; reported at the
         first instruction that executes under the inconsistent state *)
}

let equal_state a b =
  a.broken = b.broken && a.stack = b.stack && a.locals = b.locals
  && a.regs = b.regs

let join_state a b =
  if List.length a.stack <> List.length b.stack then
    { a with broken = Some (List.length a.stack, List.length b.stack) }
  else if a.broken <> None then a
  else if b.broken <> None then b
  else
    {
      stack = List.map2 A.join a.stack b.stack;
      locals = Array.map2 A.join a.locals b.locals;
      regs = Array.map2 ( && ) a.regs b.regs;
      broken = None;
    }

module Flow = Dataflow.Make (struct
  type t = state

  let join = join_state
  let equal = equal_state
end)

(* --- structural prechecks (so the dataflow below can assume a
   well-formed body) ------------------------------------------------------- *)

let structural ~(program : Vm.Classfile.program)
    (m : Vm.Classfile.method_info) =
  let code = m.code in
  let n = Array.length code in
  if n = 0 then fail 0 "empty method body";
  Array.iteri
    (fun pc instr ->
      (match B.branch_target instr with
      | Some t when t < 0 || t >= n ->
          fail pc "branch target %d out of range [0, %d)" t n
      | _ -> ());
      (match instr with
      | B.Iload i | B.Istore i | B.Aload i | B.Astore i ->
          if i < 0 || i >= m.max_locals then
            fail pc "local %d outside max_locals %d" i m.max_locals
      | B.Invoke callee ->
          if callee < 0 || callee >= Array.length program.methods then
            fail pc "invoke of unknown method #%d" callee
      | _ -> ());
      List.iter
        (fun site ->
          if site < 0 || site >= m.n_sites then
            fail pc "site L%d outside n_sites %d" site m.n_sites)
        (B.all_sites instr);
      let check_site site =
        if site < 0 || site >= m.n_sites then
          fail pc "prefetch anchor L%d outside n_sites %d" site m.n_sites
      in
      let check_reg reg =
        if reg < 0 || reg >= m.n_pref_regs then
          fail pc "prefetch register p%d outside n_pref_regs %d" reg
            m.n_pref_regs
      in
      match instr with
      | B.Prefetch_inter { site; _ } | B.Prefetch_dynamic { site; _ } ->
          check_site site
      | B.Spec_load { site; reg; _ } ->
          check_site site;
          check_reg reg
      | B.Prefetch_indirect { reg; _ } -> check_reg reg
      | _ -> ())
    code;
  match code.(n - 1) with
  | instr when B.is_terminator instr -> ()
  | instr when B.branch_target instr <> None ->
      fail (n - 1) "conditional branch can fall off the end"
  | _ -> fail (n - 1) "control can fall off the end of the body"

(* --- the abstract interpreter -------------------------------------------- *)

let check ~(program : Vm.Classfile.program) (m : Vm.Classfile.method_info) =
  try
    structural ~program m;
    let code = m.code in
    let cfg = Jit.Cfg.build code in
    let entry =
      {
        stack = [];
        locals = Array.make (max m.max_locals 1) A.Top;
        regs = Array.make (max m.n_pref_regs 1) false;
        broken = None;
      }
    in
    let pop pc st what =
      match st.stack with
      | v :: stack -> (v, { st with stack })
      | [] -> fail pc "stack underflow: needed %s, stack is empty" what
    in
    let push pc v st =
      if List.length st.stack >= Vm.Frame.max_stack then
        fail pc "stack overflow: depth exceeds %d" Vm.Frame.max_stack;
      { st with stack = v :: st.stack }
    in
    let want_int pc what v =
      if A.is_definitely_ref v then
        fail pc "%s must be an int, found %s" what (A.to_string v)
    in
    let want_ref pc what v =
      if A.is_definitely_int v then
        fail pc "%s must be a reference, found %s" what (A.to_string v)
    in
    let want_base pc what v =
      want_ref pc what v;
      if v = A.Null then fail pc "%s dereferences a definitely-null value" what
    in
    let pop_int pc what st =
      let v, st = pop pc st what in
      want_int pc what v;
      st
    in
    let pop_base pc what st =
      let v, st = pop pc st what in
      want_base pc what v;
      st
    in
    let store pc i st =
      let v, st = pop pc st "stored value" in
      let locals = Array.copy st.locals in
      locals.(i) <- v;
      { st with locals }
    in
    let transfer ~pc instr st =
      (match st.broken with
      | Some (a, b) -> fail pc "inconsistent stack depth at join: %d vs %d" a b
      | None -> ());
      match instr with
      | B.Iconst _ -> push pc A.Int st
      | B.Aconst_null -> push pc A.Null st
      | B.Iload i | B.Aload i ->
          (* locals are untyped slots (the inliner spills reference
             arguments with istore); typing happens at the use site *)
          push pc st.locals.(i) st
      | B.Istore i | B.Astore i -> store pc i st
      | B.Dup -> (
          match st.stack with
          | v :: _ -> push pc v st
          | [] -> fail pc "stack underflow: dup on empty stack")
      | B.Pop -> snd (pop pc st "popped value")
      | B.Iadd | B.Isub | B.Imul | B.Idiv | B.Irem | B.Iand | B.Ior | B.Ixor
      | B.Ishl | B.Ishr ->
          let st = pop_int pc "arithmetic operand" st in
          let st = pop_int pc "arithmetic operand" st in
          push pc A.Int st
      | B.Ineg -> push pc A.Int (pop_int pc "negation operand" st)
      | B.Goto _ -> st
      | B.If_icmp _ ->
          pop_int pc "comparison operand" (pop_int pc "comparison operand" st)
      | B.If _ -> pop_int pc "condition" st
      | B.If_acmpeq _ | B.If_acmpne _ ->
          let a, st = pop pc st "reference comparison operand" in
          let b, st = pop pc st "reference comparison operand" in
          want_ref pc "reference comparison operand" a;
          want_ref pc "reference comparison operand" b;
          st
      | B.Ifnull _ | B.Ifnonnull _ ->
          let v, st = pop pc st "null-test operand" in
          want_ref pc "null-test operand" v;
          st
      | B.Getfield { is_ref; _ } ->
          let st = pop_base pc "getfield" st in
          push pc (if is_ref then A.Ref_or_null else A.Int) st
      | B.Putfield _ ->
          let _, st = pop pc st "stored field value" in
          pop_base pc "putfield" st
      | B.Getstatic { is_ref; _ } ->
          push pc (if is_ref then A.Ref_or_null else A.Int) st
      | B.Putstatic _ -> snd (pop pc st "stored static value")
      | B.Aaload _ ->
          let st = pop_int pc "array index" st in
          let st = pop_base pc "array load" st in
          push pc A.Ref_or_null st
      | B.Iaload _ ->
          let st = pop_int pc "array index" st in
          let st = pop_base pc "array load" st in
          push pc A.Int st
      | B.Aastore _ ->
          let v, st = pop pc st "stored element" in
          want_ref pc "stored element" v;
          let st = pop_int pc "array index" st in
          pop_base pc "array store" st
      | B.Iastore _ ->
          let st = pop_int pc "stored element" st in
          let st = pop_int pc "array index" st in
          pop_base pc "array store" st
      | B.Arraylength _ -> push pc A.Int (pop_base pc "arraylength" st)
      | B.New _ -> push pc A.Ref st
      | B.Newarray _ -> push pc A.Ref (pop_int pc "array length" st)
      | B.Invoke callee_id ->
          let callee = Vm.Classfile.method_of_id program callee_id in
          let st = ref st in
          for _ = 1 to callee.arity do
            st := snd (pop pc !st "call argument")
          done;
          if callee.returns_value then push pc A.Top !st else !st
      | B.Return ->
          if m.returns_value then
            fail pc "void return in a method declared to return a value";
          st
      | B.Ireturn ->
          if not m.returns_value then
            fail pc "value return in a method declared void";
          pop_int pc "returned value" st
      | B.Areturn ->
          if not m.returns_value then
            fail pc "value return in a method declared void";
          let v, st = pop pc st "returned reference" in
          want_ref pc "returned reference" v;
          st
      | B.Print -> pop_int pc "printed value" st
      | B.Prefetch_inter _ | B.Prefetch_dynamic _ -> st
      | B.Spec_load { reg; _ } ->
          let regs = Array.copy st.regs in
          regs.(reg) <- true;
          { st with regs }
      | B.Prefetch_indirect { reg; _ } ->
          if not st.regs.(reg) then
            fail pc
              "prefetch register p%d may be dereferenced before any \
               spec_load defines it"
              reg;
          st
    in
    ignore (Flow.run ~cfg ~entry ~transfer);
    []
  with Found d -> [ d ]
