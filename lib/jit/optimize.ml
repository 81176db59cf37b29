module B = Vm.Bytecode

let branch_targets code =
  let targets = Array.make (Array.length code) false in
  Array.iter
    (fun instr ->
      match B.branch_target instr with
      | Some t -> targets.(t) <- true
      | None -> ())
    code;
  targets

let retarget instr new_target =
  match instr with
  | B.Goto _ -> B.Goto new_target
  | B.If_icmp (c, _) -> B.If_icmp (c, new_target)
  | B.If (c, _) -> B.If (c, new_target)
  | B.If_acmpeq _ -> B.If_acmpeq new_target
  | B.If_acmpne _ -> B.If_acmpne new_target
  | B.Ifnull _ -> B.Ifnull new_target
  | B.Ifnonnull _ -> B.Ifnonnull new_target
  | _ -> instr

let compact slots =
  let n = Array.length slots in
  (* new_pc_at.(old_pc) = index of the first surviving instruction at or
     after old_pc in the compacted code. *)
  let new_pc_at = Array.make (n + 1) 0 in
  let count = ref 0 in
  for pc = 0 to n - 1 do
    new_pc_at.(pc) <- !count;
    if slots.(pc) <> None then incr count
  done;
  new_pc_at.(n) <- !count;
  let remap t =
    if t < 0 || t > n then invalid_arg "compact: branch target out of range";
    let t' = new_pc_at.(t) in
    if t' >= !count then invalid_arg "compact: branch target falls off the end";
    t'
  in
  let out = Array.make !count B.Return in
  let i = ref 0 in
  Array.iter
    (function
      | Some instr ->
          let instr =
            match B.branch_target instr with
            | Some t -> retarget instr (remap t)
            | None -> instr
          in
          out.(!i) <- instr;
          incr i
      | None -> ())
    slots;
  out

let fold_constants code =
  let n = Array.length code in
  let targets = branch_targets code in
  let slots = Array.map Option.some code in
  let interior_free pc len =
    let ok = ref true in
    for i = pc + 1 to pc + len - 1 do
      if targets.(i) then ok := false
    done;
    !ok
  in
  let folds = function
    | B.Iadd | B.Isub | B.Imul | B.Iand | B.Ior | B.Ixor -> true
    | _ -> false
  in
  let pc = ref 0 in
  while !pc + 2 < n do
    (match (slots.(!pc), slots.(!pc + 1), slots.(!pc + 2)) with
    | Some (B.Iconst a), Some (B.Iconst b), Some op
      when folds op && interior_free !pc 3 ->
        slots.(!pc) <- Some (B.Iconst (B.int_op op a b));
        slots.(!pc + 1) <- None;
        slots.(!pc + 2) <- None
    | _ -> ());
    (match (slots.(!pc), slots.(!pc + 1)) with
    | Some (B.Iconst 0), Some B.Iadd when interior_free !pc 2 ->
        slots.(!pc) <- None;
        slots.(!pc + 1) <- None
    | Some (B.Iconst 0), Some B.Isub when interior_free !pc 2 ->
        slots.(!pc) <- None;
        slots.(!pc + 1) <- None
    | Some (B.Iconst 1), Some B.Imul when interior_free !pc 2 ->
        slots.(!pc) <- None;
        slots.(!pc + 1) <- None
    | Some B.Ineg, Some B.Ineg when interior_free !pc 2 ->
        slots.(!pc) <- None;
        slots.(!pc + 1) <- None
    | _ -> ());
    incr pc
  done;
  compact slots

let remove_unreachable code =
  let cfg = Cfg.build code in
  let n_blocks = Cfg.n_blocks cfg in
  let reachable = Array.make n_blocks false in
  let rec dfs b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter dfs (Cfg.block cfg b).succs
    end
  in
  dfs 0;
  let slots =
    Array.mapi
      (fun pc instr ->
        if reachable.(cfg.block_of_pc.(pc)) then Some instr else None)
      code
  in
  compact slots

let peephole code =
  let n = Array.length code in
  let targets = branch_targets code in
  let slots = Array.map Option.some code in
  for pc = 0 to n - 2 do
    match (slots.(pc), slots.(pc + 1)) with
    | Some B.Dup, Some B.Pop when not targets.(pc + 1) ->
        slots.(pc) <- None;
        slots.(pc + 1) <- None
    | _ -> ()
  done;
  (* A goto to the instruction that follows it is a no-op. *)
  Array.iteri
    (fun pc slot ->
      match slot with
      | Some (B.Goto t) when t = pc + 1 -> slots.(pc) <- None
      | _ -> ())
    slots;
  compact slots

let simplify code =
  let rec go code budget =
    if budget = 0 then code
    else
      let next = peephole (fold_constants (remove_unreachable code)) in
      if next = code then code else go next (budget - 1)
  in
  go code 8
