module B = Vm.Bytecode

type source = Unknown | Const of int | Param of int | Load of int | Alloc

let join a b =
  match (a, b) with
  | x, y when x = y -> x
  | _, _ -> Unknown

type load_kind =
  | Field of { offset : int; name : string }
  | Static of { index : int; name : string }
  | Array_length
  | Array_elem

type load_info = {
  site : int;
  pc : int;
  kind : load_kind;
  base : source;
  index : source;
  yields_ref : bool;
}

type state = { locals : source array; stack : source list }

let join_state a b =
  if List.length a.stack <> List.length b.stack then
    invalid_arg "stack_model: operand stack depth mismatch at join";
  {
    locals = Array.map2 join a.locals b.locals;
    stack = List.map2 join a.stack b.stack;
  }

let equal_state a b = a.locals = b.locals && a.stack = b.stack

let analyze code ~arity ~callee_arity ~callee_returns =
  let cfg = Cfg.build code in
  let n_blocks = Cfg.n_blocks cfg in
  let n_sites = Vm.Classfile.count_sites code in
  let infos = Array.make (max n_sites 1) None in
  let record ~site ~pc ~kind ~base ~index ~yields_ref =
    let merged =
      match infos.(site) with
      | None -> { site; pc; kind; base; index; yields_ref }
      | Some prior ->
          { prior with base = join prior.base base; index = join prior.index index }
    in
    infos.(site) <- Some merged
  in
  let n_locals =
    Array.fold_left
      (fun acc instr ->
        match instr with
        | B.Iload i | B.Istore i | B.Aload i | B.Astore i -> max acc (i + 1)
        | _ -> acc)
      arity code
  in
  let entry_state =
    {
      locals =
        Array.init n_locals (fun i -> if i < arity then Param i else Unknown);
      stack = [];
    }
  in
  let pop st =
    match st.stack with
    | v :: rest -> (v, { st with stack = rest })
    | [] -> invalid_arg "stack_model: operand stack underflow"
  in
  let pop2 st =
    let b, st = pop st in
    let a, st = pop st in
    (a, b, st)
  in
  let push v st = { st with stack = v :: st.stack } in
  let binop_fold op st =
    let a, b, st = pop2 st in
    let result =
      match (a, b) with
      | Const x, Const y -> Const (B.int_op op x y)
      | _ -> Unknown
    in
    push result st
  in
  let transfer pc st instr =
    match instr with
    | B.Iconst k -> push (Const k) st
    | B.Aconst_null -> push Unknown st
    | B.Iload i | B.Aload i -> push st.locals.(i) st
    | B.Istore i | B.Astore i ->
        let v, st = pop st in
        let locals = Array.copy st.locals in
        locals.(i) <- v;
        { st with locals }
    | B.Dup -> (
        match st.stack with
        | v :: _ -> push v st
        | [] -> invalid_arg "stack_model: dup on empty stack")
    | B.Pop -> snd (pop st)
    | (B.Iadd | B.Isub | B.Imul) as op -> binop_fold op st
    | B.Idiv | B.Irem | B.Iand | B.Ior | B.Ixor | B.Ishl | B.Ishr ->
        let _, _, st = pop2 st in
        push Unknown st
    | B.Ineg ->
        let v, st = pop st in
        push (match v with Const x -> Const (-x) | _ -> Unknown) st
    | B.Goto _ -> st
    | B.If_icmp _ | B.If_acmpeq _ | B.If_acmpne _ ->
        let _, _, st = pop2 st in
        st
    | B.If _ | B.Ifnull _ | B.Ifnonnull _ -> snd (pop st)
    | B.Getfield { site; offset; name; is_ref } ->
        let base, st = pop st in
        record ~site ~pc ~kind:(Field { offset; name }) ~base ~index:Unknown
          ~yields_ref:is_ref;
        push (Load site) st
    | B.Putfield _ ->
        let _, _, st = pop2 st in
        st
    | B.Getstatic { site; index; name; is_ref } ->
        record ~site ~pc ~kind:(Static { index; name }) ~base:Unknown
          ~index:Unknown ~yields_ref:is_ref;
        push (Load site) st
    | B.Putstatic _ -> snd (pop st)
    | B.Aaload { len_site; elem_site } | B.Iaload { len_site; elem_site } ->
        let base, index, st = pop2 st in
        record ~site:len_site ~pc ~kind:Array_length ~base ~index:Unknown
          ~yields_ref:false;
        let yields_ref =
          match instr with B.Aaload _ -> true | _ -> false
        in
        record ~site:elem_site ~pc ~kind:Array_elem ~base ~index ~yields_ref;
        push (Load elem_site) st
    | B.Aastore { len_site } | B.Iastore { len_site } ->
        let _, st = pop st in
        let base, _, st = pop2 st in
        record ~site:len_site ~pc ~kind:Array_length ~base ~index:Unknown
          ~yields_ref:false;
        st
    | B.Arraylength { site } ->
        let base, st = pop st in
        record ~site ~pc ~kind:Array_length ~base ~index:Unknown
          ~yields_ref:false;
        push (Load site) st
    | B.New _ -> push Alloc st
    | B.Newarray _ ->
        let _, st = pop st in
        push Alloc st
    | B.Invoke m ->
        let st = ref st in
        for _ = 1 to callee_arity m do
          st := snd (pop !st)
        done;
        if callee_returns m then push Unknown !st else !st
    | B.Return -> st
    | B.Ireturn | B.Areturn -> snd (pop st)
    | B.Print -> snd (pop st)
    | B.Prefetch_inter _ | B.Spec_load _ | B.Prefetch_indirect _
    | B.Prefetch_dynamic _ ->
        st
  in
  let in_states = Array.make n_blocks None in
  in_states.(0) <- Some entry_state;
  let worklist = Queue.create () in
  Queue.add 0 worklist;
  while not (Queue.is_empty worklist) do
    let bi = Queue.take worklist in
    match in_states.(bi) with
    | None -> ()
    | Some st ->
        let out =
          List.fold_left
            (fun st (pc, instr) -> transfer pc st instr)
            st
            (Cfg.instrs_of_block cfg bi)
        in
        List.iter
          (fun succ ->
            let merged =
              match in_states.(succ) with
              | None -> out
              | Some prior -> join_state prior out
            in
            match in_states.(succ) with
            | Some prior when equal_state prior merged -> ()
            | _ ->
                in_states.(succ) <- Some merged;
                Queue.add succ worklist)
          (Cfg.block cfg bi).succs
  done;
  Array.mapi
    (fun site info ->
      match info with
      | Some i -> i
      | None ->
          {
            site;
            pc = -1;
            kind = Array_length;
            base = Unknown;
            index = Unknown;
            yields_ref = false;
          })
    infos

let address_offset_of info =
  match info.kind with
  | Field { offset; _ } -> Some offset
  | Static _ -> None
  | Array_length -> Some Vm.Classfile.array_length_offset
  | Array_elem -> (
      match info.index with
      | Const k when k >= 0 ->
          Some (Vm.Classfile.array_elems_offset + (k * Vm.Classfile.slot_bytes))
      | _ -> None)

let pp_source ppf = function
  | Unknown -> Format.pp_print_string ppf "?"
  | Const k -> Format.fprintf ppf "const %d" k
  | Param i -> Format.fprintf ppf "param %d" i
  | Load s -> Format.fprintf ppf "L%d" s
  | Alloc -> Format.pp_print_string ppf "alloc"

let pp_load_info ppf i =
  let kind =
    match i.kind with
    | Field { name; offset } -> Printf.sprintf "field %s(+%d)" name offset
    | Static { name; _ } -> Printf.sprintf "static %s" name
    | Array_length -> "arraylength"
    | Array_elem -> "arrayelem"
  in
  Format.fprintf ppf "L%d@%d %s base=%a idx=%a%s" i.site i.pc kind pp_source
    i.base pp_source i.index
    (if i.yields_ref then " (ref)" else "")
