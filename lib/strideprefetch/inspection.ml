module B = Vm.Bytecode
module C = Vm.Classfile
module V = Vm.Value

type result = {
  per_site : (int * int) list array;
  iterations : int;
  natural_exit : bool;
  steps : int;
}

(* Abstract values: concrete ints, references into the real heap,
   references into the inspection-private heap, null, or unknown. *)
type av = AInt of int | AReal of int | APriv of int | ANull | AUnknown

type priv_contents = Pobject of av array | Parray of av array

type priv_obj = { pbase : int; pcontents : priv_contents }

type state = {
  program : C.program;
  heap : Vm.Heap.t;
  globals : int -> V.t;
  opts : Options.t;
  code : B.instr array;
  cfg : Jit.Cfg.t;
  forest : Jit.Loops.forest;
  target : Jit.Loops.loop option;
      (** [None] in callee frames of inter-procedural inspection *)
  call_depth : int;
  locals : av array;
  mutable stack : av list;
  mutable pc : int;
  (* tables shared between the target frame and its callees *)
  write_log : (int, av) Hashtbl.t;
  static_log : (int, av) Hashtbl.t;
  priv : (int, priv_obj) Hashtbl.t;
  priv_next_id : int ref;
  priv_next_addr : int ref;
  analyses : (int, Jit.Cfg.t * Jit.Loops.forest) Hashtbl.t;
      (** per-callee CFG/loop cache (inter-procedural mode) *)
  steps : int ref;  (** the step budget is global to one inspection *)
  per_site : (int * int) list array;
  backedge_counts : (int, int) Hashtbl.t;  (** per non-target loop *)
  mutable iteration : int;
  mutable entered_target : bool;
  mutable natural_exit : bool;
  mutable return_value : av option;
  mutable running : bool;
}

let of_value = function
  | V.Int n -> AInt n
  | V.Ref id -> AReal id
  | V.Null -> ANull

let push st v = st.stack <- v :: st.stack

let pop st =
  match st.stack with
  | v :: rest ->
      st.stack <- rest;
      v
  | [] ->
      (* Malformed bytecode cannot crash compilation: give up gracefully. *)
      st.running <- false;
      AUnknown

let pop2 st =
  let b = pop st in
  let a = pop st in
  (a, b)

let record st ~site ~addr =
  if st.entered_target then
    st.per_site.(site) <- (st.iteration, addr) :: st.per_site.(site)

let slot_of_offset offset = (offset - C.header_bytes) / C.slot_bytes

(* Read through the write log first, then the real heap. *)
let read_real st ~addr ~fallback =
  match Hashtbl.find_opt st.write_log addr with
  | Some v -> v
  | None -> of_value (fallback ())

let priv_find st id = Hashtbl.find_opt st.priv id

let priv_alloc st ~slots ~size contents_of =
  let id = !(st.priv_next_id) in
  st.priv_next_id := id + 1;
  let obj = { pbase = !(st.priv_next_addr); pcontents = contents_of slots } in
  st.priv_next_addr := !(st.priv_next_addr) + size;
  Hashtbl.replace st.priv id obj;
  APriv id

(* Known equality for reference comparisons; [None] when undecidable. *)
let ref_equal a b =
  match (a, b) with
  | AReal x, AReal y -> Some (x = y)
  | APriv x, APriv y -> Some (x = y)
  | ANull, ANull -> Some true
  | (AReal _ | APriv _), ANull | ANull, (AReal _ | APriv _) -> Some false
  | AReal _, APriv _ | APriv _, AReal _ -> Some false
  | (AUnknown | AInt _), _ | _, (AUnknown | AInt _) -> None

(* The innermost loop whose header is the block of [tpc] and whose body
   contains the block of [spc]; backward branches always target a loop
   header of a containing loop when they are back edges. *)
let loop_of_backedge st ~spc ~tpc =
  let hb = st.cfg.block_of_pc.(tpc) in
  let sb = st.cfg.block_of_pc.(spc) in
  Array.to_list st.forest.all
  |> List.filter (fun (l : Jit.Loops.loop) ->
         l.header = hb && Jit.Loops.Int_set.mem sb l.blocks)
  |> function
  | [] -> None
  | l :: ls ->
      Some
        (List.fold_left
           (fun best (l : Jit.Loops.loop) ->
             if l.depth > best.Jit.Loops.depth then l else best)
           l ls)

let contains (outer : Jit.Loops.loop) (inner : Jit.Loops.loop) =
  Jit.Loops.Int_set.subset inner.blocks outer.blocks

(* Decide whether to take a branch to [tpc] from [spc]; enforces the
   iteration budget of the target loop and the caps on other loops. *)
let take_branch st ~spc ~tpc =
  if tpc > spc then begin
    st.pc <- tpc;
    true
  end
  else
    match loop_of_backedge st ~spc ~tpc with
    | None ->
        st.pc <- tpc;
        true
    | Some l
      when match st.target with
           | Some target -> l.loop_id = target.loop_id
           | None -> false ->
        st.iteration <- st.iteration + 1;
        (* A new target iteration re-arms the caps of loops nested in the
           target body. *)
        Hashtbl.reset st.backedge_counts;
        if st.iteration >= st.opts.inspect_iterations then begin
          st.running <- false;
          false
        end
        else begin
          st.pc <- tpc;
          true
        end
    | Some l ->
        let cap =
          match st.target with
          | None ->
              (* callee frame: every loop is bounded *)
              st.opts.small_trip_count
          | Some target ->
              if contains l target then 1
              else if contains target l then st.opts.small_trip_count
              else 1
        in
        let count =
          Option.value ~default:0 (Hashtbl.find_opt st.backedge_counts l.loop_id)
        in
        if count >= cap then false
        else begin
          Hashtbl.replace st.backedge_counts l.loop_id (count + 1);
          st.pc <- tpc;
          true
        end

let getfield st ~site ~offset =
  match pop st with
  | AReal id when Vm.Heap.exists st.heap id ->
      let addr = Vm.Heap.base_of st.heap id + offset in
      record st ~site ~addr;
      let slot = slot_of_offset offset in
      push st
        (read_real st ~addr ~fallback:(fun () ->
             Vm.Heap.get_field st.heap id slot))
  | APriv id -> (
      match priv_find st id with
      | Some { pbase; pcontents = Pobject fields } ->
          record st ~site ~addr:(pbase + offset);
          let slot = slot_of_offset offset in
          if slot >= 0 && slot < Array.length fields then push st fields.(slot)
          else push st AUnknown
      | Some _ | None -> push st AUnknown)
  | AReal _ | ANull | AInt _ | AUnknown -> push st AUnknown

let putfield st ~offset =
  let v = pop st in
  match pop st with
  | AReal id when Vm.Heap.exists st.heap id ->
      Hashtbl.replace st.write_log (Vm.Heap.base_of st.heap id + offset) v
  | APriv id -> (
      match priv_find st id with
      | Some { pcontents = Pobject fields; _ } ->
          let slot = slot_of_offset offset in
          if slot >= 0 && slot < Array.length fields then fields.(slot) <- v
      | Some _ | None -> ())
  | AReal _ | ANull | AInt _ | AUnknown -> ()

(* Length and base address of an abstract array, when known. *)
let array_view st base =
  match base with
  | AReal id when Vm.Heap.exists st.heap id && Vm.Heap.class_id_of st.heap id = None
    ->
      Some (`Real id, Vm.Heap.base_of st.heap id, Vm.Heap.array_length st.heap id)
  | APriv id -> (
      match priv_find st id with
      | Some { pbase; pcontents = Parray elems } ->
          Some (`Priv elems, pbase, Array.length elems)
      | Some _ | None -> None)
  | AReal _ | AInt _ | ANull | AUnknown -> None

let array_load st ~len_site ~elem_site =
  let base, index = pop2 st in
  match array_view st base with
  | None -> push st AUnknown
  | Some (where, base_addr, len) -> (
      record st ~site:len_site ~addr:(base_addr + C.array_length_offset);
      match index with
      | AInt i when i >= 0 && i < len -> (
          let addr = base_addr + C.array_elems_offset + (i * C.slot_bytes) in
          record st ~site:elem_site ~addr;
          match where with
          | `Real id ->
              push st
                (read_real st ~addr ~fallback:(fun () ->
                     Vm.Heap.get_elem st.heap id i))
          | `Priv elems -> push st elems.(i))
      | AInt _ | AReal _ | APriv _ | ANull | AUnknown -> push st AUnknown)

let array_store st ~len_site =
  let v = pop st in
  let base, index = pop2 st in
  match array_view st base with
  | None -> ()
  | Some (where, base_addr, len) -> (
      record st ~site:len_site ~addr:(base_addr + C.array_length_offset);
      match index with
      | AInt i when i >= 0 && i < len -> (
          let addr = base_addr + C.array_elems_offset + (i * C.slot_bytes) in
          match where with
          | `Real _ -> Hashtbl.replace st.write_log addr v
          | `Priv elems -> elems.(i) <- v)
      | AInt _ | AReal _ | APriv _ | ANull | AUnknown -> ())

let rec step st =
  let pc = st.pc in
  let instr = st.code.(pc) in
  st.pc <- pc + 1;
  (* A binary integer instruction on known operands; a zero divisor
     yields an unknown value. *)
  let binop op =
    let a, b = pop2 st in
    push st
      (match (op, a, b) with
      | (B.Idiv | B.Irem), AInt _, AInt 0 -> AUnknown
      | _, AInt x, AInt y -> AInt (B.int_op op x y)
      | _ -> AUnknown)
  in
  let int_branch cond tpc =
    match cond with
    | Some true -> ignore (take_branch st ~spc:pc ~tpc)
    | Some false -> ()
    | None ->
        (* Unknown condition: fall through (DESIGN.md deviation note). *)
        ()
  in
  match instr with
  | B.Iconst k -> push st (AInt k)
  | B.Aconst_null -> push st ANull
  | B.Iload i | B.Aload i -> push st st.locals.(i)
  | B.Istore i | B.Astore i -> st.locals.(i) <- pop st
  | B.Dup -> (
      match st.stack with
      | v :: _ -> push st v
      | [] -> st.running <- false)
  | B.Pop -> ignore (pop st)
  | ( B.Iadd | B.Isub | B.Imul | B.Idiv | B.Irem | B.Iand | B.Ior | B.Ixor
    | B.Ishl | B.Ishr ) as op ->
      binop op
  | B.Ineg ->
      let v = pop st in
      push st (match v with AInt x -> AInt (-x) | _ -> AUnknown)
  | B.Goto tpc ->
      if not (take_branch st ~spc:pc ~tpc) then
        (* A capped loop is force-exited by falling through the goto. *)
        ()
  | B.If_icmp (c, tpc) ->
      let a, b = pop2 st in
      int_branch
        (match (a, b) with
        | AInt x, AInt y -> Some (B.compare c x y)
        | _ -> None)
        tpc
  | B.If (c, tpc) ->
      let a = pop st in
      int_branch
        (match a with AInt x -> Some (B.compare c x 0) | _ -> None)
        tpc
  | B.If_acmpeq tpc ->
      let a, b = pop2 st in
      int_branch (ref_equal a b) tpc
  | B.If_acmpne tpc ->
      let a, b = pop2 st in
      int_branch (Option.map not (ref_equal a b)) tpc
  | B.Ifnull tpc ->
      let a = pop st in
      int_branch
        (match a with
        | ANull -> Some true
        | AReal _ | APriv _ -> Some false
        | AInt _ | AUnknown -> None)
        tpc
  | B.Ifnonnull tpc ->
      let a = pop st in
      int_branch
        (match a with
        | ANull -> Some false
        | AReal _ | APriv _ -> Some true
        | AInt _ | AUnknown -> None)
        tpc
  | B.Getfield { site; offset; _ } -> getfield st ~site ~offset
  | B.Putfield { offset; _ } -> putfield st ~offset
  | B.Getstatic { site; index; _ } ->
      let addr = C.statics_base + (index * C.slot_bytes) in
      record st ~site ~addr;
      push st
        (match Hashtbl.find_opt st.static_log index with
        | Some v -> v
        | None -> of_value (st.globals index))
  | B.Putstatic { index; _ } -> Hashtbl.replace st.static_log index (pop st)
  | B.Aaload { len_site; elem_site } | B.Iaload { len_site; elem_site } ->
      array_load st ~len_site ~elem_site
  | B.Aastore { len_site } | B.Iastore { len_site } -> array_store st ~len_site
  | B.Arraylength { site } -> (
      let base = pop st in
      match array_view st base with
      | Some (_, base_addr, len) ->
          record st ~site ~addr:(base_addr + C.array_length_offset);
          push st (AInt len)
      | None -> push st AUnknown)
  | B.New class_id ->
      let ci = C.class_of_id st.program class_id in
      push st
        (priv_alloc st
           ~slots:(Array.length ci.fields)
           ~size:ci.instance_bytes
           (fun slots -> Pobject (Array.make slots ANull)))
  | B.Newarray _ -> (
      match pop st with
      | AInt len when len >= 0 ->
          push st
            (priv_alloc st ~slots:len
               ~size:(C.array_elems_offset + (len * C.slot_bytes))
               (fun slots -> Parray (Array.make slots ANull)))
      | AInt _ | AReal _ | APriv _ | ANull | AUnknown -> push st AUnknown)
  | B.Invoke callee_id ->
      let callee = C.method_of_id st.program callee_id in
      let args = Array.make callee.arity AUnknown in
      for i = callee.arity - 1 downto 0 do
        args.(i) <- pop st
      done;
      if st.opts.inspect_calls && st.call_depth < st.opts.max_call_depth then begin
        (* Inter-procedural mode: step into the callee (the extension
           Section 3.2 discusses). The callee shares the write log and
           the shadow heap; its own loops are bounded. *)
        match interpret_callee st callee args with
        | Some v when callee.returns_value -> push st v
        | Some _ -> ()
        | None -> if callee.returns_value then push st AUnknown
      end
      else if callee.returns_value then push st AUnknown
  | B.Return -> st.running <- false
  | B.Ireturn | B.Areturn ->
      st.return_value <- Some (pop st);
      st.running <- false
  | B.Print -> ignore (pop st)
  | B.Prefetch_inter _ | B.Prefetch_indirect _ | B.Prefetch_dynamic _ -> ()
  | B.Spec_load _ -> ()

(* Interpret a callee body to completion (or budget/abnormal stop) in a
   frame sharing this inspection's sandbox; returns its result value. *)
and interpret_callee st (callee : C.method_info) args =
  let cfg, forest =
    match Hashtbl.find_opt st.analyses callee.method_id with
    | Some analysis -> analysis
    | None ->
        let cfg = Jit.Cfg.build callee.code in
        let analysis = (cfg, Jit.Loops.analyze cfg) in
        Hashtbl.add st.analyses callee.method_id analysis;
        analysis
  in
  let locals =
    Array.make (max (max callee.max_locals callee.arity) 1) AUnknown
  in
  Array.blit args 0 locals 0 (Array.length args);
  let frame =
    {
      st with
      code = callee.code;
      cfg;
      forest;
      target = None;
      call_depth = st.call_depth + 1;
      locals;
      stack = [];
      pc = 0;
      per_site = [||];
      backedge_counts = Hashtbl.create 4;
      iteration = 0;
      entered_target = false;
      natural_exit = false;
      return_value = None;
      running = true;
    }
  in
  run_frame frame;
  frame.return_value

(* Drive one frame until it stops. Only the top-level (target) frame has
   the loop-exit bookkeeping; callee frames run to their return. *)
and run_frame st =
  let code_len = Array.length st.code in
  while st.running do
    if st.pc < 0 || st.pc >= code_len then st.running <- false
    else begin
      (match st.target with
      | Some target ->
          let in_target =
            Jit.Loops.Int_set.mem st.cfg.block_of_pc.(st.pc)
              target.Jit.Loops.blocks
          in
          if st.entered_target && not in_target then begin
            (* The target loop exited on its own before the iteration
               budget: this is how a small trip count is detected. *)
            st.natural_exit <- true;
            st.running <- false
          end
          else if in_target then st.entered_target <- true
      | None -> ());
      if st.running then begin
        incr st.steps;
        if !(st.steps) > st.opts.max_inspect_steps then st.running <- false
        else step st
      end
    end
  done

let inspect ~program ~heap ~globals ~opts ~cfg ~forest ~target ~meth ~args =
  let code = meth.C.code in
  let n_locals = max meth.max_locals meth.arity in
  let locals = Array.make (max n_locals 1) AUnknown in
  Array.iteri (fun i v -> if i < n_locals then locals.(i) <- of_value v) args;
  let st =
    {
      program;
      heap;
      globals;
      opts;
      code;
      cfg;
      forest;
      target = Some target;
      call_depth = 0;
      locals;
      stack = [];
      pc = 0;
      write_log = Hashtbl.create 64;
      static_log = Hashtbl.create 8;
      priv = Hashtbl.create 16;
      priv_next_id = ref 0;
      (* The shadow heap lives above the real heap's limit, so private and
         real addresses can never collide. *)
      priv_next_addr = ref (C.heap_base + Vm.Heap.limit_bytes heap);
      analyses = Hashtbl.create 8;
      steps = ref 0;
      per_site = Array.make (max meth.n_sites 1) [];
      backedge_counts = Hashtbl.create 8;
      iteration = 0;
      entered_target = false;
      natural_exit = false;
      return_value = None;
      running = true;
    }
  in
  run_frame st;
  {
    per_site = Array.map List.rev st.per_site;
    iterations =
      (* In both exit regimes the number of completed loop bodies equals
         the number of back edges taken: on a natural exit the final
         header evaluation fails without beginning a body, and on a
         budget stop the last back edge is refused. *)
      (if st.entered_target then st.iteration else 0);
    natural_exit = st.natural_exit;
    steps = !(st.steps);
  }
