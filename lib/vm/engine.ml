(* Both execution engines (DESIGN.md section 10): the closure-compiled
   engine and, at the end of this file, the reference switch engine
   ([exec_switch], the classic fetch/decode loop).

   They share one compilation unit so that one copy of the operand-stack
   primitives and of the [pre] step prologue below serves both loops.
   The default build (release profile, no [-opaque]) also inlines the
   small helpers the handlers call in other modules: [State]'s charging
   and memory wrappers, [Heap]'s accessors, the hierarchy's demand path.
   A [--profile dev] build turns those into calls, which costs host time
   only.

   [compile] translates a method body, at JIT time, into a flat array of
   OCaml closures — one handler per pc, plus an out-of-bounds sentinel at
   index [n]. Each handler performs exactly the observable state
   transitions of one iteration of the switch engine's fetch/decode loop
   ([exec_switch]), then tail-calls the next handler directly:
   straight-line code threads through captured [next] closures and never
   touches the dispatch [match] again, which is where the speedup comes
   from. Branch handlers jump through the handler array
   ([Array.unsafe_get handlers target] — safe: every baked target was
   bounds-checked at compile time).

   The closure engine runs unobserved activations only: while telemetry,
   profiling, a load observer or a monitor is installed
   ([State.instrumented]), [Interp.create]'s dispatcher sends every
   activation to the reference loop instead, so each observer call lives
   in [State]'s helpers and [exec_switch] alone.

   Bit-identity with the switch engine is the hard contract (enforced by
   test/test_engine.ml and the fuzz oracle's engine axis). The exact
   reference sequence per instruction is:

     bounds-check pc -> steps++ -> budget check -> fetch -> pc++ ->
     retire 1 -> charge base_cost -> instruction body

   and the compiled handlers replay it with three compile-time
   transformations, each individually cycle-neutral:

   - The pc bounds check is baked: in-range pcs get handlers, branch
     targets are validated when the branch is compiled (an out-of-range
     target becomes a raising handler that fires {e after} the backedge
     bookkeeping, exactly when the switch engine's next loop iteration
     would), and fall-through past the last instruction lands on the
     sentinel.
   - Charges that precede the next observation point are folded: the
     memory hierarchy only observes [t.stats.cycles] at access time
     ([~now]), so the base slots of a whole basic block become one
     charge per segment between accesses (see the superinstruction
     commentary below). Charges on either side of an access are never
     folded.
   - Nothing observes the run, so handlers carry no per-step option
     tests and no [frame.pc] stores, and call the hierarchy directly.

   Compiled/interpreted cycle attribution reads [m.compiled] dynamically
   in [pre] (not the baked entry value) because the switch engine's
   [charge] does: a recursive method compiled mid-activation flips the
   attribution of the outer activation's remaining cycles while its
   baked [base_cost] stays, and we reproduce that faithfully.

   Artifacts are cached per method in [t.closure_cache] keyed on the
   physical identity of [m.code] (every JIT pass swaps in a fresh array;
   see Jit.Pipeline) and the compiled flag — validated on every method
   entry, refreshed eagerly by the pipeline's [on_mutate] hook between
   passes. *)

open State

(* The operand-stack primitives of both loops. The happy path is a
   bounds test + array move; the raising code (string building) stays out
   of line, so each primitive is small enough to inline at every use. *)

let[@inline never] stack_overflow (frame : Frame.t) =
  raise
    (Frame.Stack_error
       ("operand stack overflow in " ^ frame.method_info.method_name))

let[@inline never] stack_underflow (frame : Frame.t) =
  raise
    (Frame.Stack_error
       ("operand stack underflow in " ^ frame.method_info.method_name))

let[@inline never] int_expected (frame : Frame.t) v =
  raise
    (Frame.Stack_error
       (Printf.sprintf "expected int on stack in %s, got %s"
          frame.method_info.method_name (Value.to_string v)))

let[@inline] push (frame : Frame.t) v =
  if frame.sp >= Frame.max_stack then stack_overflow frame;
  Array.unsafe_set frame.stack frame.sp v;
  frame.sp <- frame.sp + 1

let[@inline] pop (frame : Frame.t) =
  if frame.sp <= 0 then stack_underflow frame;
  let sp = frame.sp - 1 in
  frame.sp <- sp;
  Array.unsafe_get frame.stack sp

let[@inline] pop_int (frame : Frame.t) =
  match pop frame with Value.Int n -> n | v -> int_expected frame v

let[@inline] peek (frame : Frame.t) =
  if frame.sp <= 0 then stack_underflow frame;
  Array.unsafe_get frame.stack (frame.sp - 1)

(* Block-local top-of-stack caching (see the commentary in [compile]): a
   [vhandler] is a handler compiled against a {e full} cache — its second
   argument is the logical top of stack, which is {e not} present in
   [frame.stack]. [kont] is a continuation of either kind, matched at
   compile time against the statically-tracked cache state. *)
type vhandler = Frame.t -> Value.t -> Value.t option
type kont = KH of handler | KV of vhandler

(* Write a cached value back into the stack array. Unconditionally in
   bounds: a value is only cached after the push producing it passed its
   overflow check, and [frame.sp] cannot change while it stays cached. *)
let[@inline] spill (frame : Frame.t) v =
  Array.unsafe_set frame.stack frame.sp v;
  frame.sp <- frame.sp + 1

let[@inline] cached_int (frame : Frame.t) v =
  match v with Value.Int n -> n | v -> int_expected frame v

(* The shared step prologue: budget, retire, charge — with the retired
   count and cycle cost pre-folded by the compiler ([retired]/[cost] are
   baked constants at every call site). *)
let[@inline] pre (t : t) (m : Classfile.method_info) ~max_steps ~retired ~cost
    =
  let steps = t.steps + 1 in
  t.steps <- steps;
  if steps > max_steps then raise (Budget_exhausted max_steps);
  let stats = t.stats in
  stats.retired_instructions <- stats.retired_instructions + retired;
  stats.cycles <- stats.cycles + cost;
  if m.compiled then t.compiled_cycles <- t.compiled_cycles + cost
  else t.interpreted_cycles <- t.interpreted_cycles + cost

(* A prefetch-type instruction's cost beyond its base slot. Int-typed:
   [Stdlib.max] is the generic-compare C call, and the switch loop pays
   this on every prefetch-type instruction. *)
let[@inline] extra_cost ~base_cost cost =
  if cost > base_cost then cost - base_cost else 0

let compile (t : t) (m : Classfile.method_info) : compiled_method =
  let code = m.code in
  let n = Array.length code in
  let cm_compiled = m.compiled in
  let machine = t.opts.machine in
  let base_cost =
    if cm_compiled then machine.compiled_cost else machine.interp_cost
  in
  let max_steps = t.opts.max_steps in
  let heap = t.heap in
  let mem = t.mem in
  let method_name = m.method_name in
  let oob pc : handler =
   fun _ -> vm_error "pc %d out of bounds in %s" pc method_name
  in
  let handlers : handler array = Array.make (n + 1) (oob n) in
  (* The continuation for a taken branch at [pc] to [target]: count the
     backedge, then enter [target]'s handler — or raise the bounds error
     the switch engine would raise at its next loop top. Forward in-range
     targets are already compiled (backward fill) and bind directly;
     backward targets tie the knot through the array at run time. *)
  let taken_of ~pc target : handler =
    let backedge = target <= pc in
    let in_bounds = target >= 0 && target < n in
    match (backedge, in_bounds) with
    | false, true -> handlers.(target)
    | true, true ->
        fun frame ->
          m.backedges <- m.backedges + 1;
          (Array.unsafe_get handlers target) frame
    | false, false -> oob target
    | true, false ->
        fun _ ->
          m.backedges <- m.backedges + 1;
          vm_error "pc %d out of bounds in %s" target method_name
  in
  (* [Goto] is where the fuzz oracle's engine-desync fault injection
     lands: one extra retired instruction per executed goto, visible only
     in the full-stats cross-engine diff. *)
  let goto_retired = if t.engine_desync then 2 else 1 in

  (* ---- basic-block superinstructions ----

     Bodies are compiled as basic-block superinstructions.
     The method is partitioned at block leaders (entry, branch targets,
     and the instruction after any control transfer); within a block, the
     per-instruction prologues are folded into one batched prologue at
     the head — steps and retired count for the whole block committed at
     once — and the instruction {e bodies}, stripped of their prologues,
     thread through direct tail calls.

     Cycle charges are committed in {e segments}. A block may contain
     instructions that observe the cycle clock mid-body (a memory access
     reads [now], an allocation can charge GC cycles, a prefetch
     timestamps its fill), and each must run under exactly the
     cumulative [t.stats.cycles] the switch engine's charge-then-observe
     order produces: every instruction up to and including itself
     charged, nothing later. So the head commits the costs of the first
     segment — up to and including the first observer — and a charge
     step after each observer commits the next segment, giving
     bit-identical [now] at every observation while pure runs between
     observers still pay zero dispatch bookkeeping. [m.compiled] cannot
     flip inside a block (it flips only at an entry to [m] itself, and a
     call terminates a block — every segment charge runs before the
     [Invoke] body), so each segment's attribution test reads the same
     value the head did.

     The batched budget test [steps + k > max_steps] fires iff one of
     the k per-step tests would (the k-th is the batch test itself), and
     then falls back — before committing anything — to the block's
     per-instruction handler chain, which reproduces the exact raise
     point and partial bookkeeping of the switch engine.

     One knowingly unobservable divergence: if an instruction raises
     mid-block (stack error, division by zero, a heap fault), the whole
     block's step/retired bookkeeping and the current segment's cycle
     charges are already committed where the switch engine stops at the
     faulting instruction. Program output, the raised error and the
     frame state are still byte-identical, and no stats counter is
     readable after an aborted run — the fuzz oracle compares crashing
     cells by crash class only. *)
  let is_terminator (instr : Bytecode.instr) =
    match instr with
    | Goto _ | If_icmp _ | If _ | If_acmpeq _ | If_acmpne _ | Ifnull _
    | Ifnonnull _ | Invoke _ | Return | Ireturn | Areturn ->
        true
    | _ -> false
  in
  (* Instructions whose body observes or advances the cycle clock: the
     demand accesses read [now] against the caches, allocation can run
     the collector (which charges cycles), the prefetch family
     timestamps fills, and a call executes a callee full of all of the
     above. Each one ends a charge segment. *)
  let observes_cycles (instr : Bytecode.instr) =
    match instr with
    | Getfield _ | Putfield _ | Getstatic _ | Putstatic _ | Aaload _
    | Iaload _ | Aastore _ | Iastore _ | Arraylength _ | New _ | Newarray _
    | Prefetch_inter _ | Prefetch_dynamic _ | Prefetch_indirect _
    | Spec_load _ | Invoke _ ->
        true
    | _ -> false
  in
  let retired_of (instr : Bytecode.instr) =
    match instr with
    | Aaload _ | Iaload _ | Aastore _ | Iastore _ -> 2
    | Goto _ -> goto_retired
    | _ -> 1
  in
  (* The full cycle cost of one instruction, with the in-case charges the
     switch engine performs before any observation pre-folded: the array
     ops' second base slot, the prefetch ops' incremental cost. *)
  let cost_of (instr : Bytecode.instr) =
    match instr with
    | Aaload _ | Iaload _ | Aastore _ | Iastore _ -> 2 * base_cost
    | Prefetch_inter _ | Prefetch_dynamic _ ->
        base_cost + extra_cost ~base_cost machine.prefetch_cost
    | Spec_load _ -> base_cost + extra_cost ~base_cost machine.guarded_load_cost
    | Prefetch_indirect { guarded; _ } ->
        let full =
          if guarded then machine.guarded_load_cost else machine.prefetch_cost
        in
        base_cost + extra_cost ~base_cost full
    | _ -> base_cost
  in
  let locals_len = max m.max_locals m.arity in

  (* The prologue-free instruction body. [next] is the fall-through
     continuation: inside a block, the next body; at the block's end, the
     successor block's handler. *)
  let body ~(next : handler) pc (instr : Bytecode.instr) : handler =
    match instr with
    | Iconst k ->
        let v = Value.of_int k in
        fun frame ->
          push frame v;
          next frame
    | Aconst_null ->
        fun frame ->
          push frame Value.Null;
          next frame
    | Iload i | Aload i ->
        (* Baked bounds check: the frame executing this artifact always
           has [max max_locals arity] locals (Frame.reusable discards
           stale pooled frames, and any pass growing max_locals swaps
           [m.code], invalidating the artifact), so an in-range constant
           index can skip the runtime check. Out-of-range indices keep
           the checked access and its Invalid_argument. *)
        if i >= 0 && i < locals_len then
          fun frame ->
            push frame (Array.unsafe_get frame.locals i);
            next frame
        else
          fun frame ->
            push frame frame.locals.(i);
            next frame
    | Istore i | Astore i ->
        if i >= 0 && i < locals_len then
          fun frame ->
            Array.unsafe_set frame.locals i (pop frame);
            next frame
        else
          fun frame ->
            frame.locals.(i) <- pop frame;
            next frame
    | Dup ->
        fun frame ->
          push frame (peek frame);
          next frame
    | Pop ->
        fun frame ->
          ignore (pop frame);
          next frame
    | Iadd ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a + b));
          next frame
    | Isub ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a - b));
          next frame
    | Imul ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a * b));
          next frame
    | Idiv ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          push frame (Value.of_int (a / b));
          next frame
    | Irem ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          push frame (Value.of_int (a mod b));
          next frame
    | Ineg ->
        fun frame ->
          push frame (Value.of_int (-pop_int frame));
          next frame
    | Iand ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a land b));
          next frame
    | Ior ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lor b));
          next frame
    | Ixor ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lxor b));
          next frame
    | Ishl ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lsl (b land 63)));
          next frame
    | Ishr ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a asr (b land 63)));
          next frame
    | Goto target -> taken_of ~pc target
    | If_icmp (c, target) -> (
        let taken = taken_of ~pc target in
        match c with
        | Eq ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a = b then taken frame else next frame
        | Ne ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a <> b then taken frame else next frame
        | Lt ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a < b then taken frame else next frame
        | Ge ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a >= b then taken frame else next frame
        | Gt ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a > b then taken frame else next frame
        | Le ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a <= b then taken frame else next frame)
    | If (c, target) -> (
        let taken = taken_of ~pc target in
        match c with
        | Eq ->
            fun frame -> if pop_int frame = 0 then taken frame else next frame
        | Ne ->
            fun frame -> if pop_int frame <> 0 then taken frame else next frame
        | Lt ->
            fun frame -> if pop_int frame < 0 then taken frame else next frame
        | Ge ->
            fun frame -> if pop_int frame >= 0 then taken frame else next frame
        | Gt ->
            fun frame -> if pop_int frame > 0 then taken frame else next frame
        | Le ->
            fun frame -> if pop_int frame <= 0 then taken frame else next frame)
    | If_acmpeq target ->
        let taken = taken_of ~pc target in
        fun frame ->
          let b = pop frame in
          let a = pop frame in
          if Value.equal a b then taken frame else next frame
    | If_acmpne target ->
        let taken = taken_of ~pc target in
        fun frame ->
          let b = pop frame in
          let a = pop frame in
          if not (Value.equal a b) then taken frame else next frame
    | Ifnull target ->
        let taken = taken_of ~pc target in
        fun frame ->
          (match pop frame with
          | Value.Null -> taken frame
          | _ -> next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target in
        fun frame ->
          (match pop frame with
          | Value.Null -> next frame
          | _ -> taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site ~addr;
          push frame (Heap.get_field heap id slot);
          next frame
    | Putfield { offset; name = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        fun frame ->
          let v = pop frame in
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_plain t frame ~pc ~addr ~kind:`Store;
          Heap.set_field heap id slot v;
          next frame
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        fun frame ->
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site ~addr;
          push frame t.globals.(index);
          next frame
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        fun frame ->
          demand_plain t frame ~pc ~addr ~kind:`Store;
          t.globals.(index) <- pop frame;
          next frame
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        fun frame ->
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site:elem_site ~addr;
          push frame (Heap.get_elem heap id index);
          next frame
    | Aastore { len_site } | Iastore { len_site } ->
        fun frame ->
          let v = pop frame in
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
          demand_plain t frame ~pc ~addr ~kind:`Store;
          Heap.set_elem heap id index v;
          next frame
    | Arraylength { site } ->
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.length_addr heap id in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site ~addr;
          push frame (Value.of_int (Heap.array_length heap id));
          next frame
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let alloc () = Heap.alloc_object heap ci in
        fun frame ->
          let id = allocate t frame ~pc alloc in
          push frame (Value.Ref id);
          next frame
    | Newarray kind ->
        fun frame ->
          let len = pop_int frame in
          if len < 0 then vm_error "negative array size in %s" method_name;
          let alloc () =
            match kind with
            | Bytecode.Int_array -> Heap.alloc_int_array heap len
            | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
          in
          push frame (Value.Ref (allocate t frame ~pc alloc));
          next frame
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        fun frame ->
          let args = scratch_args t callee.arity in
          for i = callee.arity - 1 downto 0 do
            args.(i) <- pop frame
          done;
          (match call t callee args with
          | Some v -> push frame v
          | None -> ());
          next frame
    | Return -> fun _frame -> None
    | Ireturn | Areturn -> fun frame -> Some (pop frame)
    | Print ->
        fun frame ->
          let v = pop_int frame in
          Buffer.add_string t.out (string_of_int v);
          Buffer.add_char t.out '\n';
          next frame
    | Prefetch_inter { site; distance } ->
        fun frame ->
          let anchor = frame.site_addr.(site) in
          if anchor >= 0 then begin
            let addr = anchor + distance in
            audit_prefetch_addr t addr;
            Memsim.Hierarchy.sw_prefetch mem ~addr ~now:t.stats.cycles
              ~site:(-1)
          end;
          next frame
    | Spec_load { site; distance; reg } ->
        let unguarded = t.unguarded_spec_loads in
        fun frame ->
          let anchor = frame.site_addr.(site) in
          if anchor >= 0 then begin
            let addr = anchor + distance in
            audit_prefetch_addr t addr;
            Memsim.Hierarchy.guarded_load mem ~addr ~now:t.stats.cycles
              ~site:(-1);
            let v =
              match Heap.value_at heap addr with
              | Some v -> v
              | None ->
                  t.spec_guard_trips <- t.spec_guard_trips + 1;
                  if unguarded then begin
                    t.faulting_prefetches <- t.faulting_prefetches + 1;
                    vm_error
                      "unguarded spec_load faulted at address 0x%x in %s" addr
                      method_name
                  end;
                  Value.Null
            in
            frame.pref_regs.(reg) <- v
          end
          else frame.pref_regs.(reg) <- Value.Null;
          next frame
    | Prefetch_dynamic { site; times } ->
        fun frame ->
          let addr = frame.site_addr.(site) in
          let prev = frame.site_prev.(site) in
          if addr >= 0 && prev >= 0 && addr <> prev then begin
            let target = addr + ((addr - prev) * times) in
            audit_prefetch_addr t target;
            Memsim.Hierarchy.sw_prefetch mem ~addr:target ~now:t.stats.cycles
              ~site:(-1)
          end;
          next frame
    | Prefetch_indirect { reg; offset; guarded } ->
        fun frame ->
          (match frame.pref_regs.(reg) with
          | Value.Ref id when Heap.exists heap id ->
              let addr = Heap.base_of heap id + offset in
              audit_prefetch_addr t addr;
              if guarded then
                Memsim.Hierarchy.guarded_load mem ~addr ~now:t.stats.cycles
                  ~site:(-1)
              else
                Memsim.Hierarchy.sw_prefetch mem ~addr ~now:t.stats.cycles
                  ~site:(-1)
          | Value.Ref _ | Value.Int _ | Value.Null -> ());
          next frame
  in

  (* ---- top-of-stack caching within blocks ----

     Block chains additionally thread the topmost operand through a
     closure argument ([vhandler]) instead of the stack array whenever
     its position is statically known: blocks and branch targets are
     entered with the cache empty, each instruction is compiled against
     the compile-time cache state, and a cached value is spilled back
     exactly where the switch engine would have had it in the array —
     when the next instruction cannot consume it directly, at block
     exits, and before any allocation that does not consume it (the
     collector enumerates roots from [frame.stack], so a reference must
     never be cached across a GC point; [New] spills first, [Newarray]
     and [Invoke] consume the cache before allocating, and a zero-arity
     [Invoke] falls back to the spill adapter). Overflow and underflow
     tests compare the same logical depths at the same program points as
     the switch engine — a cached value counts one toward the logical
     depth — so every Stack_error fires identically.

     [body_empty] compiles an instruction whose entry cache is empty; it
     defers to [body] for every instruction that also exits empty.
     [body_full] returns [None] for instructions with no profitable
     full-cache form; [build] then inserts the spill adapter and
     compiles the empty-entry form, which is exact for any instruction
     (spilling merely materializes the logical stack). [exits_full] is
     the single source of truth for the post-state, shared by both
     paths. *)
  let exits_full (instr_ : Bytecode.instr) =
    match instr_ with
    | Iconst _ | Aconst_null | Iload _ | Aload _ | Dup | Iadd | Isub | Imul
    | Idiv | Irem | Ineg | Iand | Ior | Ixor | Ishl | Ishr | Getfield _
    | Getstatic _ | Aaload _ | Iaload _ | Arraylength _ | New _ | Newarray _
      ->
        true
    | _ -> false
  in
  let kh = function KH h -> h | KV _ -> assert false in
  let kv = function KV h -> h | KH _ -> assert false in
  let body_empty kont pc (instr_ : Bytecode.instr) : handler =
    match instr_ with
    | Iconst k ->
        let v = Value.of_int k in
        let nv = kv kont in
        fun frame ->
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame v
    | Aconst_null ->
        let nv = kv kont in
        fun frame ->
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame Value.Null
    | Iload i | Aload i ->
        let nv = kv kont in
        if i >= 0 && i < locals_len then
          fun frame ->
            if frame.sp >= Frame.max_stack then stack_overflow frame;
            nv frame (Array.unsafe_get frame.locals i)
        else
          fun frame ->
            let v = frame.locals.(i) in
            if frame.sp >= Frame.max_stack then stack_overflow frame;
            nv frame v
    | Dup ->
        let nv = kv kont in
        fun frame ->
          let v = peek frame in
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame v
    | Iadd ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a + b))
    | Isub ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a - b))
    | Imul ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a * b))
    | Idiv ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          nv frame (Value.of_int (a / b))
    | Irem ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          nv frame (Value.of_int (a mod b))
    | Ineg ->
        let nv = kv kont in
        fun frame -> nv frame (Value.of_int (-pop_int frame))
    | Iand ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a land b))
    | Ior ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a lor b))
    | Ixor ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a lxor b))
    | Ishl ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a lsl (b land 63)))
    | Ishr ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a asr (b land 63)))
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        let nv = kv kont in
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site ~addr;
          nv frame (Heap.get_field heap id slot)
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        let nv = kv kont in
        fun frame ->
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site ~addr;
          let v = t.globals.(index) in
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame v
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        let nv = kv kont in
        fun frame ->
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site:elem_site ~addr;
          nv frame (Heap.get_elem heap id index)
    | Arraylength { site } ->
        let nv = kv kont in
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.length_addr heap id in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          Frame.record_site frame ~site ~addr;
          nv frame (Value.of_int (Heap.array_length heap id))
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let alloc () = Heap.alloc_object heap ci in
        let nv = kv kont in
        fun frame ->
          let id = allocate t frame ~pc alloc in
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame (Value.Ref id)
    | Newarray kind ->
        let nv = kv kont in
        fun frame ->
          let len = pop_int frame in
          if len < 0 then vm_error "negative array size in %s" method_name;
          let alloc () =
            match kind with
            | Bytecode.Int_array -> Heap.alloc_int_array heap len
            | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
          in
          nv frame (Value.Ref (allocate t frame ~pc alloc))
    | _ -> body ~next:(kh kont) pc instr_
  in
  let body_full kont pc (instr_ : Bytecode.instr) : vhandler option =
    match instr_ with
    | Istore i | Astore i ->
        let nh = kh kont in
        Some
          (if i >= 0 && i < locals_len then fun frame v ->
             Array.unsafe_set frame.locals i v;
             nh frame
           else fun frame v ->
             frame.locals.(i) <- v;
             nh frame)
    | Pop ->
        let nh = kh kont in
        Some (fun frame _v -> nh frame)
    | Dup ->
        let nv = kv kont in
        Some
          (fun frame v ->
            if frame.sp >= Frame.max_stack - 1 then stack_overflow frame;
            spill frame v;
            nv frame v)
    | Iadd ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a + b)))
    | Isub ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a - b)))
    | Imul ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a * b)))
    | Idiv ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            if b = 0 then vm_error "division by zero in %s" method_name;
            nv frame (Value.of_int (a / b)))
    | Irem ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            if b = 0 then vm_error "division by zero in %s" method_name;
            nv frame (Value.of_int (a mod b)))
    | Ineg ->
        let nv = kv kont in
        Some (fun frame v -> nv frame (Value.of_int (-cached_int frame v)))
    | Iand ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a land b)))
    | Ior ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a lor b)))
    | Ixor ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a lxor b)))
    | Ishl ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a lsl (b land 63))))
    | Ishr ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a asr (b land 63))))
    | If_icmp (c, target) -> (
        (* Specialized per comparison (like the empty-cache path): the
           cached back-edge compare is the hottest vhandler of all, and
           baking the comparison saves [compare_int]'s dispatch on it. *)
        let taken = taken_of ~pc target in
        let next = kh kont in
        match c with
        | Eq ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a = b then taken frame else next frame)
        | Ne ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a <> b then taken frame else next frame)
        | Lt ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a < b then taken frame else next frame)
        | Ge ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a >= b then taken frame else next frame)
        | Gt ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a > b then taken frame else next frame)
        | Le ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a <= b then taken frame else next frame))
    | If (c, target) -> (
        let taken = taken_of ~pc target in
        let next = kh kont in
        match c with
        | Eq ->
            Some
              (fun frame v ->
                if cached_int frame v = 0 then taken frame else next frame)
        | Ne ->
            Some
              (fun frame v ->
                if cached_int frame v <> 0 then taken frame else next frame)
        | Lt ->
            Some
              (fun frame v ->
                if cached_int frame v < 0 then taken frame else next frame)
        | Ge ->
            Some
              (fun frame v ->
                if cached_int frame v >= 0 then taken frame else next frame)
        | Gt ->
            Some
              (fun frame v ->
                if cached_int frame v > 0 then taken frame else next frame)
        | Le ->
            Some
              (fun frame v ->
                if cached_int frame v <= 0 then taken frame else next frame))
    | If_acmpeq target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            let a = pop frame in
            if Value.equal a v then taken frame else next frame)
    | If_acmpne target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            let a = pop frame in
            if not (Value.equal a v) then taken frame else next frame)
    | Ifnull target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            match v with Value.Null -> taken frame | _ -> next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            match v with Value.Null -> next frame | _ -> taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        let nv = kv kont in
        Some
          (fun frame v ->
            let id = as_ref frame v in
            let addr = Heap.base_of heap id + offset in
            demand_plain t frame ~pc ~addr ~kind:`Load;
            Frame.record_site frame ~site ~addr;
            nv frame (Heap.get_field heap id slot))
    | Putfield { offset; name = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        let nh = kh kont in
        Some
          (fun frame v ->
            let id = as_ref frame (pop frame) in
            let addr = Heap.base_of heap id + offset in
            demand_plain t frame ~pc ~addr ~kind:`Store;
            Heap.set_field heap id slot v;
            nh frame)
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        let nh = kh kont in
        Some
          (fun frame v ->
            demand_plain t frame ~pc ~addr ~kind:`Store;
            t.globals.(index) <- v;
            nh frame)
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let index = cached_int frame v in
            let id = as_ref frame (pop frame) in
            let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
            demand_plain t frame ~pc ~addr ~kind:`Load;
            Frame.record_site frame ~site:elem_site ~addr;
            nv frame (Heap.get_elem heap id index))
    | Aastore { len_site } | Iastore { len_site } ->
        let nh = kh kont in
        Some
          (fun frame v ->
            let index = pop_int frame in
            let id = as_ref frame (pop frame) in
            let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
            demand_plain t frame ~pc ~addr ~kind:`Store;
            Heap.set_elem heap id index v;
            nh frame)
    | Arraylength { site } ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let id = as_ref frame v in
            let addr = Heap.length_addr heap id in
            demand_plain t frame ~pc ~addr ~kind:`Load;
            Frame.record_site frame ~site ~addr;
            nv frame (Value.of_int (Heap.array_length heap id)))
    | Newarray kind ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let len = cached_int frame v in
            if len < 0 then vm_error "negative array size in %s" method_name;
            let alloc () =
              match kind with
              | Bytecode.Int_array -> Heap.alloc_int_array heap len
              | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
            in
            nv frame (Value.Ref (allocate t frame ~pc alloc)))
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        if callee.arity = 0 then None
        else
          let arity = callee.arity in
          let nh = kh kont in
          Some
            (fun frame v ->
              let args = scratch_args t arity in
              args.(arity - 1) <- v;
              for i = arity - 2 downto 0 do
                args.(i) <- pop frame
              done;
              (match call t callee args with
              | Some r -> push frame r
              | None -> ());
              nh frame)
    | Ireturn | Areturn -> Some (fun _frame v -> Some v)
    | Return -> Some (fun _frame _v -> None)
    | Print ->
        let nh = kh kont in
        Some
          (fun frame v ->
            let n = cached_int frame v in
            Buffer.add_string t.out (string_of_int n);
            Buffer.add_char t.out '\n';
            nh frame)
    | _ -> None
  in

  (* Block leaders: entry, every in-range branch target, and the
     instruction after any control transfer. *)
  let leaders = Array.make (n + 1) false in
  if n > 0 then leaders.(0) <- true;
  for pc = 0 to n - 1 do
    (match code.(pc) with
    | Goto target
    | If_icmp (_, target)
    | If (_, target)
    | If_acmpeq target
    | If_acmpne target
    | Ifnull target
    | Ifnonnull target ->
        if target >= 0 && target < n then leaders.(target) <- true
    | _ -> ());
    if is_terminator code.(pc) then leaders.(pc + 1) <- true
  done;
  (* Last pc of the block led by [s]: extends through straight-line
     instructions (memory accesses included — they only end a charge
     segment) and includes its control transfer; a straight-line run is
     also cut where the next pc is a leader (someone jumps there) or
     the code ends. *)
  let rec block_end j =
    if j >= n then n - 1
    else if is_terminator code.(j) then j
    else if leaders.(j + 1) then j
    else block_end (j + 1)
  in
  (* Backward fill: at pc, every handler above pc is already compiled, so
     fall-through captures its successor directly and forward branches
     bind their target handler without indirection. *)
  for pc = n - 1 downto 0 do
    (* The per-instruction handler: prologue fused with the body. Used
       directly for single-instruction blocks, and as the exact
       fallback chain when a batched budget test fires. *)
    let standalone =
      let b = body ~next:handlers.(pc + 1) pc code.(pc) in
      let retired = retired_of code.(pc) and cost = cost_of code.(pc) in
      fun frame ->
        pre t m ~max_steps ~retired ~cost;
        b frame
    in
    handlers.(pc) <- standalone;
    if leaders.(pc) then begin
      let e = block_end pc in
      if e > pc then begin
        let k = e - pc + 1 in
        let retired_k = ref 0 in
        for j = pc to e do
          retired_k := !retired_k + retired_of code.(j)
        done;
        let retired_k = !retired_k in
        (* Cost of the charge segment starting at [j]: every
           instruction up to and including the first cycle observer
           (or the block's end). *)
        let rec seg_cost j =
          let c = cost_of code.(j) in
          if j >= e || observes_cycles code.(j) then c
          else c + seg_cost (j + 1)
        in
        (* Commit one segment's cycles, preserving the cache state.
           Reads [m.compiled] at run time like the head does; every
           segment charge in a block runs before the block's only
           possible call (its terminator), so all of them see the
           value the head saw. *)
        let charged cost (kont : kont) : kont =
          match kont with
          | KH h ->
              KH
                (fun frame ->
                  let stats = t.stats in
                  stats.cycles <- stats.cycles + cost;
                  if m.compiled then
                    t.compiled_cycles <- t.compiled_cycles + cost
                  else t.interpreted_cycles <- t.interpreted_cycles + cost;
                  h frame)
          | KV vh ->
              KV
                (fun frame v ->
                  let stats = t.stats in
                  stats.cycles <- stats.cycles + cost;
                  if m.compiled then
                    t.compiled_cycles <- t.compiled_cycles + cost
                  else t.interpreted_cycles <- t.interpreted_cycles + cost;
                  vh frame v)
        in
        (* Compile the chain against the statically-tracked cache
           state: blocks are entered with the cache empty; a full exit
           state at the block's end (or an instruction with no
           full-cache form) gets the spill adapter. *)
        let rec build j ~full : kont =
          if j > e then
            if full then
              let succ = handlers.(e + 1) in
              KV
                (fun frame v ->
                  spill frame v;
                  succ frame)
            else KH handlers.(e + 1)
          else
            let instr_ = code.(j) in
            let kont = build (j + 1) ~full:(exits_full instr_) in
            let kont =
              if j < e && observes_cycles instr_ then
                charged (seg_cost (j + 1)) kont
              else kont
            in
            if full then
              KV
                (match body_full kont j instr_ with
                | Some vh -> vh
                | None ->
                    let h = body_empty kont j instr_ in
                    fun frame v ->
                      spill frame v;
                      h frame)
            else KH (body_empty kont j instr_)
        in
        let first = kh (build pc ~full:false) in
        let cost_1 = seg_cost pc in
        handlers.(pc) <-
          (fun frame ->
            let steps = t.steps + k in
            if steps > max_steps then standalone frame
            else begin
              t.steps <- steps;
              let stats = t.stats in
              stats.retired_instructions <-
                stats.retired_instructions + retired_k;
              stats.cycles <- stats.cycles + cost_1;
              if m.compiled then
                t.compiled_cycles <- t.compiled_cycles + cost_1
              else t.interpreted_cycles <- t.interpreted_cycles + cost_1;
              first frame
            end)
      end
    end
  done;
  { cm_code = code; cm_compiled; cm_handlers = handlers }

(* Fetch (compiling or recompiling as needed) the method's artifact. The
   two-way validation catches every way an artifact can go stale: the
   JIT swapped the body (fresh code array), or the method's compiled
   flag flipped (different baked base cost). *)
let get (t : t) (m : Classfile.method_info) =
  let id = m.method_id in
  match t.closure_cache.(id) with
  | Some cm when cm.cm_code == m.code && cm.cm_compiled = m.compiled -> cm
  | _ ->
      let cm = compile t m in
      t.closure_cache.(id) <- Some cm;
      cm

let exec (t : t) (frame : Frame.t) =
  (get t frame.method_info).cm_handlers.(0) frame

let precompile (t : t) (m : Classfile.method_info) = ignore (get t m)

(* ---- the reference switch engine ---- *)

(* The profiler bin of an instruction's base execution slot (the loop
   says why; lib/strideprefetch/codegen.ml is the emitting side). *)
let[@inline] bin_of_instr (instr : Bytecode.instr) =
  match instr with
  | Prefetch_inter _ | Prefetch_dynamic _ -> Prof_pf_overhead
  | Spec_load _ -> Prof_guard_overhead
  | Prefetch_indirect { guarded; _ } ->
      if guarded then Prof_guard_overhead else Prof_pf_overhead
  | _ -> Prof_retire

let[@inline] compare_int (c : Bytecode.cmp) (a : int) (b : int) =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b
  | Le -> a <= b

(* The reference switch engine: one fetch/decode loop iteration per
   instruction. Keep it in lockstep with [compile]: any change to this
   loop needs the mirrored change there. [Invoke] recurses through
   [State.call], which dispatches the callee through whichever engine is
   wired — the engines compose. Results are pushed through
   [Value.of_int] and arguments staged in [State.scratch_args], as the
   closure handlers do; neither is observable, since values are only
   compared structurally.

   Its prologue is the closure handlers' [pre] (steps, budget, retire,
   charge) followed by [mon_poll], where [State.charge] polls. The fetch
   and the [frame.pc] advance run between the two: they read and write
   nothing [pre] touches, so every observable keeps the reference order
   in the header. *)
let exec_switch (t : t) (frame : Frame.t) =
  let m = frame.method_info in
  let code = m.code in
  let n = Array.length code in
  let base_cost =
    if m.compiled then t.opts.machine.compiled_cost
    else t.opts.machine.interp_cost
  in
  let max_steps = t.opts.max_steps in
  let result = ref None in
  let running = ref true in
  while !running do
    let pc = frame.pc in
    if pc < 0 || pc >= n then
      vm_error "pc %d out of bounds in %s" pc m.method_name;
    pre t m ~max_steps ~retired:1 ~cost:base_cost;
    let instr = Array.unsafe_get code pc in
    frame.pc <- pc + 1;
    mon_poll t;
    (* The base slot of a prefetch-type instruction is itself overhead
       the optimization added — it bins as pf/guard overhead, not
       retire, so the profiler's overhead bins carry the full cost of
       the pass's inserted code. The classifying match only runs when a
       profiler is installed. *)
    (match t.prof with
    | Some p ->
        p.on_cycles ~method_id:m.method_id ~pc ~bin:(bin_of_instr instr)
          ~cycles:base_cost
    | None -> ());
    (match instr with
    | Iconst k -> push frame (Value.of_int k)
    | Aconst_null -> push frame Value.Null
    | Iload i | Aload i -> push frame frame.locals.(i)
    | Istore i | Astore i -> frame.locals.(i) <- pop frame
    | Dup -> push frame (peek frame)
    | Pop -> ignore (pop frame)
    | Iadd ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a + b))
    | Isub ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a - b))
    | Imul ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a * b))
    | Idiv ->
        let b = pop_int frame in
        let a = pop_int frame in
        if b = 0 then vm_error "division by zero in %s" m.method_name;
        push frame (Value.of_int (a / b))
    | Irem ->
        let b = pop_int frame in
        let a = pop_int frame in
        if b = 0 then vm_error "division by zero in %s" m.method_name;
        push frame (Value.of_int (a mod b))
    | Ineg -> push frame (Value.of_int (-pop_int frame))
    | Iand ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a land b))
    | Ior ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a lor b))
    | Ixor ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a lxor b))
    | Ishl ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a lsl (b land 63)))
    | Ishr ->
        let b = pop_int frame in
        let a = pop_int frame in
        push frame (Value.of_int (a asr (b land 63)))
    | Goto target ->
        if target <= pc then m.backedges <- m.backedges + 1;
        frame.pc <- target
    | If_icmp (c, target) ->
        let b = pop_int frame in
        let a = pop_int frame in
        if compare_int c a b then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | If (c, target) ->
        let a = pop_int frame in
        if compare_int c a 0 then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | If_acmpeq target ->
        let b = pop frame in
        let a = pop frame in
        if Value.equal a b then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | If_acmpne target ->
        let b = pop frame in
        let a = pop frame in
        if not (Value.equal a b) then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | Ifnull target -> (
        match pop frame with
        | Value.Null ->
            if target <= pc then m.backedges <- m.backedges + 1;
            frame.pc <- target
        | Value.Int _ | Value.Ref _ -> ())
    | Ifnonnull target -> (
        match pop frame with
        | Value.Null -> ()
        | Value.Int _ | Value.Ref _ ->
            if target <= pc then m.backedges <- m.backedges + 1;
            frame.pc <- target)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let id = as_ref frame (pop frame) in
        let addr = Heap.base_of t.heap id + offset in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~site;
        observe_load t frame ~site ~addr;
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        push frame (Heap.get_field t.heap id slot)
    | Putfield { offset; name = _ } ->
        let v = pop frame in
        let id = as_ref frame (pop frame) in
        let addr = Heap.base_of t.heap id + offset in
        demand t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~kind:`Store;
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        Heap.set_field t.heap id slot v
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:(-1) ~addr ~site;
        observe_load t frame ~site ~addr;
        push frame t.globals.(index)
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        demand t frame ~pc:(frame.pc - 1) ~obj:(-1) ~addr ~kind:`Store;
        t.globals.(index) <- pop frame
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        retire t 1;
        charge t frame base_cost;
        prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_retire
          ~cycles:base_cost;
        let index = pop_int frame in
        let id = as_ref frame (pop frame) in
        let addr = array_access t frame ~pc:(frame.pc - 1) ~len_site ~id ~index in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~site:elem_site;
        observe_load t frame ~site:elem_site ~addr;
        push frame (Heap.get_elem t.heap id index)
    | Aastore { len_site } | Iastore { len_site } ->
        retire t 1;
        charge t frame base_cost;
        prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_retire
          ~cycles:base_cost;
        let v = pop frame in
        let index = pop_int frame in
        let id = as_ref frame (pop frame) in
        let addr = array_access t frame ~pc:(frame.pc - 1) ~len_site ~id ~index in
        demand t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~kind:`Store;
        Heap.set_elem t.heap id index v
    | Arraylength { site } ->
        let id = as_ref frame (pop frame) in
        let addr = Heap.length_addr t.heap id in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~site;
        observe_load t frame ~site ~addr;
        push frame (Value.of_int (Heap.array_length t.heap id))
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let id = allocate t frame ~pc:(frame.pc - 1) (fun () -> Heap.alloc_object t.heap ci) in
        push frame (Value.Ref id)
    | Newarray kind ->
        let len = pop_int frame in
        if len < 0 then vm_error "negative array size in %s" m.method_name;
        let alloc () =
          match kind with
          | Bytecode.Int_array -> Heap.alloc_int_array t.heap len
          | Bytecode.Ref_array -> Heap.alloc_ref_array t.heap len
        in
        push frame (Value.Ref (allocate t frame ~pc:(frame.pc - 1) alloc))
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        let args = scratch_args t callee.arity in
        for i = callee.arity - 1 downto 0 do
          args.(i) <- pop frame
        done;
        (match call t callee args with
        | Some v -> push frame v
        | None -> ())
    | Return -> running := false
    | Ireturn | Areturn ->
        result := Some (pop frame);
        running := false
    | Print ->
        let v = pop_int frame in
        Buffer.add_string t.out (string_of_int v);
        Buffer.add_char t.out '\n'
    | Prefetch_inter { site; distance } ->
        let extra = extra_cost ~base_cost t.opts.machine.prefetch_cost in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_pf_overhead
            ~cycles:extra;
        let anchor = frame.site_addr.(site) in
        if anchor >= 0 then begin
          let addr = anchor + distance in
          audit_prefetch_addr t addr;
          let sid =
            match t.telem with
            | None -> -1
            | Some tl ->
                Telemetry.Attrib.site_id tl.registry
                  (Telemetry.Attrib.Inter_site
                     { method_id = m.method_id; site })
          in
          Memsim.Hierarchy.sw_prefetch t.mem ~addr ~now:(now t) ~site:sid
        end
    | Spec_load { site; distance; reg } ->
        let extra = extra_cost ~base_cost t.opts.machine.guarded_load_cost in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_guard_overhead
            ~cycles:extra;
        let anchor = frame.site_addr.(site) in
        if anchor >= 0 then begin
          let addr = anchor + distance in
          audit_prefetch_addr t addr;
          let sid =
            match t.telem with
            | None -> -1
            | Some tl ->
                Telemetry.Attrib.site_id tl.registry
                  (Telemetry.Attrib.Spec_site
                     { method_id = m.method_id; site; reg })
          in
          Memsim.Hierarchy.guarded_load t.mem ~addr ~now:(now t) ~site:sid;
          let v =
            match Heap.value_at t.heap addr with
            | Some v -> v
            | None ->
                (* The guard: a speculative load whose address fell outside
                   every live object yields Null instead of faulting
                   (Section 3.3's "loads guarded by software exception
                   checks"). [Fault.Unguarded_spec_loads] disables the
                   guard to let the fuzzing oracle prove it would catch
                   the resulting fault. *)
                t.spec_guard_trips <- t.spec_guard_trips + 1;
                if t.unguarded_spec_loads then begin
                  t.faulting_prefetches <- t.faulting_prefetches + 1;
                  vm_error
                    "unguarded spec_load faulted at address 0x%x in %s" addr
                    frame.Frame.method_info.method_name
                end;
                Value.Null
          in
          frame.pref_regs.(reg) <- v
        end
        else frame.pref_regs.(reg) <- Value.Null
    | Prefetch_dynamic { site; times } ->
        let extra = extra_cost ~base_cost t.opts.machine.prefetch_cost in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_pf_overhead
            ~cycles:extra;
        let addr = frame.site_addr.(site) and prev = frame.site_prev.(site) in
        if addr >= 0 && prev >= 0 && addr <> prev then begin
          let target = addr + ((addr - prev) * times) in
          audit_prefetch_addr t target;
          let sid =
            match t.telem with
            | None -> -1
            | Some tl ->
                Telemetry.Attrib.site_id tl.registry
                  (Telemetry.Attrib.Dynamic_site
                     { method_id = m.method_id; site })
          in
          Memsim.Hierarchy.sw_prefetch t.mem ~addr:target ~now:(now t)
            ~site:sid
        end
    | Prefetch_indirect { reg; offset; guarded } ->
        let cost =
          if guarded then t.opts.machine.guarded_load_cost
          else t.opts.machine.prefetch_cost
        in
        let extra = extra_cost ~base_cost cost in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc
            ~bin:(if guarded then Prof_guard_overhead else Prof_pf_overhead)
            ~cycles:extra;
        (match frame.pref_regs.(reg) with
        | Value.Ref id when Heap.exists t.heap id -> (
            let addr = Heap.base_of t.heap id + offset in
            audit_prefetch_addr t addr;
            let sid =
              match t.telem with
              | None -> -1
              | Some tl ->
                  Telemetry.Attrib.site_id tl.registry
                    (Telemetry.Attrib.Indirect_site
                       { method_id = m.method_id; reg; offset })
            in
            (if guarded then Memsim.Hierarchy.guarded_load
             else Memsim.Hierarchy.sw_prefetch)
              t.mem ~addr ~now:(now t) ~site:sid)
        | Value.Ref _ | Value.Int _ | Value.Null -> ()));
    ()
  done;
  !result
