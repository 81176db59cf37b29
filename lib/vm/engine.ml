(* Both execution engines (DESIGN.md section 10): the closure-compiled
   engine and, at the end of this file, the reference switch engine
   ([exec_switch], the classic fetch/decode loop).

   They share one compilation unit so that one copy of the operand-stack
   primitives, of the [pre] step prologue and of every instruction's
   effect serves both loops. Each effect (the memory, allocation, call,
   print and prefetch instructions) is one [@inline] function of its
   operands that returns its result. Its [~observed] argument is a
   constant at every call site: the reference loop passes [true] and gets
   the observer-aware [State] helpers, the closure handlers pass [false]
   and inline a path straight to the hierarchy. The integer operators and
   comparisons are [Bytecode.int_op] and [Bytecode.compare], named by a
   constant constructor wherever a closure is built, so each folds to its
   operator. The default build (release profile, no [-opaque]) inlines
   all of these and the small helpers they call in other modules:
   [State]'s charging and memory helpers, [Heap]'s accessors, the
   hierarchy's demand path. A [--profile dev] build turns those into
   calls, which costs host time only.

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
   in [State]'s helpers, the observed effects and [exec_switch] alone.

   Bit-identity with the switch engine is the hard contract (enforced by
   test/test_engine.ml and the fuzz oracle's engine axis). Since the
   effects are shared, the engine diff proves what the two engines do not
   share: the operand plumbing, the batching, the segmented charges and
   the cache adapters. A wrong effect moves both engines alike; the
   pinned numbers catch it instead (benchmark/expected.json, @bench-gate's
   cycles, bin/expected/). The exact reference sequence per instruction
   is:

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
   [frame.stack]. [kont] is a handler of either kind, matched at compile
   time against the statically-tracked cache state. *)
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

(* A producer's hand-off to a full-cache continuation: the overflow test
   [push] would make, after which the value stays cached (the invariant
   [spill] relies on). *)
let[@inline] pass nv (frame : Frame.t) v =
  if frame.sp >= Frame.max_stack then stack_overflow frame;
  nv frame v

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

(* ---- instruction effects ----

   One function per instruction effect, shared by both engines. Operands
   arrive as arguments in the order the reference pops them; what a
   closure computes at compile time (a field slot, a static's address)
   stays an argument. An effect never builds a closure: the non-flambda
   compiler would not inline it. *)

let[@inline never] division_by_zero (frame : Frame.t) =
  vm_error "division by zero in %s" frame.method_info.method_name

let[@inline never] negative_array_size (frame : Frame.t) =
  vm_error "negative array size in %s" frame.method_info.method_name

(* A binary integer instruction [op], a constant at every closure: its
   right operand [top] is already taken, the left one is popped. The
   divisor test is written with [==] so that it folds for a constant
   [op]; a [match] would compile to a range test on it. *)
let[@inline] arith (frame : Frame.t) op top =
  let b = cached_int frame top in
  let a = pop_int frame in
  if (op == Bytecode.Idiv || op == Bytecode.Irem) && b = 0 then
    division_by_zero frame;
  Value.of_int (Bytecode.int_op op a b)

(* [If_icmp c]'s test, its right operand [top] already taken, and
   [If c]'s test of [top] against zero. *)
let[@inline] icmp (frame : Frame.t) c top =
  let b = cached_int frame top in
  Bytecode.compare c (pop_int frame) b

let[@inline] ifz (frame : Frame.t) c top =
  Bytecode.compare c (cached_int frame top) 0

let[@inline] slot_of offset =
  (offset - Classfile.header_bytes) / Classfile.slot_bytes

let[@inline] static_addr index =
  Classfile.statics_base + (index * Classfile.slot_bytes)

let[@inline] getfield t frame ~observed ~pc ~site ~offset ~slot v =
  let id = as_ref frame v in
  let addr = Heap.base_of t.heap id + offset in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Load ~site;
  Heap.get_field t.heap id slot

let[@inline] putfield t frame ~observed ~pc ~offset ~slot obj v =
  let id = as_ref frame obj in
  let addr = Heap.base_of t.heap id + offset in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Store ~site:(-1);
  Heap.set_field t.heap id slot v

let[@inline] getstatic t frame ~observed ~pc ~site ~index ~addr =
  demand t frame ~observed ~pc ~obj:(-1) ~addr ~kind:`Load ~site;
  t.globals.(index)

let[@inline] putstatic t frame ~observed ~pc ~index ~addr v =
  demand t frame ~observed ~pc ~obj:(-1) ~addr ~kind:`Store ~site:(-1);
  t.globals.(index) <- v

(* [Aaload]/[Iaload]: the length load and bounds check, then the element
   load. *)
let[@inline] array_load t frame ~observed ~pc ~len_site ~elem_site arr index =
  let id = as_ref frame arr in
  let addr = array_addr t frame ~observed ~pc ~len_site ~id ~index in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Load ~site:elem_site;
  Heap.get_elem t.heap id index

let[@inline] array_store t frame ~observed ~pc ~len_site arr index v =
  let id = as_ref frame arr in
  let addr = array_addr t frame ~observed ~pc ~len_site ~id ~index in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Store ~site:(-1);
  Heap.set_elem t.heap id index v

let[@inline] arraylength t frame ~observed ~pc ~site arr =
  let id = as_ref frame arr in
  let addr = Heap.length_addr t.heap id in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Load ~site;
  Value.of_int (Heap.array_length t.heap id)

let[@inline] new_object t frame ~pc ci =
  Value.Ref (allocate t frame ~pc Heap.alloc_object ci)

let[@inline] newarray t frame ~pc (kind : Bytecode.array_kind) len =
  if len < 0 then negative_array_size frame;
  let alloc =
    match kind with
    | Int_array -> Heap.alloc_int_array
    | Ref_array -> Heap.alloc_ref_array
  in
  Value.Ref (allocate t frame ~pc alloc len)

(* Stage the [n] arguments below those already taken into [args]. *)
let[@inline] pop_args frame (args : Value.t array) n =
  for i = n - 1 downto 0 do
    args.(i) <- pop frame
  done

(* [Invoke] with its arguments staged in [args] (a [State.scratch_args]
   buffer): the call, then its result pushed. *)
let[@inline] invoke t frame callee args =
  match call t callee args with Some v -> push frame v | None -> ()

let[@inline] print t n =
  Buffer.add_string t.out (string_of_int n);
  Buffer.add_char t.out '\n'

(* The prefetch family. Observed, each registers its structural site key
   for the hierarchy's attribution; unobserved no attribution is
   installed, so the hierarchy is handed -1. *)
let[@inline] prefetch_inter t (frame : Frame.t) ~observed ~site ~distance =
  let anchor = frame.site_addr.(site) in
  if anchor >= 0 then begin
    let addr = anchor + distance in
    audit_prefetch_addr t addr;
    let sid =
      if observed then
        match t.telem with
        | Some tl ->
            Telemetry.Attrib.site_id tl.registry
              (Telemetry.Attrib.Inter_site
                 { method_id = frame.method_info.method_id; site })
        | None -> -1
      else -1
    in
    Memsim.Hierarchy.sw_prefetch t.mem ~addr ~now:t.stats.cycles ~site:sid
  end

(* The guard: a speculative load whose address fell outside every live
   object yields Null instead of faulting (Section 3.3's "loads guarded by
   software exception checks"). [Fault.Unguarded_spec_loads] disables
   the guard to let the fuzzing oracle prove it would catch the resulting
   fault. *)
let[@inline never] spec_guard_trip t (frame : Frame.t) addr =
  t.spec_guard_trips <- t.spec_guard_trips + 1;
  if t.unguarded_spec_loads then begin
    t.faulting_prefetches <- t.faulting_prefetches + 1;
    vm_error "unguarded spec_load faulted at address 0x%x in %s" addr
      frame.method_info.method_name
  end;
  Value.Null

let[@inline] spec_load t (frame : Frame.t) ~observed ~site ~distance ~reg =
  let anchor = frame.site_addr.(site) in
  if anchor >= 0 then begin
    let addr = anchor + distance in
    audit_prefetch_addr t addr;
    let sid =
      if observed then
        match t.telem with
        | Some tl ->
            Telemetry.Attrib.site_id tl.registry
              (Telemetry.Attrib.Spec_site
                 { method_id = frame.method_info.method_id; site; reg })
        | None -> -1
      else -1
    in
    Memsim.Hierarchy.guarded_load t.mem ~addr ~now:t.stats.cycles ~site:sid;
    frame.pref_regs.(reg) <-
      (match Heap.value_at t.heap addr with
      | Some v -> v
      | None -> spec_guard_trip t frame addr)
  end
  else frame.pref_regs.(reg) <- Value.Null

let[@inline] prefetch_dynamic t (frame : Frame.t) ~observed ~site ~times =
  let addr = frame.site_addr.(site) and prev = frame.site_prev.(site) in
  if addr >= 0 && prev >= 0 && addr <> prev then begin
    let target = addr + ((addr - prev) * times) in
    audit_prefetch_addr t target;
    let sid =
      if observed then
        match t.telem with
        | Some tl ->
            Telemetry.Attrib.site_id tl.registry
              (Telemetry.Attrib.Dynamic_site
                 { method_id = frame.method_info.method_id; site })
        | None -> -1
      else -1
    in
    Memsim.Hierarchy.sw_prefetch t.mem ~addr:target ~now:t.stats.cycles
      ~site:sid
  end

let[@inline] prefetch_indirect t (frame : Frame.t) ~observed ~reg ~offset
    ~guarded =
  match frame.pref_regs.(reg) with
  | Value.Ref id when Heap.exists t.heap id ->
      let addr = Heap.base_of t.heap id + offset in
      audit_prefetch_addr t addr;
      let sid =
        if observed then
          match t.telem with
          | Some tl ->
              Telemetry.Attrib.site_id tl.registry
                (Telemetry.Attrib.Indirect_site
                   { method_id = frame.method_info.method_id; reg; offset })
          | None -> -1
        else -1
      in
      if guarded then
        Memsim.Hierarchy.guarded_load t.mem ~addr ~now:t.stats.cycles ~site:sid
      else
        Memsim.Hierarchy.sw_prefetch t.mem ~addr ~now:t.stats.cycles ~site:sid
  | Value.Ref _ | Value.Int _ | Value.Null -> ()

let compile (t : t) (m : Classfile.method_info) : compiled_method =
  let code = m.code in
  let n = Array.length code in
  let cm_compiled = m.compiled in
  let machine = t.opts.machine in
  let base_cost =
    if cm_compiled then machine.compiled_cost else machine.interp_cost
  in
  let max_steps = t.opts.max_steps in
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

  (* ---- top-of-stack caching within blocks ----

     Chains additionally thread the topmost operand through a closure
     argument ([vhandler]) instead of the stack array whenever its
     position is statically known: blocks are entered with the cache
     empty, and a cached value is spilled back exactly where the switch
     engine would have had it in the array — when the next instruction
     does not consume it, at block exits, and before any allocation that
     does not consume it (the collector enumerates roots from
     [frame.stack], so a reference must never be cached across a GC
     point; [New] spills first, [Newarray] and [Invoke] consume the cache
     before allocating, and a zero-arity [Invoke] spills). Overflow and
     underflow tests compare the same logical depths at the same program
     points as the switch engine — a cached value counts one toward the
     logical depth — so every Stack_error fires identically.

     [form] gives each instruction one closure. A consumer (any
     instruction that pops) takes its top operand as the [vhandler]
     argument; every other instruction is a plain [handler], and a
     producer passes its result on through [pass]. [enter] fits a form
     to the cache state it is entered in: a consumer entered empty gets
     the pop adapter, whose underflow test and popped value are the ones
     the reference's first pop sees ([cached_int] then makes the
     reference's int test); a non-consumer entered full gets the spill
     adapter. Over the 12 paper programs (Pentium4, INTER+INTRA) a
     consumer is entered empty on 1.37% of its executions, so the pop
     adapter's extra call lands on under 1% of retired instructions.
     Behind it the pop comes first, so [Putstatic] pops before its store
     demand, on the reference loop too; the order can only show in a
     body that underflows there, which raises the same error either way.
     Whether a form takes the top operand is the single source of truth
     for the pre-state, [exits_full] for the post-state. *)
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
  let enter ~full (form : kont) : kont =
    match (form, full) with
    | KV vh, false -> KH (fun frame -> vh frame (pop frame))
    | KH h, true ->
        KV
          (fun frame v ->
            spill frame v;
            h frame)
    | (KV _ | KH _), _ -> form
  in
  let form kont pc (instr_ : Bytecode.instr) : kont =
    match instr_ with
    | Iconst k ->
        let v = Value.of_int k and nv = kv kont in
        KH (fun frame -> pass nv frame v)
    | Aconst_null ->
        let nv = kv kont in
        KH (fun frame -> pass nv frame Value.Null)
    | Iload i | Aload i ->
        (* Baked bounds check: the frame executing this artifact always
           has [max max_locals arity] locals (Frame.reusable discards
           stale pooled frames, and any pass growing max_locals swaps
           [m.code], invalidating the artifact), so an in-range constant
           index can skip the runtime check. Out-of-range indices keep
           the checked access and its Invalid_argument. *)
        let nv = kv kont in
        KH
          (if i >= 0 && i < locals_len then fun frame ->
             pass nv frame (Array.unsafe_get frame.locals i)
           else fun frame -> pass nv frame frame.locals.(i))
    | Istore i | Astore i ->
        let nh = kh kont in
        KV
          (if i >= 0 && i < locals_len then fun frame v ->
             Array.unsafe_set frame.locals i v;
             nh frame
           else fun frame v ->
             frame.locals.(i) <- v;
             nh frame)
    | Dup ->
        let nv = kv kont in
        KV
          (fun frame v ->
            if frame.sp >= Frame.max_stack - 1 then stack_overflow frame;
            spill frame v;
            nv frame v)
    | Pop ->
        let nh = kh kont in
        KV (fun frame _v -> nh frame)
    | Iadd ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Iadd v))
    | Isub ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Isub v))
    | Imul ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Imul v))
    | Idiv ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Idiv v))
    | Irem ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Irem v))
    | Iand ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Iand v))
    | Ior ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Ior v))
    | Ixor ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Ixor v))
    | Ishl ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Ishl v))
    | Ishr ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (arith frame Ishr v))
    | Ineg ->
        let nv = kv kont in
        KV (fun frame v -> nv frame (Value.of_int (-cached_int frame v)))
    | Goto target -> KH (taken_of ~pc target)
    | If_icmp (c, target) ->
        (* One closure per comparison: the cached back-edge compare is the
           hottest handler of all, and a constant comparison saves
           [Bytecode.compare]'s dispatch on it. *)
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (match c with
          | Eq ->
              fun frame v ->
                if icmp frame Eq v then taken frame else next frame
          | Ne ->
              fun frame v ->
                if icmp frame Ne v then taken frame else next frame
          | Lt ->
              fun frame v ->
                if icmp frame Lt v then taken frame else next frame
          | Ge ->
              fun frame v ->
                if icmp frame Ge v then taken frame else next frame
          | Gt ->
              fun frame v ->
                if icmp frame Gt v then taken frame else next frame
          | Le ->
              fun frame v ->
                if icmp frame Le v then taken frame else next frame)
    | If (c, target) ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (match c with
          | Eq ->
              fun frame v ->
                if ifz frame Eq v then taken frame else next frame
          | Ne ->
              fun frame v ->
                if ifz frame Ne v then taken frame else next frame
          | Lt ->
              fun frame v ->
                if ifz frame Lt v then taken frame else next frame
          | Ge ->
              fun frame v ->
                if ifz frame Ge v then taken frame else next frame
          | Gt ->
              fun frame v ->
                if ifz frame Gt v then taken frame else next frame
          | Le ->
              fun frame v ->
                if ifz frame Le v then taken frame else next frame)
    | If_acmpeq target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame v ->
            if Value.equal (pop frame) v then taken frame else next frame)
    | If_acmpne target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame v ->
            if Value.equal (pop frame) v then next frame else taken frame)
    | Ifnull target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame v ->
            match v with Value.Null -> taken frame | _ -> next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame v ->
            match v with Value.Null -> next frame | _ -> taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = slot_of offset and nv = kv kont in
        KV
          (fun frame v ->
            nv frame
              (getfield t frame ~observed:false ~pc ~site ~offset ~slot v))
    | Putfield { offset; name = _ } ->
        let slot = slot_of offset and nh = kh kont in
        KV
          (fun frame v ->
            putfield t frame ~observed:false ~pc ~offset ~slot (pop frame) v;
            nh frame)
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = static_addr index and nv = kv kont in
        KH
          (fun frame ->
            pass nv frame
              (getstatic t frame ~observed:false ~pc ~site ~index ~addr))
    | Putstatic { index; name = _ } ->
        let addr = static_addr index and nh = kh kont in
        KV
          (fun frame v ->
            putstatic t frame ~observed:false ~pc ~index ~addr v;
            nh frame)
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        let nv = kv kont in
        KV
          (fun frame v ->
            let index = cached_int frame v in
            nv frame
              (array_load t frame ~observed:false ~pc ~len_site ~elem_site
                 (pop frame) index))
    | Aastore { len_site } | Iastore { len_site } ->
        let nh = kh kont in
        KV
          (fun frame v ->
            let index = pop_int frame in
            array_store t frame ~observed:false ~pc ~len_site (pop frame) index
              v;
            nh frame)
    | Arraylength { site } ->
        let nv = kv kont in
        KV
          (fun frame v ->
            nv frame (arraylength t frame ~observed:false ~pc ~site v))
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id and nv = kv kont in
        KH (fun frame -> pass nv frame (new_object t frame ~pc ci))
    | Newarray kind ->
        let nv = kv kont in
        KV
          (fun frame v ->
            nv frame (newarray t frame ~pc kind (cached_int frame v)))
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        let arity = callee.arity and nh = kh kont in
        if arity = 0 then
          KH
            (fun frame ->
              invoke t frame callee (scratch_args t 0);
              nh frame)
        else
          KV
            (fun frame v ->
              let args = scratch_args t arity in
              args.(arity - 1) <- v;
              pop_args frame args (arity - 1);
              invoke t frame callee args;
              nh frame)
    | Return -> KH (fun _frame -> None)
    | Ireturn | Areturn -> KV (fun _frame v -> Some v)
    | Print ->
        let nh = kh kont in
        KV
          (fun frame v ->
            print t (cached_int frame v);
            nh frame)
    | Prefetch_inter { site; distance } ->
        let nh = kh kont in
        KH
          (fun frame ->
            prefetch_inter t frame ~observed:false ~site ~distance;
            nh frame)
    | Spec_load { site; distance; reg } ->
        let nh = kh kont in
        KH
          (fun frame ->
            spec_load t frame ~observed:false ~site ~distance ~reg;
            nh frame)
    | Prefetch_dynamic { site; times } ->
        let nh = kh kont in
        KH
          (fun frame ->
            prefetch_dynamic t frame ~observed:false ~site ~times;
            nh frame)
    | Prefetch_indirect { reg; offset; guarded } ->
        let nh = kh kont in
        KH
          (fun frame ->
            prefetch_indirect t frame ~observed:false ~reg ~offset ~guarded;
            nh frame)
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
  (* Cost of the charge segment of a block ending at [e] that starts at
     [j]: every instruction up to and including the first cycle observer
     (or the block's end). *)
  let rec seg_cost ~e j =
    let c = cost_of code.(j) in
    if j >= e || observes_cycles code.(j) then c else c + seg_cost ~e (j + 1)
  in
  (* Commit one segment's cycles, preserving the cache state. Reads
     [m.compiled] at run time like the head does; every segment charge in
     a block runs before the block's only possible call (its terminator),
     so all of them see the value the head saw. *)
  let charged cost (kont : kont) : kont =
    match kont with
    | KH h ->
        KH
          (fun frame ->
            let stats = t.stats in
            stats.cycles <- stats.cycles + cost;
            if m.compiled then t.compiled_cycles <- t.compiled_cycles + cost
            else t.interpreted_cycles <- t.interpreted_cycles + cost;
            h frame)
    | KV vh ->
        KV
          (fun frame v ->
            let stats = t.stats in
            stats.cycles <- stats.cycles + cost;
            if m.compiled then t.compiled_cycles <- t.compiled_cycles + cost
            else t.interpreted_cycles <- t.interpreted_cycles + cost;
            vh frame v)
  in
  (* The chain of forms for pcs [j..e], entered in cache state [full]: the
     successor handler at [e + 1] is entered empty (through the spill
     adapter when [e] leaves a value cached), and a charge step follows
     every cycle observer but the last. *)
  let rec chain j ~e ~full : kont =
    if j > e then enter ~full (KH handlers.(e + 1))
    else
      let instr_ = code.(j) in
      let kont = chain (j + 1) ~e ~full:(exits_full instr_) in
      let kont =
        if j < e && observes_cycles instr_ then
          charged (seg_cost ~e (j + 1)) kont
        else kont
      in
      enter ~full (form kont j instr_)
  in
  (* The per-instruction handler: the prologue, then a one-instruction
     chain. It runs single-instruction blocks, and the fallback chain of
     a block whose batched budget test fired. A fallback chain runs at
     most once: the budget runs out inside its block, which ends the
     run. So only a single-instruction block's handler is built up
     front; the others are built when a fallback chain reaches them. *)
  let standalone pc : handler =
    let h = kh (chain pc ~e:pc ~full:false) in
    let retired = retired_of code.(pc) and cost = cost_of code.(pc) in
    fun frame ->
      pre t m ~max_steps ~retired ~cost;
      h frame
  in
  (* Backward fill: at pc, every handler above pc is already compiled, so
     fall-through captures its successor directly and forward branches
     bind their target handler without indirection. Only a fallback
     chain enters a pc that is not a leader. *)
  for pc = n - 1 downto 0 do
    let e = if leaders.(pc) then block_end pc else pc in
    handlers.(pc) <-
      (if not leaders.(pc) then fun frame -> standalone pc frame
       else if e = pc then standalone pc
       else begin
         let k = e - pc + 1 in
         let retired_k = ref 0 in
         for j = pc to e do
           retired_k := !retired_k + retired_of code.(j)
         done;
         let retired_k = !retired_k in
         let first = kh (chain pc ~e ~full:false) in
         let cost_1 = seg_cost ~e pc in
         fun frame ->
           let steps = t.steps + k in
           if steps > max_steps then standalone pc frame
           else begin
             t.steps <- steps;
             let stats = t.stats in
             stats.retired_instructions <-
               stats.retired_instructions + retired_k;
             stats.cycles <- stats.cycles + cost_1;
             if m.compiled then t.compiled_cycles <- t.compiled_cycles + cost_1
             else t.interpreted_cycles <- t.interpreted_cycles + cost_1;
             first frame
           end
       end)
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

(* A taken branch: count a backedge, then move the pc. *)
let[@inline] jump (m : Classfile.method_info) (frame : Frame.t) ~pc target =
  if target <= pc then m.backedges <- m.backedges + 1;
  frame.pc <- target

(* An array instruction's second base slot, charged and binned before its
   accesses. *)
let[@inline] second_slot t (frame : Frame.t) ~pc ~base_cost =
  retire t 1;
  charge t frame base_cost;
  prof_cycles t ~method_id:frame.method_info.method_id ~pc ~bin:Prof_retire
    ~cycles:base_cost

(* A prefetch-type instruction's cost beyond its base slot, charged and
   binned as the overhead the optimization added. *)
let[@inline] overhead t (frame : Frame.t) ~pc ~base_cost ~bin cost =
  let extra = extra_cost ~base_cost cost in
  charge t frame extra;
  if extra > 0 then
    prof_cycles t ~method_id:frame.method_info.method_id ~pc ~bin
      ~cycles:extra

(* The reference switch engine: one fetch/decode loop iteration per
   instruction, one arm per instruction, each calling the effect the
   closure handlers call. Keep it in lockstep with [compile]: any change
   to this loop needs the mirrored change there. [Invoke] recurses
   through [State.call], which dispatches the callee through whichever
   engine is wired — the engines compose. Results are pushed through
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
  let machine = t.opts.machine in
  let base_cost =
    if m.compiled then machine.compiled_cost else machine.interp_cost
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
    match instr with
    | Iconst k -> push frame (Value.of_int k)
    | Aconst_null -> push frame Value.Null
    | Iload i | Aload i -> push frame frame.locals.(i)
    | Istore i | Astore i -> frame.locals.(i) <- pop frame
    | Dup -> push frame (peek frame)
    | Pop -> ignore (pop frame)
    | Iadd -> push frame (arith frame Iadd (pop frame))
    | Isub -> push frame (arith frame Isub (pop frame))
    | Imul -> push frame (arith frame Imul (pop frame))
    | Idiv -> push frame (arith frame Idiv (pop frame))
    | Irem -> push frame (arith frame Irem (pop frame))
    | Iand -> push frame (arith frame Iand (pop frame))
    | Ior -> push frame (arith frame Ior (pop frame))
    | Ixor -> push frame (arith frame Ixor (pop frame))
    | Ishl -> push frame (arith frame Ishl (pop frame))
    | Ishr -> push frame (arith frame Ishr (pop frame))
    | Ineg -> push frame (Value.of_int (-pop_int frame))
    | Goto target -> jump m frame ~pc target
    | If_icmp (c, target) ->
        if icmp frame c (pop frame) then jump m frame ~pc target
    | If (c, target) -> if ifz frame c (pop frame) then jump m frame ~pc target
    | If_acmpeq target ->
        let b = pop frame in
        if Value.equal (pop frame) b then jump m frame ~pc target
    | If_acmpne target ->
        let b = pop frame in
        if not (Value.equal (pop frame) b) then jump m frame ~pc target
    | Ifnull target -> (
        match pop frame with
        | Value.Null -> jump m frame ~pc target
        | Value.Int _ | Value.Ref _ -> ())
    | Ifnonnull target -> (
        match pop frame with
        | Value.Null -> ()
        | Value.Int _ | Value.Ref _ -> jump m frame ~pc target)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        push frame
          (getfield t frame ~observed:true ~pc ~site ~offset
             ~slot:(slot_of offset) (pop frame))
    | Putfield { offset; name = _ } ->
        let v = pop frame in
        putfield t frame ~observed:true ~pc ~offset ~slot:(slot_of offset)
          (pop frame) v
    | Getstatic { site; index; name = _; is_ref = _ } ->
        push frame
          (getstatic t frame ~observed:true ~pc ~site ~index
             ~addr:(static_addr index))
    | Putstatic { index; name = _ } ->
        putstatic t frame ~observed:true ~pc ~index ~addr:(static_addr index)
          (pop frame)
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        second_slot t frame ~pc ~base_cost;
        let index = pop_int frame in
        push frame
          (array_load t frame ~observed:true ~pc ~len_site ~elem_site
             (pop frame) index)
    | Aastore { len_site } | Iastore { len_site } ->
        second_slot t frame ~pc ~base_cost;
        let v = pop frame in
        let index = pop_int frame in
        array_store t frame ~observed:true ~pc ~len_site (pop frame) index v
    | Arraylength { site } ->
        push frame (arraylength t frame ~observed:true ~pc ~site (pop frame))
    | New class_id ->
        push frame
          (new_object t frame ~pc (Classfile.class_of_id t.program class_id))
    | Newarray kind -> push frame (newarray t frame ~pc kind (pop_int frame))
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        let args = scratch_args t callee.arity in
        pop_args frame args callee.arity;
        invoke t frame callee args
    | Return -> running := false
    | Ireturn | Areturn ->
        result := Some (pop frame);
        running := false
    | Print -> print t (pop_int frame)
    | Prefetch_inter { site; distance } ->
        overhead t frame ~pc ~base_cost ~bin:Prof_pf_overhead
          machine.prefetch_cost;
        prefetch_inter t frame ~observed:true ~site ~distance
    | Spec_load { site; distance; reg } ->
        overhead t frame ~pc ~base_cost ~bin:Prof_guard_overhead
          machine.guarded_load_cost;
        spec_load t frame ~observed:true ~site ~distance ~reg
    | Prefetch_dynamic { site; times } ->
        overhead t frame ~pc ~base_cost ~bin:Prof_pf_overhead
          machine.prefetch_cost;
        prefetch_dynamic t frame ~observed:true ~site ~times
    | Prefetch_indirect { reg; offset; guarded } ->
        if guarded then
          overhead t frame ~pc ~base_cost ~bin:Prof_guard_overhead
            machine.guarded_load_cost
        else
          overhead t frame ~pc ~base_cost ~bin:Prof_pf_overhead
            machine.prefetch_cost;
        prefetch_indirect t frame ~observed:true ~reg ~offset ~guarded
  done;
  !result
