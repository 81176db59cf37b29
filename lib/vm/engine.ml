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

   Every value here is an unboxed (payload, tag) pair of ints, as
   [Value] encodes it: the stack primitives push and pop pairs, a cached
   top of stack is two handler arguments, and an effect takes its
   operands as pairs. Storing one is a plain int move, so the hot path
   allocates nothing and calls no write barrier ([caml_modify]).
   Handlers return whether the method returned a value, which travels in
   [t.ret_p]/[t.ret_tag].

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

   and the compiled handlers replay it with four compile-time
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
   - A local load or a constant that the next instruction consumes is
     read by that instruction's handler, which makes the push's capacity
     test itself (the deferred operands below); the push still retires
     and is charged in its block.

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

(* The operand-stack primitives of both loops. Values are (payload, tag)
   pairs (DESIGN.md section 10): [push] takes both ints, and [pop] and
   [peek] return the index of the slot, whose pair the caller reads from
   [frame.stack] before its next push. The happy path is a capacity test
   and plain int moves; growth and the raising code (string building)
   stay out of line, so each primitive is small enough to inline at
   every use. Every index below [frame.sp] is in bounds, because [sp]
   only grows past a [Frame.reserve]. *)

let[@inline never] stack_underflow (frame : Frame.t) =
  raise
    (Frame.Stack_error
       ("operand stack underflow in " ^ frame.method_info.method_name))

let[@inline never] int_expected (frame : Frame.t) p tag =
  raise
    (Frame.Stack_error
       (Printf.sprintf "expected int on stack in %s, got %s"
          frame.method_info.method_name
          (Value.to_string (Value.of_pair p tag))))

let[@inline] push (frame : Frame.t) p tag =
  let sp = frame.sp in
  Frame.reserve frame (sp + 1);
  Value.set frame.stack sp p tag;
  frame.sp <- sp + 1

let[@inline] pop (frame : Frame.t) =
  let sp = frame.sp - 1 in
  if sp < 0 then stack_underflow frame;
  frame.sp <- sp;
  sp

let[@inline] peek (frame : Frame.t) =
  let sp = frame.sp - 1 in
  if sp < 0 then stack_underflow frame;
  sp

let[@inline] cached_int (frame : Frame.t) p tag =
  if tag <> Value.tag_int then int_expected frame p tag;
  p

(* The pair in operand-stack slot [i], an index [pop] or [peek]
   returned. *)
let[@inline] stack_p (frame : Frame.t) i = Value.payload frame.stack i
let[@inline] stack_tag (frame : Frame.t) i = Value.tag frame.stack i

let[@inline] pop_int (frame : Frame.t) =
  let i = pop frame in
  cached_int frame (stack_p frame i) (stack_tag frame i)

(* A deferred operand's side of the stack primitives (see the commentary
   in [compile]): the capacity test of the pushes a folded handler skips,
   [d] slots above [frame.sp], and an in-range local read for an int
   consumer, with the int test its pop would make. *)
let[@inline] room (frame : Frame.t) d = Frame.reserve frame (frame.sp + d)

let[@inline] local_int (frame : Frame.t) i =
  let l = frame.locals in
  cached_int frame (Value.payload l i) (Value.tag l i)

(* Block-local top-of-stack caching (see the commentary in [compile]): a
   [vhandler] is a handler compiled against a {e full} cache — its last
   two arguments are the pair on top of the logical stack, which is
   {e not} present in [frame.stack]. [kont] is a handler of either kind,
   matched at compile time against the statically-tracked cache
   state. *)
type vhandler = Frame.t -> int -> int -> bool
type kont = KH of handler | KV of vhandler

(* Write a cached value back into the stack array. Unconditionally in
   bounds: a value is only cached once its slot is reserved (by [pass],
   or as the slot a consumer's operand vacated), and [frame.sp] cannot
   change while it stays cached. *)
let[@inline] spill (frame : Frame.t) p tag =
  Value.set frame.stack frame.sp p tag;
  frame.sp <- frame.sp + 1

(* A producer's hand-off to a full-cache continuation: the capacity test
   [push] would make, after which the value stays cached (the invariant
   [spill] relies on). *)
let[@inline] pass nv (frame : Frame.t) p tag =
  Frame.reserve frame (frame.sp + 1);
  nv frame p tag

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
   arrive as arguments in the order the reference pops them, each value
   as its (payload, tag) pair; what a closure computes at compile time (a
   field slot, a static's address) stays an argument. A loading effect
   returns what it loads from (a field array, an array's contents, the
   statics), and the caller reads the pair from it: a returned tuple
   would be allocated, and a continuation argument would be called
   through [caml_applyN] rather than inlined. An effect never builds a
   closure: the non-flambda compiler would not inline it. *)

let[@inline never] division_by_zero (frame : Frame.t) =
  vm_error "division by zero in %s" frame.method_info.method_name

let[@inline never] negative_array_size (frame : Frame.t) =
  vm_error "negative array size in %s" frame.method_info.method_name

(* A binary integer instruction [op] on its int operands, the right one
   [b] taken first. [op] is a constant at every closure but the folded
   forms of the operators after [Imul]. The divisor test is written with
   [==] so that it folds for a constant [op]; a [match] would compile to
   a range test on it. *)
let[@inline] int_result (frame : Frame.t) op a b =
  if (op == Bytecode.Idiv || op == Bytecode.Irem) && b = 0 then
    division_by_zero frame;
  Bytecode.int_op op a b

(* [op]'s result handed to a full-cache continuation. *)
let[@inline] int_to (frame : Frame.t) op a b (nv : vhandler) =
  nv frame (int_result frame op a b) Value.tag_int

(* The folded forms of a binary operator [op] (see the commentary in
   [compile]): its right operand is local [x] or the constant [k], its
   left one the cached top [(p, tag)] or local [i]. Each makes the
   capacity test of the pushes it skips, then takes the right operand
   and then the left one. *)
let[@inline] top_local frame op p tag x nv =
  room frame 2;
  let b = local_int frame x in
  int_to frame op (cached_int frame p tag) b nv

let[@inline] top_const frame op p tag k nv =
  room frame 2;
  int_to frame op (cached_int frame p tag) k nv

let[@inline] local_local frame op i x nv =
  room frame 2;
  let b = local_int frame x in
  int_to frame op (local_int frame i) b nv

let[@inline] local_const frame op i k nv =
  room frame 2;
  int_to frame op (local_int frame i) k nv

(* [op] with its right operand [(p, tag)] already taken and the left one
   popped. *)
let[@inline] arith (frame : Frame.t) op p tag =
  let b = cached_int frame p tag in
  int_result frame op (pop_int frame) b

(* [If_icmp c]'s test, its right operand already taken, and [If c]'s
   test of the top against zero. *)
let[@inline] icmp (frame : Frame.t) c p tag =
  let b = cached_int frame p tag in
  Bytecode.compare c (pop_int frame) b

let[@inline] ifz (frame : Frame.t) c p tag =
  Bytecode.compare c (cached_int frame p tag) 0

(* [If_acmpeq]'s test, its right operand already taken. *)
let[@inline] acmp (frame : Frame.t) p tag =
  let i = pop frame in
  Value.same (stack_p frame i) (stack_tag frame i) p tag

let[@inline] slot_of offset =
  (offset - Classfile.header_bytes) / Classfile.slot_bytes

let[@inline] static_addr index =
  Classfile.statics_base + (index * Classfile.slot_bytes)

(* The field slots of the object, [slot] among them: read or written
   at [slot] by the caller. *)
let[@inline] getfield t frame ~observed ~pc ~site ~offset ~slot p tag =
  let id = as_ref frame p tag in
  let addr = Heap.base_of t.heap id + offset in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Load ~site;
  Heap.fields t.heap id ~slot

(* A folded [Getfield] of local [x], its result handed to [nv]. *)
let[@inline] getfield_local t (frame : Frame.t) ~pc ~site ~offset ~slot x
    (nv : vhandler) =
  let l = frame.locals in
  let f =
    getfield t frame ~observed:false ~pc ~site ~offset ~slot (Value.payload l x)
      (Value.tag l x)
  in
  nv frame (Value.payload f slot) (Value.tag f slot)

let[@inline] putfield t frame ~observed ~pc ~offset ~slot op otag p tag =
  let id = as_ref frame op otag in
  let addr = Heap.base_of t.heap id + offset in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Store ~site:(-1);
  Value.set (Heap.fields t.heap id ~slot) slot p tag

(* The statics, [index] among them. *)
let[@inline] getstatic t frame ~observed ~pc ~site ~index ~addr =
  demand t frame ~observed ~pc ~obj:(-1) ~addr ~kind:`Load ~site;
  Value.check t.globals index;
  t.globals

let[@inline] putstatic t frame ~observed ~pc ~index ~addr p tag =
  demand t frame ~observed ~pc ~obj:(-1) ~addr ~kind:`Store ~site:(-1);
  Value.check t.globals index;
  Value.set t.globals index p tag

(* [Aaload]/[Iaload]: the length load and bounds check, then the element
   load; the array's contents, [index] in bounds. *)
let[@inline] array_load t frame ~observed ~pc ~len_site ~elem_site ap atag
    index =
  let id = as_ref frame ap atag in
  let addr = array_addr t frame ~observed ~pc ~len_site ~id ~index in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Load ~site:elem_site;
  Heap.elems t.heap id

let[@inline] array_store t frame ~observed ~pc ~len_site ap atag index p tag =
  let id = as_ref frame ap atag in
  let addr = array_addr t frame ~observed ~pc ~len_site ~id ~index in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Store ~site:(-1);
  Heap.store_elem t.heap id index p tag

let[@inline] arraylength t frame ~observed ~pc ~site ap atag =
  let id = as_ref frame ap atag in
  let addr = Heap.length_addr t.heap id in
  demand t frame ~observed ~pc ~obj:id ~addr ~kind:`Load ~site;
  Heap.array_length t.heap id

(* The new object's id. *)
let[@inline] new_object t frame ~pc ci =
  allocate t frame ~pc Heap.alloc_object ci

let[@inline] newarray t frame ~pc (kind : Bytecode.array_kind) len =
  if len < 0 then negative_array_size frame;
  let alloc =
    match kind with
    | Int_array -> Heap.alloc_int_array
    | Ref_array -> Heap.alloc_ref_array
  in
  allocate t frame ~pc alloc len

(* Stage the [n] arguments below those already taken into [args]. *)
let[@inline] pop_args frame (args : Value.slots) n =
  for i = n - 1 downto 0 do
    let j = pop frame in
    Value.set args i (stack_p frame j) (stack_tag frame j)
  done

(* [Invoke] with its arguments staged in [args] (a [State.scratch_args]
   buffer): the call, then its result pushed. *)
let[@inline] invoke t frame callee args =
  if call t callee args then push frame t.ret_p t.ret_tag

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
  -1

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
    let id = Heap.ref_at t.heap addr in
    frame.pref_regs.(reg) <-
      (if id = Heap.no_slot then spec_guard_trip t frame addr else id)
  end
  else frame.pref_regs.(reg) <- -1

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
  let id = frame.pref_regs.(reg) in
  if Heap.exists t.heap id then begin
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
  end

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
     before allocating, and a zero-arity [Invoke] spills). Capacity and
     underflow tests compare the same logical depths at the same program
     points as the switch engine — a cached value counts one toward the
     logical depth, and [Frame.reserve] raises the overflow only past
     [max_stack] — so every Stack_error fires identically. A cached
     value always has a slot: [pass] reserves it, and [Dup] reserves two
     before it spills.

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
    | KV vh, false ->
        KH
          (fun frame ->
            let i = pop frame in
            vh frame (stack_p frame i) (stack_tag frame i))
    | KH h, true ->
        KV
          (fun frame p tag ->
            spill frame p tag;
            h frame)
    | (KV _ | KH _), _ -> form
  in
  let form kont pc (instr_ : Bytecode.instr) : kont =
    match instr_ with
    | Iconst k ->
        let nv = kv kont in
        KH (fun frame -> pass nv frame k Value.tag_int)
    | Aconst_null ->
        let nv = kv kont in
        KH (fun frame -> pass nv frame Value.null_payload Value.tag_null)
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
             let l = frame.locals in
             pass nv frame (Value.payload l i) (Value.tag l i)
           else fun frame ->
             let l = frame.locals in
             Value.check l i;
             pass nv frame (Value.payload l i) (Value.tag l i))
    | Istore i | Astore i ->
        let nh = kh kont in
        KV
          (if i >= 0 && i < locals_len then fun frame p tag ->
             Value.set frame.locals i p tag;
             nh frame
           else fun frame p tag ->
             Value.check frame.locals i;
             Value.set frame.locals i p tag;
             nh frame)
    | Dup ->
        let nv = kv kont in
        KV
          (fun frame p tag ->
            Frame.reserve frame (frame.sp + 2);
            spill frame p tag;
            nv frame p tag)
    | Pop ->
        let nh = kh kont in
        KV (fun frame _p _tag -> nh frame)
    | Iadd ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Iadd p tag) Value.tag_int)
    | Isub ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Isub p tag) Value.tag_int)
    | Imul ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Imul p tag) Value.tag_int)
    | Idiv ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Idiv p tag) Value.tag_int)
    | Irem ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Irem p tag) Value.tag_int)
    | Iand ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Iand p tag) Value.tag_int)
    | Ior ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Ior p tag) Value.tag_int)
    | Ixor ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Ixor p tag) Value.tag_int)
    | Ishl ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Ishl p tag) Value.tag_int)
    | Ishr ->
        let nv = kv kont in
        KV (fun frame p tag -> nv frame (arith frame Ishr p tag) Value.tag_int)
    | Ineg ->
        let nv = kv kont in
        KV
          (fun frame p tag ->
            nv frame (-cached_int frame p tag) Value.tag_int)
    | Goto target -> KH (taken_of ~pc target)
    | If_icmp (c, target) ->
        (* One closure per comparison: the cached back-edge compare is the
           hottest handler of all, and a constant comparison saves
           [Bytecode.compare]'s dispatch on it. *)
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (match c with
          | Eq ->
              fun frame p tag ->
                if icmp frame Eq p tag then taken frame else next frame
          | Ne ->
              fun frame p tag ->
                if icmp frame Ne p tag then taken frame else next frame
          | Lt ->
              fun frame p tag ->
                if icmp frame Lt p tag then taken frame else next frame
          | Ge ->
              fun frame p tag ->
                if icmp frame Ge p tag then taken frame else next frame
          | Gt ->
              fun frame p tag ->
                if icmp frame Gt p tag then taken frame else next frame
          | Le ->
              fun frame p tag ->
                if icmp frame Le p tag then taken frame else next frame)
    | If (c, target) ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (match c with
          | Eq ->
              fun frame p tag ->
                if ifz frame Eq p tag then taken frame else next frame
          | Ne ->
              fun frame p tag ->
                if ifz frame Ne p tag then taken frame else next frame
          | Lt ->
              fun frame p tag ->
                if ifz frame Lt p tag then taken frame else next frame
          | Ge ->
              fun frame p tag ->
                if ifz frame Ge p tag then taken frame else next frame
          | Gt ->
              fun frame p tag ->
                if ifz frame Gt p tag then taken frame else next frame
          | Le ->
              fun frame p tag ->
                if ifz frame Le p tag then taken frame else next frame)
    | If_acmpeq target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame p tag ->
            if acmp frame p tag then taken frame else next frame)
    | If_acmpne target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame p tag ->
            if acmp frame p tag then next frame else taken frame)
    | Ifnull target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame _p tag ->
            if tag = Value.tag_null then taken frame else next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target and next = kh kont in
        KV
          (fun frame _p tag ->
            if tag = Value.tag_null then next frame else taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = slot_of offset and nv = kv kont in
        KV
          (fun frame p tag ->
            let f =
              getfield t frame ~observed:false ~pc ~site ~offset ~slot p tag
            in
            nv frame (Value.payload f slot) (Value.tag f slot))
    | Putfield { offset; name = _ } ->
        let slot = slot_of offset and nh = kh kont in
        KV
          (fun frame p tag ->
            let o = pop frame in
            putfield t frame ~observed:false ~pc ~offset ~slot
              (stack_p frame o) (stack_tag frame o) p tag;
            nh frame)
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = static_addr index and nv = kv kont in
        KH
          (fun frame ->
            let g =
              getstatic t frame ~observed:false ~pc ~site ~index ~addr
            in
            pass nv frame (Value.payload g index) (Value.tag g index))
    | Putstatic { index; name = _ } ->
        let addr = static_addr index and nh = kh kont in
        KV
          (fun frame p tag ->
            putstatic t frame ~observed:false ~pc ~index ~addr p tag;
            nh frame)
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        let nv = kv kont in
        KV
          (fun frame p tag ->
            let index = cached_int frame p tag in
            let a = pop frame in
            let e =
              array_load t frame ~observed:false ~pc ~len_site ~elem_site
                (stack_p frame a) (stack_tag frame a) index
            in
            nv frame (Heap.elem_payload e index) (Heap.elem_tag e index))
    | Aastore { len_site } | Iastore { len_site } ->
        let nh = kh kont in
        KV
          (fun frame p tag ->
            let index = pop_int frame in
            let a = pop frame in
            array_store t frame ~observed:false ~pc ~len_site
              (stack_p frame a) (stack_tag frame a) index p
              tag;
            nh frame)
    | Arraylength { site } ->
        let nv = kv kont in
        KV
          (fun frame p tag ->
            nv frame
              (arraylength t frame ~observed:false ~pc ~site p tag)
              Value.tag_int)
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id and nv = kv kont in
        KH
          (fun frame ->
            pass nv frame (new_object t frame ~pc ci) Value.tag_ref)
    | Newarray kind ->
        let nv = kv kont in
        KV
          (fun frame p tag ->
            nv frame
              (newarray t frame ~pc kind (cached_int frame p tag))
              Value.tag_ref)
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
            (fun frame p tag ->
              let args = scratch_args t arity in
              Value.set args (arity - 1) p tag;
              pop_args frame args (arity - 1);
              invoke t frame callee args;
              nh frame)
    | Return -> KH (fun _frame -> false)
    | Ireturn | Areturn ->
        KV
          (fun _frame p tag ->
            t.ret_p <- p;
            t.ret_tag <- tag;
            true)
    | Print ->
        let nh = kh kont in
        KV
          (fun frame p tag ->
            print t (cached_int frame p tag);
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

  (* ---- deferred operands ----

     An [Iload]/[Aload] of an in-range local or an [Iconst] that the very
     next instruction of the block consumes gets no handler of its own:
     the consumer's closure reads the local or the constant itself. So do
     two such pushes, a local then a local or a constant, feeding the
     binary consumer right after them. [fold] picks the form at a pc and
     the pcs it covers, so [chain] stays one loop for every width.

     Adjacent only: nothing runs between a skipped push and its consumer
     (no store to the local, no allocation, no call, no block exit), so
     the consumer reads the value the push would have pushed, and a
     deferred operand is never spilled. A folded handler does what the
     reference loop does, in its order: first the capacity test of the
     skipped pushes ([room], at the logical depth the last one reaches),
     then the pops and int tests, top of stack first. So every
     [Stack_error] and [Vm_error] fires with the same message. An
     out-of-range local is never deferred: it keeps the checked path and
     its [Invalid_argument]. The skipped pushes still count in the block's
     retired instructions and charge segments, and the per-instruction
     fallback chain is a one-pc block, which never folds.

     The shapes are the ones the coverage probe ranks highest over the 12
     paper programs (DESIGN.md section 10): [Iadd], [Isub] and [Imul] get
     a closure per operand kind, the other binary operators and [If_icmp]
     share one per kind. A one-push integer consumer folds only with its
     other operand cached: entered empty, all of them add up to 0.32% of
     retired instructions. [Getfield] and [Arraylength] entered full spill
     the cached top themselves; the other forms that take no cached top,
     the two-push ones among them, run behind the spill adapter when
     entered full. *)
  let deferred (instr_ : Bytecode.instr) =
    match instr_ with
    | Iload i | Aload i -> i >= 0 && i < locals_len
    | Iconst _ -> true
    | _ -> false
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
          (fun frame p tag ->
            let stats = t.stats in
            stats.cycles <- stats.cycles + cost;
            if m.compiled then t.compiled_cycles <- t.compiled_cycles + cost
            else t.interpreted_cycles <- t.interpreted_cycles + cost;
            vh frame p tag)
  in
  (* The chain of forms for pcs [j..e], entered in cache state [full]: the
     successor handler at [e + 1] is entered empty (through the spill
     adapter when [e] leaves a value cached), and a charge step follows
     every cycle observer but the last. A folded form covers pcs [j..l]
     and goes on with [after ~e l]; the plain path spells [after] out, so
     a run of unfolded pcs stays one self-recursive call per pc (a call
     through [after] for each of them made compiling about 10% slower). *)
  let rec chain j ~e ~full : kont =
    if j > e then enter ~full (KH handlers.(e + 1))
    else
      let instr_ = code.(j) in
      match if deferred instr_ then fold j ~e ~full instr_ else None with
      | Some f -> enter ~full f
      | None ->
          let kont = chain (j + 1) ~e ~full:(exits_full instr_) in
          let kont =
            if j < e && observes_cycles instr_ then
              charged (seg_cost ~e (j + 1)) kont
            else kont
          in
          enter ~full (form kont j instr_)
  (* What follows the folded form that ends at pc [l]. *)
  and after ~e l =
    let instr_ = code.(l) in
    let kont = chain (l + 1) ~e ~full:(exits_full instr_) in
    if l < e && observes_cycles instr_ then charged (seg_cost ~e (l + 1)) kont
    else kont
  (* The folded form at the deferred push [a] at pc [j], entered in cache
     state [full]: two deferred pushes and their consumer, or one push and
     its consumer. A deferred push is passed on as its instruction, which
     allocates nothing. *)
  and fold j ~e ~full (a : Bytecode.instr) =
    let two =
      match a with
      | (Iload i | Aload i) when j + 2 <= e && deferred code.(j + 1) ->
          fold2 ~e (j + 2) code.(j + 2) i code.(j + 1)
      | _ -> None
    in
    match two with
    | None when j + 1 <= e -> fold1 ~e (j + 1) ~full code.(j + 1) a
    | _ -> two
  (* The consumer [c] at [pc], entered in cache state [full], with its top
     operand, the push [b], deferred. *)
  and fold1 ~e pc ~full (c : Bytecode.instr) (b : Bytecode.instr) =
    match (c, b, full) with
    | (Iadd | Isub | Imul | Idiv | Irem | Iand | Ior | Ixor | Ishl | Ishr),
      (Iload x | Aload x), true ->
        let nv = kv (after ~e pc) in
        Some
          (match c with
          | Iadd -> KV (fun frame p tag -> top_local frame Iadd p tag x nv)
          | Isub -> KV (fun frame p tag -> top_local frame Isub p tag x nv)
          | Imul -> KV (fun frame p tag -> top_local frame Imul p tag x nv)
          | _ -> KV (fun frame p tag -> top_local frame c p tag x nv))
    | (Iadd | Isub | Imul | Idiv | Irem | Iand | Ior | Ixor | Ishl | Ishr),
      Iconst k, true ->
        let nv = kv (after ~e pc) in
        Some
          (match c with
          | Iadd -> KV (fun frame p tag -> top_const frame Iadd p tag k nv)
          | Isub -> KV (fun frame p tag -> top_const frame Isub p tag k nv)
          | Imul -> KV (fun frame p tag -> top_const frame Imul p tag k nv)
          | _ -> KV (fun frame p tag -> top_const frame c p tag k nv))
    | If_icmp (cmp, target), (Iload x | Aload x), true ->
        let taken = taken_of ~pc target and next = kh (after ~e pc) in
        Some
          (KV
             (fun frame p tag ->
               room frame 2;
               let b = local_int frame x in
               if Bytecode.compare cmp (cached_int frame p tag) b then
                 taken frame
               else next frame))
    | If_icmp (cmp, target), Iconst k, true ->
        let taken = taken_of ~pc target and next = kh (after ~e pc) in
        Some
          (KV
             (fun frame p tag ->
               room frame 2;
               if Bytecode.compare cmp (cached_int frame p tag) k then
                 taken frame
               else next frame))
    | ( (Aaload { len_site; elem_site } | Iaload { len_site; elem_site }),
        (Iload x | Aload x),
        true ) ->
        let nv = kv (after ~e pc) in
        Some
          (KV
             (fun frame p tag ->
               room frame 2;
               let index = local_int frame x in
               let e =
                 array_load t frame ~observed:false ~pc ~len_site ~elem_site p
                   tag index
               in
               nv frame (Heap.elem_payload e index) (Heap.elem_tag e index)))
    | Getfield { site; offset; name = _; is_ref = _ }, (Iload x | Aload x), _ ->
        let slot = slot_of offset and nv = kv (after ~e pc) in
        Some
          (if full then
             KV
               (fun frame p tag ->
                 room frame 2;
                 spill frame p tag;
                 getfield_local t frame ~pc ~site ~offset ~slot x nv)
           else
             KH
               (fun frame ->
                 room frame 1;
                 getfield_local t frame ~pc ~site ~offset ~slot x nv))
    | Arraylength { site }, (Iload x | Aload x), true ->
        let nv = kv (after ~e pc) in
        Some
          (KV
             (fun frame p tag ->
               room frame 2;
               spill frame p tag;
               let l = frame.locals in
               nv frame
                 (arraylength t frame ~observed:false ~pc ~site
                    (Value.payload l x) (Value.tag l x))
                 Value.tag_int))
    | (Istore s | Astore s), (Iload x | Aload x), _
      when s >= 0 && s < locals_len ->
        let nh = kh (after ~e pc) in
        Some
          (KH
             (fun frame ->
               room frame 1;
               let l = frame.locals in
               Value.set l s (Value.payload l x) (Value.tag l x);
               nh frame))
    | (Istore s | Astore s), Iconst k, _ when s >= 0 && s < locals_len ->
        let nh = kh (after ~e pc) in
        Some
          (KH
             (fun frame ->
               room frame 1;
               Value.set frame.locals s k Value.tag_int;
               nh frame))
    | Ireturn, Iconst k, _ ->
        Some
          (KH
             (fun frame ->
               room frame 1;
               t.ret_p <- k;
               t.ret_tag <- Value.tag_int;
               true))
    | _ -> None
  (* The binary consumer [c] at [pc], entered empty, with both operands
     deferred: local [i] below the push [b]. *)
  and fold2 ~e pc (c : Bytecode.instr) i (b : Bytecode.instr) =
    match (c, b) with
    | ( (Iadd | Isub | Imul | Idiv | Irem | Iand | Ior | Ixor | Ishl | Ishr),
        (Iload x | Aload x) ) ->
        let nv = kv (after ~e pc) in
        Some
          (match c with
          | Iadd -> KH (fun frame -> local_local frame Iadd i x nv)
          | Isub -> KH (fun frame -> local_local frame Isub i x nv)
          | Imul -> KH (fun frame -> local_local frame Imul i x nv)
          | _ -> KH (fun frame -> local_local frame c i x nv))
    | ( (Iadd | Isub | Imul | Idiv | Irem | Iand | Ior | Ixor | Ishl | Ishr),
        Iconst k ) ->
        let nv = kv (after ~e pc) in
        Some
          (match c with
          | Iadd -> KH (fun frame -> local_const frame Iadd i k nv)
          | Isub -> KH (fun frame -> local_const frame Isub i k nv)
          | Imul -> KH (fun frame -> local_const frame Imul i k nv)
          | _ -> KH (fun frame -> local_const frame c i k nv))
    | If_icmp (cmp, target), (Iload x | Aload x) ->
        let taken = taken_of ~pc target and next = kh (after ~e pc) in
        Some
          (KH
             (fun frame ->
               room frame 2;
               let b = local_int frame x in
               if Bytecode.compare cmp (local_int frame i) b then taken frame
               else next frame))
    | If_icmp (cmp, target), Iconst k ->
        let taken = taken_of ~pc target and next = kh (after ~e pc) in
        Some
          (KH
             (fun frame ->
               room frame 2;
               if Bytecode.compare cmp (local_int frame i) k then taken frame
               else next frame))
    | ( (Aaload { len_site; elem_site } | Iaload { len_site; elem_site }),
        (Iload x | Aload x) ) ->
        let nv = kv (after ~e pc) in
        Some
          (KH
             (fun frame ->
               room frame 2;
               let index = local_int frame x in
               let l = frame.locals in
               let e =
                 array_load t frame ~observed:false ~pc ~len_site ~elem_site
                   (Value.payload l i) (Value.tag l i) index
               in
               nv frame (Heap.elem_payload e index) (Heap.elem_tag e index)))
    | _ -> None
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

(* A binary integer instruction [op] (a constant at every use): both
   operands popped, the result pushed. *)
let[@inline] binop (frame : Frame.t) op =
  let j = pop frame in
  push frame (arith frame op (stack_p frame j) (stack_tag frame j)) Value.tag_int

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
   engine is wired — the engines compose. Arguments are staged in
   [State.scratch_args] and results return through [t.ret_p]/[t.ret_tag],
   as on the closure handlers.

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
  let result = ref false in
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
    | Iconst k -> push frame k Value.tag_int
    | Aconst_null -> push frame Value.null_payload Value.tag_null
    | Iload i | Aload i ->
        let l = frame.locals in
        Value.check l i;
        push frame (Value.payload l i) (Value.tag l i)
    | Istore i | Astore i ->
        let j = pop frame in
        Value.check frame.locals i;
        Value.set frame.locals i (stack_p frame j) (stack_tag frame j)
    | Dup ->
        let j = peek frame in
        push frame (stack_p frame j) (stack_tag frame j)
    | Pop -> ignore (pop frame)
    | Iadd -> binop frame Iadd
    | Isub -> binop frame Isub
    | Imul -> binop frame Imul
    | Idiv -> binop frame Idiv
    | Irem -> binop frame Irem
    | Iand -> binop frame Iand
    | Ior -> binop frame Ior
    | Ixor -> binop frame Ixor
    | Ishl -> binop frame Ishl
    | Ishr -> binop frame Ishr
    | Ineg -> push frame (-pop_int frame) Value.tag_int
    | Goto target -> jump m frame ~pc target
    | If_icmp (c, target) ->
        let j = pop frame in
        if icmp frame c (stack_p frame j) (stack_tag frame j) then
          jump m frame ~pc target
    | If (c, target) ->
        let j = pop frame in
        if ifz frame c (stack_p frame j) (stack_tag frame j) then
          jump m frame ~pc target
    | If_acmpeq target ->
        let j = pop frame in
        if acmp frame (stack_p frame j) (stack_tag frame j) then
          jump m frame ~pc target
    | If_acmpne target ->
        let j = pop frame in
        if not (acmp frame (stack_p frame j) (stack_tag frame j)) then
          jump m frame ~pc target
    | Ifnull target ->
        if stack_tag frame (pop frame) = Value.tag_null then
          jump m frame ~pc target
    | Ifnonnull target ->
        if stack_tag frame (pop frame) <> Value.tag_null then
          jump m frame ~pc target
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = slot_of offset and j = pop frame in
        let f =
          getfield t frame ~observed:true ~pc ~site ~offset ~slot
            (stack_p frame j) (stack_tag frame j)
        in
        push frame (Value.payload f slot) (Value.tag f slot)
    | Putfield { offset; name = _ } ->
        let v = pop frame in
        let o = pop frame in
        putfield t frame ~observed:true ~pc ~offset ~slot:(slot_of offset)
          (stack_p frame o) (stack_tag frame o) (stack_p frame v)
          (stack_tag frame v)
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let g =
          getstatic t frame ~observed:true ~pc ~site ~index
            ~addr:(static_addr index)
        in
        push frame (Value.payload g index) (Value.tag g index)
    | Putstatic { index; name = _ } ->
        let j = pop frame in
        putstatic t frame ~observed:true ~pc ~index ~addr:(static_addr index)
          (stack_p frame j) (stack_tag frame j)
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        second_slot t frame ~pc ~base_cost;
        let index = pop_int frame in
        let a = pop frame in
        let e =
          array_load t frame ~observed:true ~pc ~len_site ~elem_site
            (stack_p frame a) (stack_tag frame a) index
        in
        push frame (Heap.elem_payload e index) (Heap.elem_tag e index)
    | Aastore { len_site } | Iastore { len_site } ->
        second_slot t frame ~pc ~base_cost;
        let v = pop frame in
        let index = pop_int frame in
        let a = pop frame in
        array_store t frame ~observed:true ~pc ~len_site (stack_p frame a)
          (stack_tag frame a) index (stack_p frame v) (stack_tag frame v)
    | Arraylength { site } ->
        let j = pop frame in
        push frame
          (arraylength t frame ~observed:true ~pc ~site (stack_p frame j)
             (stack_tag frame j))
          Value.tag_int
    | New class_id ->
        push frame
          (new_object t frame ~pc (Classfile.class_of_id t.program class_id))
          Value.tag_ref
    | Newarray kind ->
        push frame (newarray t frame ~pc kind (pop_int frame)) Value.tag_ref
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        let args = scratch_args t callee.arity in
        pop_args frame args callee.arity;
        invoke t frame callee args
    | Return -> running := false
    | Ireturn | Areturn ->
        let j = pop frame in
        t.ret_p <- stack_p frame j;
        t.ret_tag <- stack_tag frame j;
        result := true;
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
