(* Shared execution-engine state and step helpers.

   The mini-JVM has two execution engines (DESIGN.md section 10):

   - the switch engine ([Engine.exec_switch]) — the reference: a
     fetch/decode loop with a per-instruction [match];
   - the closure engine ([Engine.exec]) — each method body is
     pre-compiled into a flat, pc-indexed array of OCaml closures with
     direct-threaded fall-through, eliminating decode from the hot loop.

   Everything else both engines share lives here: the interpreter state
   record [t], the timing/charging helpers, one helper per memory job
   (the demand access [demand], the array bounds check [array_addr]),
   GC, allocation, frame pooling, and [call]/[run]. (The operand-stack
   primitives, the step prologue and each instruction's effect live in
   [Engine], where one copy serves both loops.) The engines stay
   bit-identical by construction because every observable state
   transition goes through these helpers; the differential fuzz oracle's
   engine axis (lib/fuzz/oracle.ml) asserts it empirically.

   Observers (telemetry, profiler, load observer, monitor) are called
   from these helpers and the reference loop only: while any is
   installed ([instrumented]), every activation runs on the switch
   engine, whichever engine [options.engine] names. The memory helpers
   take [~observed], a constant at every call site: [true] on the
   reference loop, which adds the observer calls; [false] on the closure
   handlers, which inline a path straight to the hierarchy.

   [engine_exec] is the indirection that breaks the module cycle: [call]
   dispatches a method body through it, [Interp.create] wires it to the
   engine selected by [options.engine] (and the observer test above), and
   both engines' [Invoke] handlers recurse through [call]. *)

type engine = Switch | Closure

type options = {
  machine : Memsim.Config.machine;
  heap_limit_bytes : int;
  hot_threshold : int;
  alloc_cycles : int;
  gc_cycles_per_live : int;
  gc_cycles_per_dead : int;
  max_steps : int;
  engine : engine;
      (** which execution engine [Interp.create] wires; [Closure] is the
          default — the switch engine is kept as the differential
          reference *)
  faults : Fault.t list;  (** injected self-test faults; [] by default *)
}

let default_options machine =
  {
    machine;
    heap_limit_bytes = 64 * 1024 * 1024;
    hot_threshold = 2;
    alloc_cycles = 4;
    gc_cycles_per_live = 10;
    gc_cycles_per_dead = 2;
    max_steps = 2_000_000_000;
    engine = Closure;
    faults = [];
  }

(* Telemetry wiring, bundled so the disabled state is a single [None]
   test on the hot paths. Memsim's int-keyed effectiveness table lives in
   the hierarchy ([Hierarchy.attribution]); [registry] maps the
   interpreter's structural prefetch-site keys to the dense ids it
   speaks; [tsink] (optional even when attribution is on) receives GC
   spans. *)
type telemetry = {
  registry : Telemetry.Attrib.t;
  tsink : Telemetry.Sink.t option;
}

(* Profiler wiring: a record of observer closures installed by the
   profiling layer (lib/profile). The interpreter reports every cycle it
   charges to exactly one hook call, so a collector that sums what it is
   handed reconstructs [Stats.cycles] exactly — the profiler's
   conservation law. Hooks observe only: a profiled run is bit-identical
   to a plain one (fuzz-checked). Profiling requires telemetry (the
   hierarchy maintains the stall breakdown only while an attribution is
   installed). *)
type prof_bin = Prof_retire | Prof_alloc | Prof_pf_overhead | Prof_guard_overhead

type profile_hooks = {
  on_cycles : method_id:int -> pc:int -> bin:prof_bin -> cycles:int -> unit;
  on_stall :
    method_id:int -> pc:int -> obj:int -> tlb:int -> l1:int -> l2:int ->
    mem:int -> unit;
  on_alloc : obj:int -> method_id:int -> pc:int -> bytes:int -> unit;
  on_gc : cycles:int -> unit;
}

(* Monitor wiring: fixed simulated-cycle window boundaries, polled on the
   one chokepoint every observed cycle charge flows through ([charge],
   plus GC's direct add). The callback observes only — it must never
   touch simulated state. Window boundaries are a pure function of the
   cycle stream, and a monitored run executes on the reference loop
   whichever engine is selected, so boundaries land at identical cycles
   on both engines by construction. *)
type monitor = {
  window_cycles : int;
  mutable next_boundary : int;
  on_window : boundary:int -> unit;
      (** called once per crossed boundary with the boundary's nominal
          cycle count; a single large charge (a long stall, a GC) may
          cross several boundaries and fires once for each *)
}

(* One instruction of a closure-compiled method body. Handlers capture
   the interpreter [t] they were compiled against; [None]/[Some v] is the
   method's return value, exactly like [call]'s result. *)
type handler = Frame.t -> Value.t option

type t = {
  program : Classfile.program;
  heap : Heap.t;
  mem : Memsim.Hierarchy.t;
  stats : Memsim.Stats.t;
      (** [Hierarchy.stats mem], hoisted: the record's identity is stable
          across [Hierarchy.reset] (the counters are reset in place), so
          [charge]/[retire] can update it without re-fetching it from the
          hierarchy on every instruction. *)
  opts : options;
  unguarded_spec_loads : bool;
  engine_desync : bool;
  monitor_desync : bool;
      (** membership of [opts.faults], derived once at [make] so the
          per-instruction and per-window paths test a bool, never walk
          the list *)
  globals : Value.t array;
  out : Buffer.t;
  pool_frames : Frame.t array array;
      (** per-method free stack of frames; [call] recycles activation
          records instead of allocating locals/stack/site arrays anew.
          Stored as a growable array per method (valid prefix length in
          [pool_len]) rather than a list so the per-return release does
          not cons — on call-dense workloads the pool churns once per
          invocation and the cons cells dominated minor-GC pressure *)
  pool_len : int array;  (** live prefix length of [pool_frames.(id)] *)
  scratch_args : Value.t array array;
      (** per-arity reusable argument buffers for both engines' [Invoke]
          (slot [a] holds an [a]-length array, lazily created). Safe to
          reuse across calls: [call] consumes the buffer into the callee
          frame's locals before any bytecode executes, and the (cold,
          once-per-method) compile hook gets a defensive copy — nothing
          retains the buffer itself. *)
  closure_cache : compiled_method option array;
      (** per-method closure-engine artifact, lazily (re)compiled by
          [Engine]; invalidated when the code array identity or the
          compiled flag changes. Observed activations never build one. *)
  mutable frame_stack : Frame.t array;
      (** activation stack, replacing the former [Frame.t list]: pushed
          at [call] entry, popped on exit; only the [frame_depth]-prefix
          is live (slots above it hold stale pointers that the simulated
          GC never sees — {!roots} walks the prefix only) *)
  mutable frame_depth : int;
  mutable compile_hook :
    (t -> Classfile.method_info -> Value.t array -> unit) option;
  mutable load_observer :
    (method_id:int -> site:int -> addr:int -> unit) option;
  mutable gc_count : int;
  mutable gc_cycles : int;
  mutable interpreted_cycles : int;
  mutable compiled_cycles : int;
  mutable steps : int;
  mutable faulting_prefetches : int;
      (** prefetch-type operations that computed an address outside the
          simulated address space (negative) — always a codegen bug *)
  mutable spec_guard_trips : int;
      (** spec_loads whose target fell outside every live object: the
          guard fired and [Null] was substituted (benign by design) *)
  mutable telem : telemetry option;
      (** [None] (the default) disables telemetry: off costs one
          immediate-constant test per prefetch-type instruction on the
          reference loop, and the hierarchy tests its own attribution *)
  mutable prof : profile_hooks option;
      (** [None] (the default) disables profiling: off costs one
          immediate-constant test per charge site *)
  mutable mon : monitor option;
      (** [None] (the default) disables windowed monitoring: off costs
          one immediate-constant test per [charge] — and none at all on
          the closure engine, which batches its base costs past [charge]
          entirely (an armed monitor counts as [instrumented], so the
          closure engine never runs monitored) *)
  mutable engine_exec : t -> Frame.t -> Value.t option;
      (** the selected engine's method-body executor; wired by
          [Interp.create], dispatched through by [call] *)
}

and compiled_method = {
  cm_code : Bytecode.instr array;
      (** physical identity of the body this artifact was compiled from;
          a JIT pass swapping [method_info.code] invalidates it *)
  cm_compiled : bool;
      (** the [compiled] flag baked into the handlers' base cost *)
  cm_handlers : handler array;
      (** length [n+1]: one handler per pc plus the out-of-bounds
          sentinel at index [n] *)
}

exception Vm_error of string

exception Budget_exhausted of int
(** The step budget ([options.max_steps]) was exhausted; the payload is
    the budget that was exceeded. A distinct exception (not a
    {!Vm_error}) so drivers can map it to a dedicated exit code. *)

let () =
  Printexc.register_printer (function
    | Budget_exhausted max_steps ->
        Some (Printf.sprintf "step budget exceeded (max_steps=%d)" max_steps)
    | _ -> None)

let make ?options machine program =
  let opts =
    match options with Some o -> o | None -> default_options machine
  in
  let mem = Memsim.Hierarchy.create machine in
  {
    program;
    heap = Heap.create ~limit_bytes:opts.heap_limit_bytes ();
    mem;
    stats = Memsim.Hierarchy.stats mem;
    opts;
    unguarded_spec_loads = List.mem Fault.Unguarded_spec_loads opts.faults;
    engine_desync = List.mem Fault.Engine_desync opts.faults;
    monitor_desync = List.mem Fault.Monitor_desync opts.faults;
    globals = Array.make (max 1 (Array.length program.statics)) Value.Null;
    out = Buffer.create 256;
    pool_frames = Array.make (max 1 (Array.length program.methods)) [||];
    pool_len = Array.make (max 1 (Array.length program.methods)) 0;
    scratch_args = Array.make 16 [||];
    closure_cache = Array.make (max 1 (Array.length program.methods)) None;
    frame_stack = [||];
    frame_depth = 0;
    compile_hook = None;
    load_observer = None;
    gc_count = 0;
    gc_cycles = 0;
    interpreted_cycles = 0;
    compiled_cycles = 0;
    steps = 0;
    faulting_prefetches = 0;
    spec_guard_trips = 0;
    telem = None;
    prof = None;
    mon = None;
    engine_exec =
      (fun _ _ -> invalid_arg "Vm.State: no execution engine wired");
  }

(* Whether any observer is installed. The engine dispatcher
   ([Interp.create]) tests it on every activation: observed activations
   run on the reference loop, so the closure engine's handlers carry no
   observer tests at all — the zero-cost-when-off guarantee held
   structurally. An observer installed between calls takes effect at the
   next activation. *)
let instrumented t =
  match (t.telem, t.prof, t.load_observer, t.mon) with
  | None, None, None, None -> false
  | _ -> true

let set_telemetry t ~registry ?sink () =
  (match sink with
  | Some s -> Telemetry.Sink.set_cycle_source s (fun () -> t.stats.cycles)
  | None -> ());
  Memsim.Hierarchy.set_attribution t.mem (Memsim.Attribution.create ());
  t.telem <- Some { registry; tsink = sink }

let set_profile t hooks =
  if t.telem = None then
    invalid_arg
      "Interp.set_profile: profiling requires telemetry (call set_telemetry \
       first; the hierarchy keeps the stall breakdown only while attributing)";
  t.prof <- Some hooks

(* Fan-out combinator: [set_profile] is single-consumer by design (the
   disabled state must stay a single [None] test), so a run that wants
   both the object-centric profiler and the live monitor listening to the
   same charge stream installs one combined hook set. [a] fires before
   [b] on every call; both observe only, so order cannot matter for
   correctness — it is fixed anyway to keep runs reproducible. *)
let combine_profile_hooks a b =
  {
    on_cycles =
      (fun ~method_id ~pc ~bin ~cycles ->
        a.on_cycles ~method_id ~pc ~bin ~cycles;
        b.on_cycles ~method_id ~pc ~bin ~cycles);
    on_stall =
      (fun ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem ->
        a.on_stall ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem;
        b.on_stall ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem);
    on_alloc =
      (fun ~obj ~method_id ~pc ~bytes ->
        a.on_alloc ~obj ~method_id ~pc ~bytes;
        b.on_alloc ~obj ~method_id ~pc ~bytes);
    on_gc =
      (fun ~cycles ->
        a.on_gc ~cycles;
        b.on_gc ~cycles);
  }

let attribution t = Memsim.Hierarchy.attribution t.mem

let finalize_telemetry t =
  match attribution t with Some a -> Memsim.Attribution.flush a | None -> ()

(* Every address a prefetch-type instruction computes flows through here;
   a negative address can only come from broken distance/offset arithmetic
   in the prefetch pass, so the differential oracle asserts the counter
   stays zero. *)
let[@inline] audit_prefetch_addr t addr =
  if addr < 0 then t.faulting_prefetches <- t.faulting_prefetches + 1

let vm_error fmt = Printf.ksprintf (fun msg -> raise (Vm_error msg)) fmt

(* A cycle charge crossed the current window boundary: close every window
   the charge jumped over (a long stall or a GC bill can span several),
   firing the callback once per boundary so window indices stay dense.
   Out of line: the in-line cost of an armed monitor is one compare. *)
let[@inline never] mon_fire t (m : monitor) =
  while t.stats.cycles >= m.next_boundary do
    let boundary = m.next_boundary in
    m.next_boundary <- boundary + m.window_cycles;
    if t.monitor_desync then t.stats.cycles <- t.stats.cycles + 1;
    m.on_window ~boundary
  done

let[@inline] mon_poll t =
  match t.mon with
  | None -> ()
  | Some m -> if t.stats.cycles >= m.next_boundary then mon_fire t m

let set_monitor t ~window_cycles ~on_window =
  if window_cycles <= 0 then
    invalid_arg "Interp.set_monitor: window_cycles must be positive";
  let next_boundary =
    ((t.stats.cycles / window_cycles) + 1) * window_cycles
  in
  t.mon <- Some { window_cycles; next_boundary; on_window }

let[@inline] charge t (frame : Frame.t) cycles =
  let stats = t.stats in
  stats.cycles <- stats.cycles + cycles;
  if frame.method_info.compiled then
    t.compiled_cycles <- t.compiled_cycles + cycles
  else t.interpreted_cycles <- t.interpreted_cycles + cycles;
  mon_poll t

let[@inline] charge_stall t (frame : Frame.t) cycles =
  t.stats.stall_cycles <- t.stats.stall_cycles + cycles;
  charge t frame cycles

let[@inline] retire t n =
  t.stats.retired_instructions <- t.stats.retired_instructions + n

(* Report a stalled demand access to the profiler. The attributing pc is
   [frame.pc - 1]: every memory-access handler runs after [frame.pc] was
   advanced past the instruction and none of them branches first, so this
   is the pc of the instruction being executed. The four
   components are read back from the hierarchy's breakdown of the access
   that just returned [stall]; they sum to it exactly. *)
let[@inline never] prof_stall t p (frame : Frame.t) ~obj ~stall:_ =
  p.on_stall ~method_id:frame.method_info.method_id ~pc:(frame.pc - 1) ~obj
    ~tlb:(Memsim.Hierarchy.last_tlb_stall t.mem)
    ~l1:(Memsim.Hierarchy.last_l1_stall t.mem)
    ~l2:(Memsim.Hierarchy.last_l2_stall t.mem)
    ~mem:(Memsim.Hierarchy.last_mem_stall t.mem)

(* Report a non-stall cycle charge ([bin] at [pc]) to the profiler.
   Kept out of line so the disabled state costs one immediate test. *)
let[@inline] prof_cycles t ~method_id ~pc ~bin ~cycles =
  match t.prof with
  | Some p -> p.on_cycles ~method_id ~pc ~bin ~cycles
  | None -> ()

(* The packed program counter handed to the hierarchy: method id in the
   high bits, bytecode pc in the low 16. This is the identity the RPT
   hardware prefetcher indexes by, so it must be engine-invariant: the
   switch engine passes [frame.pc - 1] (the executing pc — see
   [prof_stall] above for the invariant), the closure engine bakes the
   same compile-time pc into each handler (its handlers do not maintain
   [frame.pc] at run time). *)
let[@inline] pack_pc (frame : Frame.t) ~pc =
  (frame.method_info.method_id lsl 16) lor (pc land 0xffff)

(* A demand access of [kind] at [pc], charging its stall. [kind] is a
   constant at every call site. A load names its load site, whose
   address register then takes [addr]; a store's [site] is unused (-1).
   Observed, three observers join in: under telemetry the load's memory
   misses are bucketed by the packed (method, site) key — the coverage
   denominator for prefetches registered against that site —, the
   profiler hears of a stall before it is charged, and the load observer
   sees the site's address last. *)
let[@inline] demand t (frame : Frame.t) ~observed ~pc ~obj ~addr ~kind ~site =
  let pc = pack_pc frame ~pc and now = t.stats.cycles in
  let stall =
    match kind with
    | `Load when observed ->
        Memsim.Hierarchy.demand_load t.mem ~pc ~addr ~now
          ~dkey:
            (Telemetry.Attrib.demand_key
               ~method_id:frame.method_info.method_id ~site)
    | `Load | `Store -> Memsim.Hierarchy.demand_access t.mem ~pc ~addr ~kind ~now
  in
  if stall > 0 then begin
    (if observed then
       match t.prof with Some p -> prof_stall t p frame ~obj ~stall | None -> ());
    charge_stall t frame stall
  end;
  match kind with
  | `Store -> ()
  | `Load -> (
      Frame.record_site frame ~site ~addr;
      if observed then
        match t.load_observer with
        | Some f -> f ~method_id:frame.method_info.method_id ~site ~addr
        | None -> ())

let collect_garbage t =
  let ts_us, cycles_begin =
    match t.telem with
    | Some { tsink = Some s; _ } -> (Telemetry.Sink.now_us s, t.stats.cycles)
    | _ -> (0.0, 0)
  in
  (* Live frames, then globals. Root order cannot matter: marking
     computes a set and compaction slides survivors in address order. *)
  let roots visit =
    for i = 0 to t.frame_depth - 1 do
      Frame.iter_roots t.frame_stack.(i) visit
    done;
    Array.iter visit t.globals
  in
  let result = Gc_compact.collect t.heap ~roots in
  t.gc_count <- t.gc_count + 1;
  let cycles =
    (result.live * t.opts.gc_cycles_per_live)
    + (result.collected * t.opts.gc_cycles_per_dead)
  in
  t.gc_cycles <- t.gc_cycles + cycles;
  t.stats.cycles <- t.stats.cycles + cycles;
  (match t.prof with Some p -> p.on_gc ~cycles | None -> ());
  (* GC is the one place cycles move without going through [charge]:
     poll the monitor here too so a window boundary inside a large GC
     bill closes at the same simulated cycle on both engines. Polled
     after the [on_gc] hook so a monitor that bins GC cycles has seen
     the bill by the time the window carrying it closes. *)
  mon_poll t;
  (* Compaction rewrites the simulated address space: flush the hierarchy
     (and the attribution's shadow tables with it); its counters stay. *)
  Memsim.Hierarchy.reset t.mem;
  match t.telem with
  | Some { tsink = Some s; _ } ->
      Telemetry.Sink.add_span s ~cat:"gc" ~name:"gc"
        ~args:
          [
            ("live", Telemetry.Json.Int result.live);
            ("collected", Telemetry.Json.Int result.collected);
            ("gc_count", Telemetry.Json.Int t.gc_count);
            ("gc_cycles", Telemetry.Json.Int cycles);
          ]
        ~ts_us
        ~dur_us:(Telemetry.Sink.now_us s -. ts_us)
        ~cycles_begin ~cycles_end:t.stats.cycles ()
  | _ -> ()

(* Allocate with [alloc t.heap arg] — [Heap.alloc_object] and a class, or
   an array allocator and a length, so no closure is built per
   allocation — collecting and retrying once when the heap is full. Out
   of line: both engines call it, and it reports to the profiler. *)
let[@inline never] allocate t frame ~pc:alloc_pc alloc arg =
  let id =
    try alloc t.heap arg
    with Heap.Out_of_memory -> (
      collect_garbage t;
      try alloc t.heap arg
      with Heap.Out_of_memory -> vm_error "heap exhausted after collection")
  in
  charge t frame t.opts.alloc_cycles;
  (* Record the allocation site {e before} the header write so the
     write's stall can already be attributed to the new object. *)
  (match t.prof with
  | Some p ->
      let method_id = frame.Frame.method_info.method_id in
      let pc = frame.Frame.pc - 1 in
      p.on_alloc ~obj:id ~method_id ~pc ~bytes:(Heap.size_of t.heap id);
      p.on_cycles ~method_id ~pc ~bin:Prof_alloc ~cycles:t.opts.alloc_cycles
  | None -> ());
  (* The header write warms the first line of the new object. *)
  demand t frame ~observed:true ~pc:alloc_pc ~obj:id
    ~addr:(Heap.base_of t.heap id) ~kind:`Store ~site:(-1);
  id

(* The engines' handlers inline [as_ref] and [array_addr]; the error
   paths that build messages stay out of line. *)
let[@inline never] bad_ref (frame : Frame.t) v =
  match v with
  | Value.Null ->
      vm_error "null pointer dereference in %s" frame.method_info.method_name
  | Value.Int _ | Value.Ref _ ->
      vm_error "integer used as reference in %s" frame.method_info.method_name

let[@inline] as_ref frame v =
  match v with Value.Ref id -> id | Value.Int _ | Value.Null -> bad_ref frame v

let[@inline never] index_out_of_bounds (frame : Frame.t) ~index ~len =
  vm_error "array index %d out of bounds [0,%d) in %s" index len
    frame.method_info.method_name

(* The address of element [index] of array [id]: the bounds-check load of
   the length word at [len_site], then the bounds check. The kind check
   ([Heap.array_length] raises on an object) precedes the length load on
   both engines; where it stands can only show in a run that aborts on
   that instruction, which raises the same error either way. *)
let[@inline] array_addr t (frame : Frame.t) ~observed ~pc ~len_site ~id ~index =
  let len = Heap.array_length t.heap id in
  let base = Heap.base_of t.heap id in
  demand t frame ~observed ~pc ~obj:id
    ~addr:(base + Classfile.array_length_offset)
    ~kind:`Load ~site:len_site;
  if index < 0 || index >= len then index_out_of_bounds frame ~index ~len;
  base + Classfile.array_elems_offset + (index * Classfile.slot_bytes)

let maybe_compile t (m : Classfile.method_info) args =
  if (not m.compiled) && m.invocations >= t.opts.hot_threshold then
    match t.compile_hook with
    | Some hook ->
        (* Mark first: the hook may recursively execute nothing, but a
           failed compilation should not retrigger on every call. The
           copy isolates the hook from [Invoke]'s reusable scratch
           buffer (cold path: once per method). *)
        m.compiled <- true;
        hook t m (Array.copy args)
    | None -> ()

(* Acquire an activation record, recycling one from the per-method pool
   when its shape still matches (the JIT may have swapped the method body,
   invalidating pooled frames — [Frame.reusable] checks). *)
let acquire_frame t (m : Classfile.method_info) ~args =
  let id = m.method_id in
  let len = t.pool_len.(id) in
  if len > 0 then begin
    let frame = t.pool_frames.(id).(len - 1) in
    if Frame.reusable frame m then begin
      t.pool_len.(id) <- len - 1;
      Frame.reset frame ~args;
      frame
    end
    else begin
      (* Stale shape: drop the whole pool for this method. *)
      t.pool_len.(id) <- 0;
      Frame.create m ~args
    end
  end
  else Frame.create m ~args

(* Pool depth per method is capped: past it (deep recursion) frames are
   simply not recycled, which only costs a fresh allocation later. *)
let max_pool = 64

let release_frame t (frame : Frame.t) =
  let id = frame.method_info.method_id in
  let arr = t.pool_frames.(id) in
  let len = t.pool_len.(id) in
  if len < Array.length arr then begin
    Array.unsafe_set arr len frame;
    t.pool_len.(id) <- len + 1
  end
  else if len < max_pool then begin
    let grown = Array.make (if len = 0 then 4 else 2 * len) frame in
    Array.blit arr 0 grown 0 len;
    t.pool_frames.(id) <- grown;
    t.pool_len.(id) <- len + 1
  end

let pop_frames t =
  if t.frame_depth > 0 then t.frame_depth <- t.frame_depth - 1

let push_frame t (frame : Frame.t) =
  let stack = t.frame_stack in
  let d = t.frame_depth in
  if d < Array.length stack then Array.unsafe_set stack d frame
  else begin
    let grown = Array.make (if d = 0 then 64 else 2 * d) frame in
    Array.blit stack 0 grown 0 d;
    t.frame_stack <- grown
  end;
  t.frame_depth <- d + 1

(* Reusable per-arity argument buffer for [Invoke] (see the
   [scratch_args] field doc for the safety argument). *)
let scratch_args t arity =
  let pool = t.scratch_args in
  if arity < Array.length pool then begin
    let a = Array.unsafe_get pool arity in
    if Array.length a = arity then a
    else begin
      let a = Array.make arity Value.Null in
      pool.(arity) <- a;
      a
    end
  end
  else Array.make arity Value.Null

let call t (m : Classfile.method_info) args =
  m.invocations <- m.invocations + 1;
  maybe_compile t m args;
  let frame = acquire_frame t m ~args in
  push_frame t frame;
  (* Explicit push/pop instead of [Fun.protect]: the happy path allocates
     no closure; the exception path reraises with its backtrace intact.
     On an exception the frame is deliberately NOT returned to the pool —
     the VM is unwinding and the pool's contents no longer matter. *)
  match t.engine_exec t frame with
  | result ->
      pop_frames t;
      release_frame t frame;
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      pop_frames t;
      Printexc.raise_with_backtrace e bt

let run t =
  let entry = Classfile.method_of_id t.program t.program.entry in
  let result = call t entry (Array.make entry.arity Value.Null) in
  (* [Fault.Hw_desync]: an architectural observable (program output)
     that depends on which hardware prefetcher model the machine ships —
     exactly the divergence the oracle's hw row exists to catch. *)
  (if List.mem Fault.Hw_desync t.opts.faults then
     match t.opts.machine.hw_prefetch with
     | Memsim.Config.Hw_rpt _ -> Buffer.add_string t.out "<hw-desync>\n"
     | Memsim.Config.Hw_none | Memsim.Config.Hw_stream _ -> ());
  result
