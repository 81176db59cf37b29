(* The execution-engine facade.

   The shared interpreter state and step helpers live in [State]; the
   closure-compiled engine lives in [Engine]; this module keeps the
   public API stable, implements the reference {e switch} engine (the
   classic fetch/decode loop), and wires whichever engine
   [options.engine] selects into [State.engine_exec] at [create] time.

   The switch engine is the semantic reference: the closure engine must
   match it bit-for-bit on output, heap, and every stats counter
   (test/test_engine.ml; the fuzz oracle's engine axis). Keep the two in
   lockstep — any change to the loop below needs the mirrored change in
   [Engine.compile]. The loop is also the only engine that runs
   observed: while any observer is installed every activation lands
   here, whichever engine [options.engine] names. *)

open State

type engine = State.engine = Switch | Closure

type options = State.options = {
  machine : Memsim.Config.machine;
  heap_limit_bytes : int;
  hot_threshold : int;
  alloc_cycles : int;
  gc_cycles_per_live : int;
  gc_cycles_per_dead : int;
  max_steps : int;
  engine : engine;
  faults : Fault.t list;
}

let default_options = State.default_options
let engine_name = function Switch -> "switch" | Closure -> "closure"

let engine_of_string = function
  | "switch" -> Some Switch
  | "closure" -> Some Closure
  | _ -> None

type prof_bin = State.prof_bin =
  | Prof_retire
  | Prof_alloc
  | Prof_pf_overhead
  | Prof_guard_overhead

type profile_hooks = State.profile_hooks = {
  on_cycles : method_id:int -> pc:int -> bin:prof_bin -> cycles:int -> unit;
  on_stall :
    method_id:int ->
    pc:int ->
    obj:int ->
    tlb:int ->
    l1:int ->
    l2:int ->
    mem:int ->
    unit;
  on_alloc : obj:int -> method_id:int -> pc:int -> bytes:int -> unit;
  on_gc : cycles:int -> unit;
}

type t = State.t

exception Vm_error = State.Vm_error
exception Budget_exhausted = State.Budget_exhausted

let program (t : t) = t.program
let heap (t : t) = t.heap
let memory (t : t) = t.mem
let stats (t : t) = t.stats
let options (t : t) = t.opts
let output (t : t) = Buffer.contents t.out
let global (t : t) index = t.globals.(index)
let set_compile_hook (t : t) hook = t.compile_hook <- Some hook
let set_load_observer (t : t) f = t.load_observer <- Some f
let gc_count (t : t) = t.gc_count
let gc_cycles (t : t) = t.gc_cycles
let interpreted_cycles (t : t) = t.interpreted_cycles
let compiled_cycles (t : t) = t.compiled_cycles
let faulting_prefetches (t : t) = t.faulting_prefetches
let spec_guard_trips (t : t) = t.spec_guard_trips
let steps (t : t) = t.steps
let output_bytes (t : t) = Buffer.length t.out
let set_telemetry = State.set_telemetry
let set_profile = State.set_profile
let set_monitor = State.set_monitor
let combine_profile_hooks = State.combine_profile_hooks
let attribution = State.attribution
let finalize_telemetry = State.finalize_telemetry
let call = State.call
let run = State.run

(* The reference switch engine: one fetch/decode loop iteration per
   instruction. [Invoke] recurses through [State.call], which dispatches
   the callee through whichever engine is wired — the engines compose.
   Results are pushed through [Value.of_int] and arguments staged in
   [State.scratch_args], as the closure handlers do; neither is
   observable, since values are only compared structurally. *)
let exec_switch (t : t) (frame : Frame.t) =
  let m = frame.method_info in
  let code = m.code in
  let n = Array.length code in
  let base_cost =
    if m.compiled then t.opts.machine.compiled_cost
    else t.opts.machine.interp_cost
  in
  let result = ref None in
  let running = ref true in
  while !running do
    if frame.pc < 0 || frame.pc >= n then
      vm_error "pc %d out of bounds in %s" frame.pc m.method_name;
    t.steps <- t.steps + 1;
    if t.steps > t.opts.max_steps then
      raise (Budget_exhausted t.opts.max_steps);
    let pc = frame.pc in
    let instr = code.(pc) in
    frame.pc <- pc + 1;
    retire t 1;
    charge t frame base_cost;
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
    | Iconst k -> Frame.push frame (Value.of_int k)
    | Aconst_null -> Frame.push frame Value.Null
    | Iload i | Aload i -> Frame.push frame frame.locals.(i)
    | Istore i | Astore i -> frame.locals.(i) <- Frame.pop frame
    | Dup -> Frame.push frame (Frame.peek frame)
    | Pop -> ignore (Frame.pop frame)
    | Iadd ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a + b))
    | Isub ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a - b))
    | Imul ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a * b))
    | Idiv ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        if b = 0 then vm_error "division by zero in %s" m.method_name;
        Frame.push frame (Value.of_int (a / b))
    | Irem ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        if b = 0 then vm_error "division by zero in %s" m.method_name;
        Frame.push frame (Value.of_int (a mod b))
    | Ineg -> Frame.push frame (Value.of_int (-Frame.pop_int frame))
    | Iand ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a land b))
    | Ior ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a lor b))
    | Ixor ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a lxor b))
    | Ishl ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a lsl (b land 63)))
    | Ishr ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        Frame.push frame (Value.of_int (a asr (b land 63)))
    | Goto target ->
        if target <= pc then m.backedges <- m.backedges + 1;
        frame.pc <- target
    | If_icmp (c, target) ->
        let b = Frame.pop_int frame and a = Frame.pop_int frame in
        if compare_int c a b then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | If (c, target) ->
        let a = Frame.pop_int frame in
        if compare_int c a 0 then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | If_acmpeq target ->
        let b = Frame.pop frame and a = Frame.pop frame in
        if Value.equal a b then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | If_acmpne target ->
        let b = Frame.pop frame and a = Frame.pop frame in
        if not (Value.equal a b) then begin
          if target <= pc then m.backedges <- m.backedges + 1;
          frame.pc <- target
        end
    | Ifnull target -> (
        match Frame.pop frame with
        | Value.Null ->
            if target <= pc then m.backedges <- m.backedges + 1;
            frame.pc <- target
        | Value.Int _ | Value.Ref _ -> ())
    | Ifnonnull target -> (
        match Frame.pop frame with
        | Value.Null -> ()
        | Value.Int _ | Value.Ref _ ->
            if target <= pc then m.backedges <- m.backedges + 1;
            frame.pc <- target)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let id = as_ref frame (Frame.pop frame) in
        let addr = Heap.base_of t.heap id + offset in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~site;
        observe_load t frame ~site ~addr;
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        Frame.push frame (Heap.get_field t.heap id slot)
    | Putfield { offset; name = _ } ->
        let v = Frame.pop frame in
        let id = as_ref frame (Frame.pop frame) in
        let addr = Heap.base_of t.heap id + offset in
        demand t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~kind:`Store;
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        Heap.set_field t.heap id slot v
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:(-1) ~addr ~site;
        observe_load t frame ~site ~addr;
        Frame.push frame t.globals.(index)
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        demand t frame ~pc:(frame.pc - 1) ~obj:(-1) ~addr ~kind:`Store;
        t.globals.(index) <- Frame.pop frame
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        retire t 1;
        charge t frame base_cost;
        prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_retire
          ~cycles:base_cost;
        let index = Frame.pop_int frame in
        let id = as_ref frame (Frame.pop frame) in
        let addr = array_access t frame ~pc:(frame.pc - 1) ~len_site ~id ~index in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~site:elem_site;
        observe_load t frame ~site:elem_site ~addr;
        Frame.push frame (Heap.get_elem t.heap id index)
    | Aastore { len_site } | Iastore { len_site } ->
        retire t 1;
        charge t frame base_cost;
        prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_retire
          ~cycles:base_cost;
        let v = Frame.pop frame in
        let index = Frame.pop_int frame in
        let id = as_ref frame (Frame.pop frame) in
        let addr = array_access t frame ~pc:(frame.pc - 1) ~len_site ~id ~index in
        demand t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~kind:`Store;
        Heap.set_elem t.heap id index v
    | Arraylength { site } ->
        let id = as_ref frame (Frame.pop frame) in
        let addr = Heap.length_addr t.heap id in
        demand_load t frame ~pc:(frame.pc - 1) ~obj:id ~addr ~site;
        observe_load t frame ~site ~addr;
        Frame.push frame (Value.of_int (Heap.array_length t.heap id))
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let id = allocate t frame ~pc:(frame.pc - 1) (fun () -> Heap.alloc_object t.heap ci) in
        Frame.push frame (Value.Ref id)
    | Newarray kind ->
        let len = Frame.pop_int frame in
        if len < 0 then vm_error "negative array size in %s" m.method_name;
        let alloc () =
          match kind with
          | Bytecode.Int_array -> Heap.alloc_int_array t.heap len
          | Bytecode.Ref_array -> Heap.alloc_ref_array t.heap len
        in
        Frame.push frame (Value.Ref (allocate t frame ~pc:(frame.pc - 1) alloc))
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        let args = scratch_args t callee.arity in
        for i = callee.arity - 1 downto 0 do
          args.(i) <- Frame.pop frame
        done;
        (match call t callee args with
        | Some v -> Frame.push frame v
        | None -> ())
    | Return -> running := false
    | Ireturn | Areturn ->
        result := Some (Frame.pop frame);
        running := false
    | Print ->
        let v = Frame.pop_int frame in
        Buffer.add_string t.out (string_of_int v);
        Buffer.add_char t.out '\n'
    | Prefetch_inter { site; distance } ->
        let extra = max 0 (t.opts.machine.prefetch_cost - base_cost) in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_pf_overhead
            ~cycles:extra;
        let anchor = frame.site_addr.(site) in
        if anchor >= 0 then begin
          let addr = anchor + distance in
          audit_prefetch_addr t addr;
          match t.telem with
          | None -> Memsim.Hierarchy.sw_prefetch t.mem ~addr ~now:(now t)
          | Some tl ->
              let sid =
                Telemetry.Attrib.site_id tl.registry
                  (Telemetry.Attrib.Inter_site
                     { method_id = m.method_id; site })
              in
              Memsim.Hierarchy.sw_prefetch_attr t.mem ~attrib:tl.attrib
                ~addr ~now:(now t) ~site:sid
        end
    | Spec_load { site; distance; reg } ->
        let extra = max 0 (t.opts.machine.guarded_load_cost - base_cost) in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_guard_overhead
            ~cycles:extra;
        let anchor = frame.site_addr.(site) in
        if anchor >= 0 then begin
          let addr = anchor + distance in
          audit_prefetch_addr t addr;
          (match t.telem with
          | None -> Memsim.Hierarchy.guarded_load t.mem ~addr ~now:(now t)
          | Some tl ->
              let sid =
                Telemetry.Attrib.site_id tl.registry
                  (Telemetry.Attrib.Spec_site
                     { method_id = m.method_id; site; reg })
              in
              Memsim.Hierarchy.guarded_load_attr t.mem ~attrib:tl.attrib
                ~addr ~now:(now t) ~site:sid);
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
        let extra = max 0 (t.opts.machine.prefetch_cost - base_cost) in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc ~bin:Prof_pf_overhead
            ~cycles:extra;
        let addr = frame.site_addr.(site) and prev = frame.site_prev.(site) in
        if addr >= 0 && prev >= 0 && addr <> prev then begin
          let target = addr + ((addr - prev) * times) in
          audit_prefetch_addr t target;
          match t.telem with
          | None -> Memsim.Hierarchy.sw_prefetch t.mem ~addr:target ~now:(now t)
          | Some tl ->
              let sid =
                Telemetry.Attrib.site_id tl.registry
                  (Telemetry.Attrib.Dynamic_site
                     { method_id = m.method_id; site })
              in
              Memsim.Hierarchy.sw_prefetch_attr t.mem ~attrib:tl.attrib
                ~addr:target ~now:(now t) ~site:sid
        end
    | Prefetch_indirect { reg; offset; guarded } ->
        let cost =
          if guarded then t.opts.machine.guarded_load_cost
          else t.opts.machine.prefetch_cost
        in
        let extra = max 0 (cost - base_cost) in
        charge t frame extra;
        if extra > 0 then
          prof_cycles t ~method_id:m.method_id ~pc
            ~bin:(if guarded then Prof_guard_overhead else Prof_pf_overhead)
            ~cycles:extra;
        (match frame.pref_regs.(reg) with
        | Value.Ref id when Heap.exists t.heap id -> (
            let addr = Heap.base_of t.heap id + offset in
            audit_prefetch_addr t addr;
            match t.telem with
            | None ->
                if guarded then
                  Memsim.Hierarchy.guarded_load t.mem ~addr ~now:(now t)
                else Memsim.Hierarchy.sw_prefetch t.mem ~addr ~now:(now t)
            | Some tl ->
                let sid =
                  Telemetry.Attrib.site_id tl.registry
                    (Telemetry.Attrib.Indirect_site
                       { method_id = m.method_id; reg; offset })
                in
                if guarded then
                  Memsim.Hierarchy.guarded_load_attr t.mem ~attrib:tl.attrib
                    ~addr ~now:(now t) ~site:sid
                else
                  Memsim.Hierarchy.sw_prefetch_attr t.mem ~attrib:tl.attrib
                    ~addr ~now:(now t) ~site:sid)
        | Value.Ref _ | Value.Int _ | Value.Null -> ()));
    ()
  done;
  !result

(* Observed activations run on the reference loop: the closure engine
   compiles only the unobserved fast path. The test runs on every method
   entry, so an observer installed between calls takes effect at the
   next activation. *)
let exec_closure (t : t) frame =
  if instrumented t then exec_switch t frame else Engine.exec t frame

let create ?options machine program =
  let t = State.make ?options machine program in
  (t.engine_exec <-
     (match t.opts.engine with
     | Switch -> exec_switch
     | Closure -> exec_closure));
  t

let precompile_method (t : t) (m : Classfile.method_info) =
  match t.opts.engine with
  | Closure when not (instrumented t) -> Engine.precompile t m
  | Closure | Switch -> ()
