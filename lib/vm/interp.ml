(* The execution-engine facade.

   The shared interpreter state and step helpers live in [State]; both
   engines live in [Engine] — the closure-compiled engine and the
   reference {e switch} engine ([Engine.exec_switch], the classic
   fetch/decode loop), one unit so that one copy of their stack
   primitives serves both. This module keeps the
   public API stable and wires whichever engine [options.engine]
   selects into [State.engine_exec] at [create] time.

   The switch engine is the semantic reference: the closure engine must
   match it bit-for-bit on output, heap, and every stats counter
   (test/test_engine.ml; the fuzz oracle's engine axis). The loop is
   also the only engine that runs observed: while any observer is
   installed every activation lands there, whichever engine
   [options.engine] names. *)

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

(* Observed activations run on the reference loop: the closure engine
   compiles only the unobserved fast path. The test runs on every method
   entry, so an observer installed between calls takes effect at the
   next activation. *)
let exec_closure (t : t) frame =
  if instrumented t then Engine.exec_switch t frame else Engine.exec t frame

let create ?options machine program =
  let t = State.make ?options machine program in
  (t.engine_exec <-
     (match t.opts.engine with
     | Switch -> Engine.exec_switch
     | Closure -> exec_closure));
  t

let precompile_method (t : t) (m : Classfile.method_info) =
  match t.opts.engine with
  | Closure when not (instrumented t) -> Engine.precompile t m
  | Closure | Switch -> ()
