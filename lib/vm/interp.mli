(** The mixed-mode execution engine.

    Executes mini-JVM bytecode, driving the {!Memsim.Hierarchy} on every
    heap access and charging a simple timing model (DESIGN.md section 5).
    Methods start interpreted; once a method's invocation count reaches the
    hot threshold the [compile_hook] is invoked {e with the actual argument
    values} — exactly the situation the paper's JIT exploits ("the JIT
    compiler is invoked for a method when the method is about to be
    executed... actual values for the parameters are available at compile
    time", Section 3). The hook typically runs {!Jit.Pipeline}, which may
    swap in an optimized body containing prefetch pseudo-instructions; this
    engine executes those too.

    Heap exhaustion triggers a mark-and-sweep + sliding-compaction
    collection ({!Gc_compact}); caches and DTLB are flushed afterwards,
    since compaction rewrites the simulated address space.

    Two execution engines implement these semantics (DESIGN.md
    section 10): the reference {e switch} engine (a fetch/decode loop)
    and the {e closure} engine, which pre-compiles each method body into
    a pc-indexed array of direct-threaded OCaml closures. They are
    bit-identical in every observable — output, heap, cycles, all stats
    counters — which test/test_engine.ml and the fuzz oracle's engine
    axis enforce; the closure engine is simply faster on the host. An
    observed run (telemetry, profiling, a load observer or a monitor
    installed) executes on the reference loop under either engine. Both
    engines live in one internal module, which holds the one copy of the
    operand-stack primitives and step prologue they share. *)

type engine =
  | Switch  (** the reference fetch/decode loop *)
  | Closure  (** closure-compiled, direct-threaded (default) *)

val engine_name : engine -> string
(** ["switch"] / ["closure"]. *)

val engine_of_string : string -> engine option

type options = {
  machine : Memsim.Config.machine;
  heap_limit_bytes : int;
  hot_threshold : int;  (** invocations before the compile hook fires *)
  alloc_cycles : int;  (** fixed allocation cost *)
  gc_cycles_per_live : int;
  gc_cycles_per_dead : int;
  max_steps : int;  (** step budget; {!Budget_exhausted} when exceeded *)
  engine : engine;  (** which engine {!create} wires; default [Closure] *)
  faults : Fault.t list;
      (** injected self-test faults (see {!Fault}); default [[]]. The VM
          acts on the engine, hw, monitor and unguarded-spec-load faults;
          the prefetch pass reads [Skip_guard_dominance] and
          [Prediction_desync] from here too. *)
}

val default_options : Memsim.Config.machine -> options

type t

exception Vm_error of string

exception Budget_exhausted of int
(** The step budget ([options.max_steps]) was exhausted — the run was cut
    off, not completed. The payload is the budget that was exceeded.
    Distinct from {!Vm_error} (a program/VM fault) so drivers can map it
    to a dedicated exit code; raised by both engines at exactly the same
    step. A printer is registered: ["step budget exceeded (max_steps=N)"]. *)

val create : ?options:options -> Memsim.Config.machine -> Classfile.program -> t
(** Wire the engine [options.engine] names. Under [Closure], each
    activation tests for installed observers first and runs on the
    reference loop while any is installed; the closure engine only ever
    executes unobserved code. *)

val program : t -> Classfile.program
val heap : t -> Heap.t
val stats : t -> Memsim.Stats.t
val options : t -> options
val output : t -> string
(** Everything the program printed, one value per line. *)

val output_bytes : t -> int
(** Length of the program output so far, without copying it. The live
    monitor samples this at window boundaries to locate planted phase
    markers in the output stream. *)

val global : t -> int -> Value.t
(** Current value of a static slot (read-only view for object inspection). *)

val set_compile_hook : t -> (t -> Classfile.method_info -> Value.t array -> unit) -> unit
(** Install the JIT. The hook runs at most once per method, right before
    the hot invocation executes; it may replace [method_info.code]. *)

val set_load_observer : t -> (method_id:int -> site:int -> addr:int -> unit) -> unit
(** Observe every executed load site with its effective address (used by
    tests to validate object inspection against real execution). *)

val gc_count : t -> int
val gc_cycles : t -> int
val interpreted_cycles : t -> int
val compiled_cycles : t -> int
(** Cycle attribution for Table 3's "% of time in compiled code". *)

val faulting_prefetches : t -> int
(** Prefetch-type operations ([prefetch], [spec_load],
    [prefetch_indirect], dynamic-stride prefetch) that computed a negative
    — hence unmappable — address. Always indicates broken
    distance/offset arithmetic in generated prefetch code; the fuzzing
    oracle asserts this stays zero in every configuration. *)

val set_telemetry : t -> registry:Telemetry.Attrib.t -> ?sink:Telemetry.Sink.t -> unit -> unit
(** Enable effectiveness attribution: a fresh {!Memsim.Attribution.t}
    is installed in the hierarchy (readable via {!attribution}), whose
    operations then classify every software prefetch against it.
    Prefetch sites are resolved in [registry];
    demand-load misses are bucketed by (method, site). When [sink] is
    given its cycle source is installed and GC spans are recorded.
    Attribution changes no simulated state: cycles and all core stats
    counters stay bit-identical to a plain run. *)

val attribution : t -> Memsim.Attribution.t option
(** The attribution table installed by {!set_telemetry}, if any. *)

(** {2 Profiling hooks}

    The interpreter reports every cycle it charges through exactly one
    hook call, so a collector that sums what it is handed reconstructs
    [Stats.cycles] exactly — the profiler's conservation law (asserted
    by the golden tests and the fuzz oracle). Hooks observe only; a
    profiled run is bit-identical (cycles, stats, output) to an
    unprofiled one. *)

(** Non-stall charge classes. Stall cycles arrive separately through
    [on_stall], already broken down by the level that caused them. *)
type prof_bin =
  | Prof_retire  (** base instruction slot(s) *)
  | Prof_alloc  (** fixed allocation cost *)
  | Prof_pf_overhead
      (** full execution cost (base slot + incremental) of unguarded
          prefetch-type instructions — every cycle the optimization's
          inserted code costs *)
  | Prof_guard_overhead
      (** full execution cost of guarded loads (spec_load / guarded
          prefetch_indirect) *)

type profile_hooks = {
  on_cycles : method_id:int -> pc:int -> bin:prof_bin -> cycles:int -> unit;
      (** [cycles] non-stall cycles charged at [pc] under [bin] *)
  on_stall :
    method_id:int ->
    pc:int ->
    obj:int ->
    tlb:int ->
    l1:int ->
    l2:int ->
    mem:int ->
    unit;
      (** a demand access at [pc] stalled; [tlb+l1+l2+mem] is the full
          stall. [obj] is the referenced heap object id, or [-1]
          (statics / unknown). *)
  on_alloc : obj:int -> method_id:int -> pc:int -> bytes:int -> unit;
      (** a new object [obj] of [bytes] bytes was allocated at [pc] *)
  on_gc : cycles:int -> unit;  (** one collection's total cycle bill *)
}

val set_profile : t -> profile_hooks -> unit
(** Install profiling hooks. Requires telemetry to be enabled first
    ({!set_telemetry}) — the hierarchy maintains the per-access stall
    breakdown only while an attribution is installed; raises
    [Invalid_argument] otherwise. *)

val combine_profile_hooks : profile_hooks -> profile_hooks -> profile_hooks
(** Fan out one charge stream to two observers ([a] fires before [b] on
    every call). {!set_profile} is single-consumer by design — the
    disabled state must stay a single [None] test on the hot paths — so
    a run that wants both the object-centric profiler and the live
    monitor installs one combined hook set. *)

val set_monitor :
  t -> window_cycles:int -> on_window:(boundary:int -> unit) -> unit
(** Arm the windowed-monitoring boundary hook: [on_window] fires the
    first time the simulated cycle counter reaches or passes each
    multiple of [window_cycles] (once per crossed boundary — a single
    long stall or GC bill may fire it several times back to back).
    [boundary] is the boundary's nominal cycle count.

    The callback runs between instructions on the charging path and must
    observe only: reading stats, attribution or program counters is
    fine; executing code or touching simulated state is not. Boundaries
    are a pure function of the cycle stream, so they land at identical
    simulated cycles on both execution engines (their bit-identity
    contract covers the charge sequence). Like every observer, an armed
    monitor sends each activation to the reference loop, and a monitored
    run remains bit-identical in every simulated observable to an
    unmonitored one (golden- and fuzz-checked). Raises
    [Invalid_argument] when [window_cycles <= 0]. *)

val finalize_telemetry : t -> unit
(** Settle the attribution books at end of run: still-untouched prefetch
    fills are classified useless. Call before reading {!attribution}. *)

val spec_guard_trips : t -> int
(** [spec_load]s whose target address fell outside every live object, so
    the guard substituted [Null]. Expected and benign (speculation runs
    past the end of data structures by design); reported for
    diagnostics. *)

val steps : t -> int
(** Instructions dispatched so far (the quantity [options.max_steps]
    budgets). Engine-invariant. *)

val precompile_method : t -> Classfile.method_info -> unit
(** Under the closure engine: (re)compile the method's closure artifact
    now if it is stale — the JIT pipeline calls this after each pass
    mutation so a freshly optimized body re-enters execution already
    compiled. A no-op under the switch engine, and while any observer is
    installed (an observed run never executes the artifact). Purely an
    eagerness hint: the artifact is validated on every method entry
    regardless. *)

val call : t -> Classfile.method_info -> Value.t array -> Value.t option
(** Execute one method to completion (recursively executing its callees)
    and return its result. *)

val run : t -> Value.t option
(** Execute the program entry point with no arguments. *)
