(** The dynamic-compilation driver.

    A pipeline is an ordered list of named passes. {!compile} runs them on
    a hot method — with the actual argument values of the triggering
    invocation, which is what object inspection consumes — marks the method
    compiled, and accounts the host-CPU time spent per pass. Those timings
    feed Figure 11 (additional compilation time of the prefetching pass
    relative to total JIT compilation time). *)

type pass = {
  pass_name : string;
  apply : Vm.Classfile.method_info -> Vm.Value.t array -> unit;
      (** may replace [method_info.code] *)
}

exception
  Verification_failed of {
    pass_name : string;
    method_name : string;
    message : string;
  }
(** Raised by {!compile} when the [?verifier] rejects a method body right
    after a pass ran — [pass_name] names the offending pass. *)

type t

val create :
  ?verifier:(Vm.Classfile.method_info -> (unit, string) result) ->
  ?span:(name:string -> meth:string -> (unit -> unit) -> unit) ->
  ?on_mutate:(Vm.Classfile.method_info -> unit) ->
  pass list ->
  t
(** [?verifier] is a debug-mode hook (see [Analysis.Check.pass_verifier])
    run over the method body after {e every} pass; [Error msg] aborts
    compilation with {!Verification_failed}. The pipeline stays generic:
    it never depends on the analysis library, it just runs the callback.

    [?span] is the telemetry hook: {!compile} wraps the whole compilation
    in [span ~name:"compile"] and each pass in [span ~name:"pass:<name>"]
    (the harness supplies a closure recording into a [Telemetry.Sink]).
    The default runs the thunk with no other effect, keeping the jit
    library independent of the telemetry library.

    [?on_mutate] runs after each pass (and its verification): a pass may
    have replaced [method_info.code], and the execution engine may hold a
    compiled artifact of the old body. The harness supplies
    [Vm.Interp.precompile_method] so the closure engine's artifact is
    refreshed eagerly between passes. Default: no-op. *)

val standard_passes : unit -> pass list
(** The baseline JIT: IR/analysis construction (CFG, dominators, loop
    forest), {!Optimize.simplify}, and dead-store elimination
    ({!Liveness.eliminate_dead_stores}). *)

val compile : t -> Vm.Classfile.method_info -> Vm.Value.t array -> unit
(** Run every pass in order; accumulates per-pass and per-method timings.
    The caller (the interpreter's compile hook) guarantees at most one call
    per method. *)

val seconds_of_pass : t -> string -> float
val total_seconds : t -> float
val pass_names : t -> string list
val methods_compiled : t -> int
