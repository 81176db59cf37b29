(** The live collector: samples the run's telemetry surfaces at every
    window boundary of the simulated cycle clock, feeds the change
    detectors, and retains the closed windows.

    Wiring order (the harness's [--monitor] path does this):
    + enable telemetry ([Vm.Interp.set_telemetry]) — attribution
      outcomes are the useful-rate stream;
    + {!create} the collector (arms [Vm.Interp.set_monitor]);
    + install {!hooks} with [set_profile], combining with the object
      profiler's hooks via [combine_profile_hooks] when both are on;
    + run; call [Vm.Interp.finalize_telemetry], then {!finalize} so the
      end-of-run attribution settlement lands in the tail window.

    The collector observes and never participates: a monitored run is
    bit-identical in every simulated observable to an unmonitored one
    (golden-, bench- and fuzz-enforced). *)

type t

val default_window_cycles : int
(** The CLI / bench surfaces' default window (262144 simulated cycles). *)

val create :
  ?detect:Detect.config ->
  ?registry:Telemetry.Attrib.t ->
  ?sink:Telemetry.Sink.t ->
  window_cycles:int ->
  Vm.Interp.t ->
  t
(** Snapshot the interpreter's current counters as window 0's base and
    arm the boundary hook. When [sink] is given, each window close also
    emits a ["monitor.window"] counter event (a counter track in the
    Chrome-trace export). [registry] supplies site labels for the
    report. *)

val hooks : t -> Vm.Interp.profile_hooks
(** The collector's accumulators for the stall-bin / allocation / GC
    streams. Must be installed with [Vm.Interp.set_profile] (possibly
    combined) for stall-mix and alloc-churn windows to be populated;
    without them those detectors simply never qualify. *)

val finalize : t -> unit
(** Close the end-of-run tail window (marked partial; not scored by the
    detectors) so the per-window stats deltas sum exactly to the run
    totals. Idempotent. Call after [Vm.Interp.finalize_telemetry]. *)

val first_degraded : t -> int option
val windows : t -> Window.t array
(** Oldest first. *)

val report : t -> Report.t
(** Build the final report (finalizes first if needed), joining method
    names and site metadata. *)
