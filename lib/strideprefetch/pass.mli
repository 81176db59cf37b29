(** The complete stride-prefetching compiler pass (Section 3).

    For each loop of a method, in loop-forest postorder: build the load
    dependence graph of the loop's loads, run object inspection with the
    actual arguments of the hot invocation, detect inter-/intra-iteration
    stride patterns, and generate prefetching code. Nested loops observed
    to have a small trip count are not optimized themselves; their loads
    are promoted into the enclosing loop's candidate set, "considered
    again as if they were in the parent loop". *)

type site_evidence = {
  site : int;
  observations : int;  (** address records collected for this site *)
  delta_histogram : (int * int) list;  (** (delta, count), top first *)
  top_fraction : float;
      (** share of the top delta — what the 75%-majority rule tested *)
}

type loop_report = {
  method_name : string;
  loop_id : int;
  header_block : int;
  candidate_sites : int list;
  evidence : site_evidence list;
      (** per-site inspection evidence behind the decisions below *)
  inter_patterns : (int * Stride.pattern) list;
  intra_patterns : ((int * int) * Stride.pattern) list;
  plan : Codegen.plan;
  promoted : bool;  (** small trip count: loads handed to the parent *)
  skipped_low_trip : bool;  (** outermost loop with a small trip count *)
  iterations_observed : int;
  inspection_steps : int;
  predictions : Predict.prediction list;
      (** static claims for the candidate sites (empty without a
          predictor) *)
  inspection_skipped : bool;
      (** the hybrid/static skip rule replaced inspection with the static
          claims for this loop *)
  inspection_shortened : bool;
      (** inspection ran with the reduced [Likely]-tier iteration budget *)
}

val run :
  ?registry:Telemetry.Attrib.t ->
  ?sink:Telemetry.Sink.t ->
  ?predictor:Predict.predictor ->
  opts:Options.t ->
  interp:Vm.Interp.t ->
  meth:Vm.Classfile.method_info ->
  args:Vm.Value.t array ->
  unit ->
  loop_report list
(** Analyze and (unless [opts.mode = Off] or nothing qualified) replace
    [meth.code] with a new array that splices in prefetch sequences, and
    set [meth.n_pref_regs]; the old array is never written, which keeps
    the front-end bodies that {!Vm.Classfile.fresh} shares pristine.
    Returns one report per loop processed.

    [?registry] records decision provenance for each spliced prefetch
    instruction (strategy kind, anchor/target load sites, loop) under the
    structural keys the interpreter resolves at execution — the join the
    effectiveness report is built on. [?sink] records inspection and
    per-loop codegen spans plus one ["loop-decision"] explain instant per
    loop, carrying the evidence of {!loop_report.evidence}. *)

val make_pass :
  opts:Options.t ->
  interp:Vm.Interp.t ->
  ?report_sink:(loop_report list -> unit) ->
  ?registry:Telemetry.Attrib.t ->
  ?sink:Telemetry.Sink.t ->
  ?predictor:Predict.predictor ->
  unit ->
  Jit.Pipeline.pass
(** Package {!run} as a pipeline pass named ["stride-prefetch"].

    [?predictor] is the static access-prediction tier (in practice
    {!Analysis.Addralg.predictor}); it is consulted per loop before
    inspection. With [opts.prediction = Inspect] its claims are recorded
    in the reports but never change compilation; under [Static]/[Hybrid]
    they drive the skip/shorten rule of DESIGN.md section 12. *)

val prediction_rows : workload:string -> loop_report list -> Predict.row list
(** Join each loop's static claims against its inspected patterns, one
    row per claimed site — the agreement scorer's input. Rows come only
    from loops that were actually inspected in place (promoted and
    low-trip loops are skipped; their sites resurface in the parent). *)

val pp_report : Format.formatter -> loop_report -> unit
