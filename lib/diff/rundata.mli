(** One run, reduced to what differential diagnosis needs: the
    workload and configuration it was produced under, total/GC cycles, the
    profiler's per-loop stall-bin and per-allocation-site breakdowns,
    the attribution outcome totals, and the pass's per-loop decision
    provenance.

    A snapshot comes from three places — a live profiled
    {!Workloads.Harness} run ({!of_run}), a recorded ["spf_diff/v1"]
    snapshot, or a plain ["spf_prof/v1"] report written by
    [spf_run run --json] (both via {!of_json}; the latter carries no
    stamp, attribution or provenance, and the corresponding blame
    sections are skipped). *)

type stamp = { workload : string; config : Workloads.Run_config.t }
(** What a snapshot was made under. Recorded as the workload name plus
    one field per {!Workloads.Run_config} axis, each spelled by
    {!Workloads.Run_config.axis_value} (the threshold as an integer or
    [null], passes as a boolean) and read back by
    {!Workloads.Run_config.parse}. *)

type loop = {
  lr_method : string;
  lr_loop : int;  (** [-1]: the method's straight-line remainder *)
  lr_depth : int;
  lr_bins : int array;  (** indexed like {!Profile.Report.bin_fields} *)
  lr_total : int;
  lr_actions : int;  (** [-1] unknown *)
}

type site = {
  s_method : string;
  s_pc : int;
  s_allocs : int;
  s_bytes : int;
  s_tlb : int;
  s_l1 : int;
  s_l2 : int;
  s_mem : int;
  s_total : int;
}

type attribution = {
  a_issued : int;
  a_cancelled : int;
  a_redundant : int;
  a_redundant_hw : int;
  a_useful : int;
  a_late : int;
  a_useless : int;
}

type prov = {
  p_method : string;
  p_loop : int;
  p_actions : string list;  (** {!Strideprefetch.Codegen.action_descriptor}s,
                                sorted *)
  p_rejected : int;
  p_promoted : bool;
  p_low_trip : bool;
  p_iterations : int;
  p_steps : int;  (** object-inspection steps spent on this loop *)
  p_skipped : bool;  (** inspection replaced by static claims *)
  p_shortened : bool;  (** inspection ran on the reduced budget *)
}

type t = {
  stamp : stamp option;
      (** [None] for ["spf_prof/v1"] inputs, and for snapshots with a
          missing or unparseable axis *)
  cycles : int;
  gc_cycles : int;
  totals : int array;  (** whole-run bins, {!Profile.Report.bin_fields} order *)
  loops : loop list;
  sites : site list;
  attribution : attribution option;
  provenance : prov list;  (** empty when unknown (recorded prof reports) *)
}

val bin_names : string list
(** The bin spelling shared with {!Profile.Report.bin_fields}. *)

val of_run :
  config:Workloads.Run_config.t ->
  Workloads.Harness.run_result ->
  (t, string) result
(** Reduce a live run made under [config]; the stamp's workload is the
    run's. [Error] unless the run was profiled (the per-loop breakdown
    is the diff's backbone). *)

val to_json : t -> Telemetry.Json.t
(** Schema ["spf_diff/v1"]. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Accepts ["spf_diff/v1"] and ["spf_prof/v1"] (the latter with no
    stamp, attribution or provenance). *)

val of_bench_blame :
  stamp:stamp -> cycles:int -> Telemetry.Json.t -> (t, string) result
(** A fourth source: the compact ["blame"] payload a bench_hotpath/v2
    report embeds in its profiled cells
    ([{"gc_cycles": N, "loops": [...]}] — loops spelled as in the
    ["spf_diff/v1"] snapshot). The whole-run bin totals are
    reconstructed by summing the loops (every profiled cycle lands in
    exactly one loop row, the straight-line remainders included, so the
    sum is exact); sites, attribution and provenance are absent.
    [Error] when the payload carries no ["loops"] array. *)

val load : string -> (t, string) result
(** Parse a snapshot file; I/O and parse errors become [Error]. *)
