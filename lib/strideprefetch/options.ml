(** Tuning knobs of the prefetching algorithm.

    Paper defaults (Section 4): 20 inspected iterations, a 75% majority
    threshold for recognizing a dominant stride, and a scheduling distance
    of one iteration for both inter- and intra-iteration prefetching. *)

(** The three evaluated configurations: [Off] is the paper's BASELINE,
    [Inter] its INTER (the emulation of Wu's stride prefetching restricted
    to in-loop loads), [Inter_intra] its INTER+INTRA. *)
type mode = Off | Inter | Inter_intra

(** Where stride predictions come from. [Inspect] is the paper's dynamic
    object inspection; [Static] trusts the address-algebra abstract
    interpretation ({!Analysis.Addralg}) alone; [Hybrid] uses static
    [Certain] verdicts to skip inspection, [Likely] to shorten it, and
    falls back to full inspection on [Unknown]. *)
type prediction_tier = Inspect | Static | Hybrid

type t = {
  mode : mode;
  inspect_iterations : int;  (** iterations of the target loop to observe *)
  majority : float;  (** dominant-stride threshold, 0 < m <= 1 *)
  scheduling_distance : int;  (** c, in iterations *)
  inter_stride_threshold : int option;
      (** profitability condition (3): emit an inter-iteration prefetch
          only when |stride| {e exceeds} this many bytes. [None] means
          the paper's rule — half the cache line of the level software
          prefetches fill — which assumes the next-line stream hardware
          prefetcher; the arbitration sweep retunes it per machine for
          the other HW models. *)
  small_trip_count : int;
      (** nested loops observed to iterate fewer times than this are
          promoted into their parent *)
  min_samples : int;  (** strides needed before a pattern is trusted *)
  max_inspect_steps : int;  (** hard budget for one object inspection *)
  inspect_calls : bool;
      (** inter-procedural object inspection: step into (statically
          dispatched) callees instead of skipping them. The paper discusses
          this as a possible extension ("making object inspection
          inter-procedural might improve the accuracy of our analysis, but
          it would increase the compilation time", Section 3.2); off by
          default, like the paper's configuration. *)
  max_call_depth : int;
      (** callee nesting bound when [inspect_calls] is on *)
  enable_phased : bool;
      (** detect Wu-style "phased multiple-stride" loads (no single
          dominant stride, but a few strides jointly dominant) and
          prefetch them with a run-time-computed stride. Off by default:
          the paper restricts itself to single-stride patterns. *)
  phased_min_fraction : float;
      (** minimum share of samples for each phase of a phased pattern *)
  check_invariants : bool;
      (** assert the telemetry/profiler conservation laws at the end of
          every harness run (attribution:
          [issued = cancelled + redundant + useful + late + useless];
          profiler: binned cycles reconstruct [Stats.cycles] exactly) and
          raise on violation. Cheap — the checks are O(sites + pcs) once
          per run — but off by default so library users decide how
          violations surface. *)
  prediction : prediction_tier;
      (** stride-prediction source; [Inspect] (the default) is the paper's
          configuration and leaves compilation bit-identical to PR 7 *)
}

let default =
  {
    mode = Inter_intra;
    inspect_iterations = 20;
    majority = 0.75;
    scheduling_distance = 1;
    inter_stride_threshold = None;
    small_trip_count = 16;
    min_samples = 4;
    max_inspect_steps = 100_000;
    inspect_calls = false;
    max_call_depth = 3;
    enable_phased = false;
    phased_min_fraction = 0.2;
    check_invariants = false;
    prediction = Inspect;
  }

let with_mode mode t = { t with mode }

let mode_name = function
  | Off -> "BASELINE"
  | Inter -> "INTER"
  | Inter_intra -> "INTER+INTRA"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "baseline" -> Ok Off
  | "inter" -> Ok Inter
  | "inter+intra" | "inter_intra" | "interintra" -> Ok Inter_intra
  | _ ->
      Error
        (Printf.sprintf "unknown mode %S (expected off, inter or inter+intra)"
           s)

let prediction_name = function
  | Inspect -> "inspect"
  | Static -> "static"
  | Hybrid -> "hybrid"

let prediction_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "inspect" | "dynamic" -> Ok Inspect
  | "static" -> Ok Static
  | "hybrid" -> Ok Hybrid
  | other ->
      Error
        (Printf.sprintf
           "unknown prediction tier %S (expected inspect, static or hybrid)"
           other)

let resolved_inter_stride_threshold t (machine : Memsim.Config.machine) =
  match t.inter_stride_threshold with
  | Some b -> b
  | None ->
      let line =
        match machine.prefetch_target with
        | Memsim.Config.To_l2 -> machine.l2.line_bytes
        | Memsim.Config.To_l1 -> machine.l1.line_bytes
      in
      line / 2

(* The paper realizes intra-iteration prefetches as guarded loads on
   the Pentium 4 and as prefetch instructions on the Athlon MP: a
   hardware prefetch is dropped on a DTLB miss, and the P4's 64-entry
   DTLB misses often, while a guarded load primes the DTLB. So a DTLB of
   at most 64 entries counts as small. *)
let use_guarded (machine : Memsim.Config.machine) = machine.dtlb.entries <= 64

let validate t =
  if t.inspect_iterations < 2 then Error "inspect_iterations must be >= 2"
  else if not (t.majority > 0.0 && t.majority <= 1.0) then
    Error "majority must be in (0, 1]"
  else if t.scheduling_distance < 1 then
    Error "scheduling_distance must be >= 1"
  else if
    match t.inter_stride_threshold with Some b -> b < 0 | None -> false
  then Error "inter_stride_threshold must be >= 0"
  else if t.min_samples < 2 then Error "min_samples must be >= 2"
  else if t.small_trip_count < 1 then Error "small_trip_count must be >= 1"
  else if t.max_inspect_steps < 100 then
    Error "max_inspect_steps must be >= 100"
  else if t.max_call_depth < 0 then Error "max_call_depth must be >= 0"
  else if not (t.phased_min_fraction > 0.0 && t.phased_min_fraction <= 1.0)
  then Error "phased_min_fraction must be in (0, 1]"
  else Ok ()
