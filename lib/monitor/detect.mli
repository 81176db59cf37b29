(** Deterministic online change detectors for the windowed metric
    streams: Page–Hinkley (decrease direction) on scalar rates, CUSUM on
    mix divergence and churn fractions. Pure sequential float
    arithmetic — identical input series give identical verdict
    timelines, across reruns and across Domains. *)

type config = {
  warmup : int;  (** qualifying samples before an accumulator may grow *)
  min_classified : int;
      (** attribution outcomes a window needs before its useful rate is a
          sample *)
  min_stall : int;  (** stall cycles a window needs to be a mix sample *)
  min_issued : int;
      (** prefetches a window must issue before its stall mix is a
          sample: phases with no prefetch activity reshape the mix for
          benign reasons *)
  min_backedges : int;
  min_allocs : int;
  ph_delta : float;  (** Page–Hinkley slack (tolerated drop per window) *)
  ph_lambda : float;  (** Page–Hinkley alarm threshold *)
  stall_slack : float;
      (** drift slack on the memory-bound stall share (tlb+mem) *)
  stall_h : float;  (** stall-drift alarm threshold *)
  loop_slack : float;  (** CUSUM slack on loop-mix divergence *)
  loop_h : float;  (** loop-mix re-baseline threshold (Drifting only) *)
  mix_cap : float;  (** per-window cap on a mix CUSUM increment *)
  churn_slack : float;
  churn_h : float;
}

val default : config
(** Tuned on the seed suite: no Degraded verdict on any stationary
    (workload x machine) run at the default window, detection within the
    gated four windows on the planted phase shifts (both pinned by
    test/test_monitor.ml). *)

(** {2 Page–Hinkley, decrease direction} *)

type ph

val ph_create : unit -> ph
val ph_reset : ph -> unit

val ph_update : config -> ph -> float -> float
(** Feed one qualifying sample; returns the accumulator
    [PH_t = max(0, PH_(t-1) + (mean - x - ph_delta))] after the update
    (always 0 during the first [warmup] samples). Alarm when it exceeds
    [ph_lambda]. *)

val ph_mean : ph -> float
(** The learned baseline (running mean of all samples). *)

val ph_value : ph -> float

(** {2 CUSUM over a mix (probability vector)} *)

type mix

val mix_create : int -> mix
(** [mix_create k] tracks a [k]-ary mix. *)

val mix_reset : mix -> unit

val mix_update :
  slack:float -> cap:float -> warmup:int -> mix -> float array -> float
(** Feed one mix sample (a probability vector of the created arity);
    returns [S_t = max(0, S_(t-1) + min(cap, d - slack))] where [d] is
    the total-variation distance from the running mean mix, scored
    before the sample is folded in. The first [warmup] qualifying
    samples only teach the baseline; [cap] keeps a single outlier
    window from alarming on its own. *)

val mix_value : mix -> float

val mix_last : mix -> float
(** Divergence of the most recent sample. *)

(** {2 One-sided drift (increase) with a learned baseline} *)

type drift

val drift_create : unit -> drift
val drift_reset : drift -> unit

val drift_update : slack:float -> cap:float -> warmup:int -> drift -> float -> float
(** Feed one scalar sample; returns
    [D_t = max(0, D_(t-1) + min(cap, x - mean - slack))], mean updated
    after scoring. Alarms only on sustained {e increases} — swings in
    both directions around a stable mean never accumulate. Used on the
    memory-bound stall share. *)

val drift_mean : drift -> float
val drift_value : drift -> float

val drift_last : drift -> float
(** The most recent sample. *)

(** {2 Scalar CUSUM (alloc-site churn)} *)

type cusum

val cusum_create : unit -> cusum
val cusum_reset : cusum -> unit
val cusum_update : slack:float -> cusum -> float -> float
val cusum_value : cusum -> float

(** {2 Verdicts} *)

type reason =
  | Useful_rate_drop of { rate : float; baseline : float }
      (** the window's prefetch useful rate against the learned baseline *)
  | Stall_mix_shift of { share : float; baseline : float }
      (** the memory-bound share (tlb+mem) of stall cycles rose against
          its learned baseline: misses are going outward *)
  | Loop_mix_shift of { method_id : int; share : float; baseline : float }
      (** the per-method backedge mix moved; [method_id] moved the most.
          On its own this only ever yields {!Drifting} — programs shift
          between loops for benign reasons (db's sort handing over to
          its scan, MonteCarlo's simulate handing over to aggregation) —
          but the payload names the loop to look at when a prefetch
          stream degrades alongside it *)
  | Alloc_site_churn of { fraction : float }
      (** fraction of the window's allocations at never-before-seen
          sites *)

type verdict = Healthy | Drifting | Degraded of reason

val verdict_name : verdict -> string
(** ["healthy"] / ["drifting"] / ["degraded"]. *)

val verdict_code : verdict -> int
(** 0 / 1 / 2 — for counter tracks and goldens. *)

val reason_name : reason -> string
val describe_reason : reason -> string
