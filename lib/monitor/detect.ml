(* Deterministic online change detectors over the windowed metric
   streams.

   Two classic sequential tests, both in their incremental zero-floored
   form so the state is two floats and an integer:

   - Page–Hinkley (decrease direction) on the per-window useful rate:
     PH_t = max(0, PH_{t-1} + (mean_t - x_t - delta)). The running mean
     is the learned baseline; a sustained drop accumulates roughly
     (baseline - rate - delta) per window, so a hard phase shift from a
     ~0.9 useful rate to ~0 crosses lambda in about
     lambda / (0.9 - delta) windows.

   - CUSUM on distribution divergence (stall-bin mix, per-loop backedge
     mix, alloc-site churn): S_t = max(0, S_{t-1} + (d_t - slack)) where
     d_t is the total-variation distance between the window's mix and
     the running mean mix (or, for churn, the fraction of allocations at
     never-before-seen sites). Alarm when S_t > h.

   Both detectors are warmed up on the first [warmup] qualifying samples
   (the accumulator stays floored at zero while the baseline learns) and
   gated on minimum per-window volume by the caller, so sparse windows
   contribute nothing. Everything here is straight-line float arithmetic
   over a deterministic input series: reruns — including runs spread
   across Domains — produce identical verdict timelines. *)

type config = {
  warmup : int;  (** qualifying samples before an accumulator may grow *)
  min_classified : int;
      (** attribution outcomes a window needs before its useful rate is a
          sample (volume gate for the Page–Hinkley stream) *)
  min_stall : int;  (** stall cycles a window needs to be a mix sample *)
  min_issued : int;
      (** prefetches a window must issue before its stall mix is a
          sample — the monitor flags {e prefetch} degradation, and
          phases that run without prefetch activity (an allocation
          epilogue, a checksum pass) reshape the stall mix for benign
          reasons *)
  min_backedges : int;
  min_allocs : int;
  ph_delta : float;  (** Page–Hinkley slack (tolerated drop per window) *)
  ph_lambda : float;  (** Page–Hinkley alarm threshold *)
  stall_slack : float;  (** CUSUM slack on stall-mix divergence *)
  stall_h : float;  (** stall-mix alarm threshold *)
  loop_slack : float;  (** CUSUM slack on loop-mix divergence *)
  loop_h : float;  (** loop-mix re-baseline threshold (Drifting only) *)
  mix_cap : float;
      (** per-window cap on a mix CUSUM increment: one outlier window —
          however divergent — cannot alarm on its own, divergence must
          be sustained *)
  churn_slack : float;
  churn_h : float;
}

(* Defaults tuned on the seed suite: all 24 stationary (workload x
   machine) runs stay free of Degraded verdicts at the default window,
   while the planted shift of the phase workloads alarms within the
   gated four windows on both machines (test/test_monitor.ml pins
   both). The load-bearing measurements:

   - Prefetch degradation pushes stalls OUTWARD: the planted shifts
     raise the memory-bound share (tlb+mem) of stall cycles by
     0.15–0.25 per window, sustained. Benign phase changes mostly
     reshuffle l1/l2 (RayTracer's startup oscillation, jess's periodic
     match bursts move the mix by up to 0.3 total variation but swing
     the memory-bound share both ways around a stable mean), which is
     why the Degraded-capable stall detector is a one-sided drift test
     on that share rather than a CUSUM on full-mix divergence.
   - Phases that run without prefetch activity reshape stalls for
     benign reasons — MonteCarlo's simulate->aggregate handover (+0.12
     divergence for the rest of the run, issued = 0), db's end-of-run
     epilogue (~0.6 for three windows, issued = 0) — so stall samples
     are gated on [min_issued].
   - db's second pass genuinely erodes the useful rate from 0.97 to
     0.78 over its last ~23 windows; [ph_delta]/[ph_lambda] leave that
     below alarm (peak accumulation ~0.9) while the planted cliffs
     (1.0 -> 0.06) cross within three scored windows. *)
let default =
  {
    warmup = 4;
    min_classified = 24;
    min_stall = 2048;
    min_issued = 64;
    min_backedges = 256;
    min_allocs = 48;
    ph_delta = 0.15;
    ph_lambda = 1.8;
    stall_slack = 0.1;
    stall_h = 0.3;
    loop_slack = 0.22;
    loop_h = 1.1;
    mix_cap = 0.25;
    churn_slack = 0.3;
    (* a single window whose allocations are ~all at freshly-appeared
       sites (fraction ~1.0) must alarm on its own: 1.0 - slack > h *)
    churn_h = 0.55;
  }

(* ---- Page–Hinkley (decrease) ---- *)

type ph = {
  mutable ph_n : int;
  mutable ph_mean : float;
  mutable ph_acc : float;
}

let ph_create () = { ph_n = 0; ph_mean = 0.0; ph_acc = 0.0 }

let ph_reset p =
  p.ph_n <- 0;
  p.ph_mean <- 0.0;
  p.ph_acc <- 0.0

(* Feed one qualifying sample; returns the accumulator after the update.
   The baseline mean is updated {e after} the deviation is scored, so a
   falling series cannot drag its own baseline down fast enough to hide. *)
let ph_update cfg p x =
  if p.ph_n >= cfg.warmup then
    p.ph_acc <- Float.max 0.0 (p.ph_acc +. (p.ph_mean -. x -. cfg.ph_delta));
  p.ph_n <- p.ph_n + 1;
  p.ph_mean <- p.ph_mean +. ((x -. p.ph_mean) /. float_of_int p.ph_n);
  p.ph_acc

let ph_mean p = p.ph_mean
let ph_value p = p.ph_acc

(* ---- CUSUM over a mix (probability vector) ---- *)

type mix = {
  mix_means : float array;
  mutable mix_n : int;
  mutable mix_acc : float;
  mutable mix_last : float;  (** divergence of the most recent sample *)
}

let mix_create k =
  { mix_means = Array.make k 0.0; mix_n = 0; mix_acc = 0.0; mix_last = 0.0 }

let mix_reset m =
  Array.fill m.mix_means 0 (Array.length m.mix_means) 0.0;
  m.mix_n <- 0;
  m.mix_acc <- 0.0;
  m.mix_last <- 0.0

(* [p] must be a probability vector of the same arity as [mix_create]'s
   [k]. Total-variation distance against the running mean mix, scored
   before the sample is folded into the mean. The first [warmup]
   qualifying samples only teach the baseline (startup transitions —
   allocation loops giving way to the steady state, the JIT swapping
   bodies in — must not alarm). *)
let mix_update ~slack ~cap ~warmup m (p : float array) =
  let k = Array.length m.mix_means in
  let d = ref 0.0 in
  for i = 0 to k - 1 do
    d := !d +. Float.abs (p.(i) -. m.mix_means.(i))
  done;
  let d = 0.5 *. !d in
  m.mix_last <- d;
  if m.mix_n >= warmup then
    m.mix_acc <- Float.max 0.0 (m.mix_acc +. Float.min cap (d -. slack));
  m.mix_n <- m.mix_n + 1;
  let w = 1.0 /. float_of_int m.mix_n in
  for i = 0 to k - 1 do
    m.mix_means.(i) <- m.mix_means.(i) +. (w *. (p.(i) -. m.mix_means.(i)))
  done;
  m.mix_acc

let mix_value m = m.mix_acc
let mix_last m = m.mix_last

(* ---- one-sided drift (increase) with a learned baseline ---- *)

(* Like Page–Hinkley but in the increase direction and with capped
   increments: D_t = max(0, D_{t-1} + min(cap, x_t - mean_t - slack)),
   mean updated after scoring. Used on the memory-bound stall share —
   prefetch degradation pushes stall cycles outward to mem/tlb, while
   benign compute-phase changes swing the share in both directions
   around a stable mean and so never accumulate. *)

type drift = {
  mutable dr_n : int;
  mutable dr_mean : float;
  mutable dr_acc : float;
  mutable dr_last : float;
}

let drift_create () = { dr_n = 0; dr_mean = 0.0; dr_acc = 0.0; dr_last = 0.0 }

let drift_reset d =
  d.dr_n <- 0;
  d.dr_mean <- 0.0;
  d.dr_acc <- 0.0;
  d.dr_last <- 0.0

let drift_update ~slack ~cap ~warmup d x =
  d.dr_last <- x;
  if d.dr_n >= warmup then
    d.dr_acc <-
      Float.max 0.0 (d.dr_acc +. Float.min cap (x -. d.dr_mean -. slack));
  d.dr_n <- d.dr_n + 1;
  d.dr_mean <- d.dr_mean +. ((x -. d.dr_mean) /. float_of_int d.dr_n);
  d.dr_acc

let drift_mean d = d.dr_mean
let drift_value d = d.dr_acc
let drift_last d = d.dr_last

(* ---- scalar CUSUM (alloc-site churn) ---- *)

type cusum = { mutable cu_n : int; mutable cu_acc : float }

let cusum_create () = { cu_n = 0; cu_acc = 0.0 }

let cusum_reset c =
  c.cu_n <- 0;
  c.cu_acc <- 0.0

let cusum_update ~slack c x =
  c.cu_acc <- Float.max 0.0 (c.cu_acc +. (x -. slack));
  c.cu_n <- c.cu_n + 1;
  c.cu_acc

let cusum_value c = c.cu_acc

(* ---- verdicts ---- *)

type reason =
  | Useful_rate_drop of { rate : float; baseline : float }
      (** the window's prefetch useful rate against the learned baseline *)
  | Stall_mix_shift of { share : float; baseline : float }
      (** the memory-bound share (tlb+mem) of stall cycles rose
          against its learned baseline: misses are going outward *)
  | Loop_mix_shift of { method_id : int; share : float; baseline : float }
      (** the per-method backedge mix moved; [method_id] is the method
          whose share moved the most *)
  | Alloc_site_churn of { fraction : float }
      (** fraction of the window's allocations at never-before-seen
          sites *)

type verdict = Healthy | Drifting | Degraded of reason

let verdict_name = function
  | Healthy -> "healthy"
  | Drifting -> "drifting"
  | Degraded _ -> "degraded"

let verdict_code = function Healthy -> 0 | Drifting -> 1 | Degraded _ -> 2

let reason_name = function
  | Useful_rate_drop _ -> "useful-rate-drop"
  | Stall_mix_shift _ -> "stall-mix-shift"
  | Loop_mix_shift _ -> "loop-mix-shift"
  | Alloc_site_churn _ -> "alloc-site-churn"

let describe_reason = function
  | Useful_rate_drop { rate; baseline } ->
      Printf.sprintf "useful rate %.2f vs baseline %.2f" rate baseline
  | Stall_mix_shift { share; baseline } ->
      Printf.sprintf "memory-bound stall share %.2f vs baseline %.2f" share
        baseline
  | Loop_mix_shift { method_id; share; baseline } ->
      Printf.sprintf "loop mix shifted (method %d: share %.2f vs %.2f)"
        method_id share baseline
  | Alloc_site_churn { fraction } ->
      Printf.sprintf "%.0f%% of allocations at fresh sites"
        (100.0 *. fraction)
