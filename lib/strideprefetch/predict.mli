(** Static access-prediction tier: shared vocabulary between the
    address-algebra abstract interpretation ({!Analysis.Addralg}) and the
    prefetching pass.

    The analysis lives in [lib/analysis] (which depends on this library),
    so the pass consumes predictions through the [predictor] closure type
    below and never sees the abstract domain itself. This module also owns
    the {e agreement scorer} that joins static predictions against
    inspected strides per LDG node ([spf_lint --predict]) and the
    prediction-desync fault injection for the fuzz oracle. *)

(** Confidence lattice of a per-site stride claim. [Certain] means the
    address is affine in induction variables with known steps {e and} the
    load executes exactly once per iteration of the target loop; [Likely]
    relaxes the execution-count evidence (conditional or inner-loop
    placement); [Unknown] is the bottom claim — fall back to inspection. *)
type verdict = Certain | Likely | Unknown

type prediction = {
  site : int;  (** load site id, as in {!Jit.Stack_model.load_info} *)
  pc : int;  (** pc of the load instruction *)
  stride : int option;
      (** predicted inter-iteration stride in bytes; [Some 0] claims a
          loop-invariant address; [None] iff verdict is [Unknown] *)
  verdict : verdict;
  reason : string;  (** one-line justification, for diags and [--explain] *)
}

type t = {
  predictions : prediction list;  (** one per analyzed candidate site *)
  intra : ((int * int) * int) list;
      (** [(anchor, other), offset]: the two sites' addresses provably
          differ by a loop-invariant [offset] bytes every iteration *)
}

val none : t
(** No claims at all: every site is treated as [Unknown]. *)

val find : t -> int -> prediction option

(** What one loop's static analysis looks like to the pass: given the
    method, its CFG, the target loop and the candidate load sites
    (including sites promoted from small-trip children), return per-site
    claims. Must be pure and total — failures inside the analysis are
    expected to degrade to {!none}, never to raise. *)
type predictor =
  meth:Vm.Classfile.method_info ->
  cfg:Jit.Cfg.t ->
  loop:Jit.Loops.loop ->
  candidates:int list ->
  t

(** The hybrid skip rule (DESIGN.md section 12): how much dynamic
    inspection one loop still needs given its static claims.

    [Probed n] runs inspection for at most [n] iterations purely to
    observe the loop's trip class (natural exit below [small_trip_count]
    drives small-trip promotion into the parent — a decision static
    analysis cannot make) while the plan is still built from the static
    claims, exactly as for [Skipped]. *)
type depth = Full | Shortened of int | Probed of int | Skipped

val depth_of :
  opts:Options.t -> t -> loop:Jit.Loops.loop -> candidates:int list -> depth
(** [Inspect] tier: always [Full]. [Static]: always [Skipped]. [Hybrid]:
    when every candidate is [Certain] (or there are no candidates),
    [Skipped] for outermost loops and [Probed] for loops with a parent
    (whose small-trip promotion must still be observed); [Shortened] when
    every candidate is at least [Likely]; [Full] as soon as any candidate
    is [Unknown] or unclaimed. *)

val static_inter : opts:Options.t -> t -> int -> Stride.pattern option
(** Synthesize the inter-iteration pattern codegen sees for [site] when
    inspection was skipped: a full-confidence pattern carrying the
    predicted stride, or [None] when the site is [Unknown]. *)

val static_intra : opts:Options.t -> t -> int -> int -> Stride.pattern option
(** Same for the intra-iteration (anchor, other) offset claims. *)

val verdict_name : verdict -> string

(** {1 Agreement scoring} *)

(** One (site, loop) row joining the static claim with what full dynamic
    inspection concluded for the same LDG node. *)
type row = {
  r_workload : string;
  r_method : string;
  r_loop : int;
  r_site : int;
  r_pc : int;
  r_verdict : verdict;
  r_static : int option;  (** claimed stride *)
  r_inspected : int option;  (** dominant inspected stride, if any *)
  r_observations : int;  (** addresses inspection recorded for the site *)
}

type classification =
  | Agree  (** both claim the same stride *)
  | Disagree
      (** static claims a stride but inspection (with enough evidence)
          concluded a different one, or none at all *)
  | Missed  (** static says [Unknown] but inspection found a pattern *)
  | Undecided  (** static says [Unknown] and inspection found nothing *)
  | Insufficient
      (** inspection observed too few addresses to judge the claim *)

val classify : min_samples:int -> row -> classification

type score = {
  sites : int;  (** scored rows *)
  claimed : int;  (** rows with a non-[Unknown] verdict *)
  certain : int;
  agreed : int;
  disagreed : int;
  missed : int;
  undecided : int;
  insufficient : int;
}

val score : min_samples:int -> row list -> score

val agreement_pct : score -> float
(** [100 * agreed / (agreed + disagreed)]; vacuously [100.] with no
    decided claims (precision over claimed sites, the tentpole's >= 80%
    acceptance metric). *)

val render_table : (string * score) list -> string
(** Per-workload agreement table in {!Telemetry.Table} style, with a
    TOTAL row when more than one workload is listed. *)

(** {1 Fault injection} *)

val inject_desync : Vm.Bytecode.instr array -> Vm.Bytecode.instr array
(** Prepend an observable [Iconst 9001; Print] pair, shifting every branch
    target past the new prefix — the {!Vm.Fault.Prediction_desync} miscompile
    only the oracle's prediction crosscheck can catch. *)
