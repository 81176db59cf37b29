(** The fault registry: every deliberate defect a self-test can inject.

    Each fault breaks exactly one law that some check exists to enforce,
    and is otherwise invisible, so injecting it proves that check is live
    (EXPERIMENTS.md, "Fuzzing & reproducing failures", lists which check
    catches which fault). A run carries its faults in
    [Interp.options.faults]; the empty list — the default — is the
    correct simulator. Never inject outside self-tests. *)

type t =
  | Unguarded_spec_loads
      (** a [Spec_load] whose address falls outside every live object
          raises {!Interp.Vm_error} (a simulated segfault) instead of
          yielding [Null] — the guard the paper's speculative loads rely
          on (Section 3.3) is switched off *)
  | Skip_guard_dominance
      (** the prefetch codegen emits a deref splice's [prefetch_indirect]s
          {e before} their [spec_load] guard: runtime-benign (the register
          still holds its initial null), caught only by the static
          spec-def-use / guard-dominance checkers *)
  | Engine_desync
      (** the closure engine retires one extra instruction per executed
          [Goto]: output, cycles and heap are unchanged, so only a
          full-stats diff against the switch engine sees it. Unobserved
          runs only: an observed run executes on the reference loop *)
  | Hw_desync
      (** a run on a machine shipping the RPT hardware prefetcher appends a
          sentinel line to program output — a hardware model leaking into
          architectural state *)
  | Prediction_desync
      (** a method rewritten under a non-[Inspect] prediction tier gets an
          observable [Iconst; Print] pair prepended, so static/hybrid
          output diverges from inspect-tier output *)
  | Monitor_desync
      (** every window-boundary fire of the live monitor charges one extra
          simulated cycle: an observer that participates *)
  | Diff_desync
      (** the blame join perturbs one loop's delta by a cycle, breaking the
          diff engine's conservation law *)

val all : t list
(** Every fault, in declaration order. *)

val name : t -> string
(** The CLI spelling, e.g. ["engine-desync"]. *)

val of_string : string -> t option
(** Inverse of {!name}. *)
