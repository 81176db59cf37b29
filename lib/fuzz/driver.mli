(** Fuzzing campaign driver: generate, check, shrink, report.

    Seed protocol: program [i] of a campaign with seed [s] is generated
    from derived seed [s + i], so {!replay} — [spf_fuzz --seed (s + i)
    --count 1] with the campaign's [--max-size] and [--inject] —
    regenerates and re-checks program [i] exactly. *)

type finding = {
  seed : int;  (** derived per-program seed: campaign seed + index *)
  index : int;
  max_size : int;  (** the campaign's size budget *)
  faults : Vm.Fault.t list;  (** the campaign's injected faults *)
  failure : Oracle.failure;
  source : string;
  shrunk : Shrink.result option;
}

type campaign = {
  campaign_seed : int;
  programs_run : int;
  cells_per_program : int;  (** {!Oracle.runs_per_program} of the cells *)
  findings : finding list;  (** in discovery order; empty means all passed *)
}

val check_seed :
  ?cells:Oracle.cell list ->
  ?faults:Vm.Fault.t list ->
  seed:int ->
  max_size:int ->
  unit ->
  Gen.t * Oracle.verdict
(** Generate one program and run the oracle on it. *)

val run :
  ?cells:Oracle.cell list ->
  ?faults:Vm.Fault.t list ->
  ?shrink:bool ->
  ?shrink_attempts:int ->
  ?progress:(index:int -> seed:int -> unit) ->
  campaign_seed:int ->
  count:int ->
  max_size:int ->
  unit ->
  campaign
(** Run a whole campaign. [shrink] (default [true]) minimizes each
    finding; a shrink candidate only counts as failing when it fails in
    the {e same class} as the original finding, so minimization cannot
    wander to an unrelated bug. [progress] is called before each
    program. *)

val replay : finding -> string
(** The command line that reproduces the finding, e.g.
    ["spf_fuzz --seed 2027 --count 1 --max-size 6 --inject engine-desync"]. *)

val pp_finding : Format.formatter -> finding -> unit
(** The report format: failure description, replay command line, full
    program, and the shrunk reproducer when present. *)
