(** The configuration of one run: the seven axes that, together with the
    workload, fix a run's simulated result.

    Every configured run is described by one of these — the command-line
    flags of the [spf_*] binaries, [spf_diff --vs] overrides and the axis
    bisector, bench cells and their gate keys, [spf_bench --sweep] — so
    each axis has one parser and one canonical spelling, defined here.
    Observers (telemetry, profiler, monitor) are not axes: they never move
    a simulated number. *)

type t = {
  machine : Memsim.Config.machine;
  hw : Memsim.Config.hw_prefetch_model option;
      (** hardware prefetcher override; [None]: the machine's own model *)
  mode : Strideprefetch.Options.mode;
  passes : bool;  (** the standard JIT passes run before prefetching *)
  engine : Vm.Interp.engine;
  prediction : Strideprefetch.Options.prediction_tier;
  threshold : int option;
      (** inter-stride threshold override; [None]: the paper's half-line
          rule *)
}

val default : t
(** Pentium4, its own hardware prefetcher, inter+intra, passes on, the
    closure engine, the inspect tier, the paper's threshold. *)

val machine : t -> Memsim.Config.machine
(** The machine with the [hw] override applied — what a run simulates. *)

val opts : t -> Strideprefetch.Options.t
(** [prediction] and [threshold] set on {!Strideprefetch.Options.default}. *)

type axis = Mode | Machine | Hw | Threshold | Prediction | Passes | Engine

val all_axes : axis list
(** Canonical order: the cycle-moving axes first, the engine (simulation
    neutral by construction) last — the bisector's probe order. *)

val axis_name : axis -> string
(** [mode], [machine], [hw], [threshold], [prediction], [passes],
    [engine]. *)

val axis_of_name : string -> axis option
(** Case-insensitive; also accepts the short and flag spellings [m], [p],
    [hw-prefetch], [thr], [pred]. *)

val parse : axis -> string -> (t -> t, string) result
(** Parse one value of an axis; the result sets that axis. Values:
    machine names; [off]/[inter]/[inter+intra]; hardware specs ([none],
    [stream[:N]], [rpt[:TxD@K]]); an integer or [default];
    [inspect]/[static]/[hybrid]; [on]/[off]; [closure]/[switch]. Every
    {!axis_value} parses back to itself. *)

val axis_value : t -> axis -> string
(** The canonical spelling of one axis, e.g. [axis_value c Hw =
    "stream:8"] — resolved against the machine when [hw = None]. *)

val differing : a:t -> b:t -> axis list
(** The axes on which two configurations disagree, in canonical order.
    The hardware axis compares resolved models, so [hw = None] equals an
    explicit spec naming the machine's own model. *)

val equal : t -> t -> bool
(** [differing] is empty: the two configurations simulate the same run. *)

val transplant : axis -> src:t -> t -> t
(** Copy one axis from [src]. The hardware axis carries the resolved
    model, so a [src] riding its machine's default keeps that model even
    on another machine. *)

val apply_overrides : t -> string -> (t, string) result
(** Apply a comma-separated [key=value] list ([spf_diff --vs]), keys as
    {!axis_of_name}, values as {!parse}. An empty list, an unknown key or
    an unknown value is an [Error]. *)

val to_string : t -> string
(** Every axis as [key=value], comma-separated, in canonical order:
    [apply_overrides default (to_string c)] is [Ok c'] with [equal c c']. *)
