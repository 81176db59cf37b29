(** Machine descriptions for the memory-hierarchy simulator.

    The two preset machines reproduce Table 2 of the paper (cache and DTLB
    geometry of the Intel Pentium 4 and the AMD Athlon MP) together with the
    timing model documented in DESIGN.md. *)

type cache_params = {
  size_bytes : int;  (** total capacity in bytes *)
  line_bytes : int;  (** line size in bytes; must be a power of two *)
  assoc : int;  (** number of ways *)
  hit_extra : int;  (** extra cycles charged on a hit in this level *)
  miss_penalty : int;  (** cycles to fetch a line from the next level *)
}

type tlb_params = {
  entries : int;  (** number of fully-associative entries *)
  page_bytes : int;  (** page size in bytes; must be a power of two *)
  tlb_miss_penalty : int;  (** page-walk cycles charged on a miss *)
}

(** Cache level that software prefetch instructions fill: the Pentium 4
    prefetches into the L2 only, the Athlon MP into the L1 (and L2). *)
type prefetch_target = To_l2 | To_l1

(** The hardware prefetcher model a machine ships (see {!Hw_prefetch}):
    [Hw_none] disables it; [Hw_stream] is the next-line stream detector
    of the seed simulator; [Hw_rpt] is a Chen/Baer reference-prediction
    table (direct-mapped per-PC trackers, power-of-two [table_size],
    issuing [degree] line targets [distance] strides ahead once a
    tracker is Steady). *)
type hw_prefetch_model =
  | Hw_none
  | Hw_stream of { streams : int }
  | Hw_rpt of { table_size : int; degree : int; distance : int }

type machine = {
  name : string;
  l1 : cache_params;
  l2 : cache_params;
  dtlb : tlb_params;
  prefetch_target : prefetch_target;
  interp_cost : int;  (** cycles to retire one interpreted instruction *)
  compiled_cost : int;  (** cycles to retire one compiled instruction *)
  prefetch_cost : int;  (** cycles to retire a hardware prefetch instruction *)
  guarded_load_cost : int;  (** cycles to retire a guarded (checked) load *)
  hw_prefetch : hw_prefetch_model;  (** the HW prefetcher this machine runs *)
}

val pentium4 : machine
val athlon_mp : machine

val machines : machine list
(** [machines] is [[pentium4; athlon_mp]], the evaluation platforms. *)

val machine_of_name : string -> machine option
(** Case-insensitive lookup among {!machines}. *)

val validate : machine -> (unit, string) result
(** Check structural invariants (powers of two, positive sizes,
    associativity dividing the number of lines). *)

val validate_cache : string -> cache_params -> (unit, string) result
(** [validate_cache label params] checks one cache level; [label] prefixes
    the error message. *)

val default_stream : hw_prefetch_model
(** [Hw_stream {streams = 8}] — what both paper machines ship. *)

val default_rpt : hw_prefetch_model
(** [Hw_rpt {table_size = 64; degree = 2; distance = 4}] — the default
    operating point of the RPT model ("rpt" with no parameters). *)

val hw_prefetch_to_string : hw_prefetch_model -> string
(** Canonical spec string ("none", "stream:8", "rpt:64x2\@4"), stable —
    bench cell keys embed it. Round-trips through
    {!hw_prefetch_of_string}. *)

val hw_prefetch_of_string : string -> (hw_prefetch_model, string) result
(** Parse a spec: "none", "stream", "stream:N", "rpt", or
    "rpt:TABLExDEGREE\@DISTANCE" (e.g. "rpt:64x2\@4"). Bare "stream"
    and "rpt" mean {!default_stream} and {!default_rpt}. *)
