(** The hardware prefetch unit attached to the L2 demand-miss stream.

    Three models, selected by the machine description
    ({!Config.hw_prefetch_model}):

    - [Hw_none]: disabled.
    - [Hw_stream]: the next-line stream detector both evaluation machines
      ship. Two misses on adjacent lines establish a directed stream that
      suggests the next line each time it advances; a re-miss on a live
      stream's current line is absorbed (it carries no direction at line
      granularity). The paper's profitability rule "an inter-iteration
      stride must exceed half a cache line" exists precisely because this
      hardware already covers short strides (Section 3.3, citing Jouppi).
    - [Hw_rpt]: a Chen/Baer reference-prediction table — direct-mapped
      per-PC trackers with the Initial/Transient/Steady/NoPred state
      machine, issuing up to [degree] line targets [distance] strides
      ahead once a PC's stride is Steady.

    All models observe demand L2 misses only, suggest L2 fill targets
    only, and never cross the page of the triggering miss (hardware
    prefetchers of this era stop at 4 KiB boundaries). *)

type t

val create :
  model:Config.hw_prefetch_model -> line_bytes:int -> page_bytes:int -> t
(** [line_bytes] is the L2 line size (target granularity);
    [Hw_stream {streams = 0}] is equivalent to [Hw_none]. Raises
    [Invalid_argument] on non-positive sizes, a non-power-of-two RPT
    table, or degree/distance < 1. *)

val observe_miss : t -> pc:int -> addr:int -> int list
(** Feed one L2 demand miss: the packed program counter of the accessing
    instruction and the missing address. Returns the line-aligned
    addresses to prefetch into the L2, nearest first ([[]] most of the
    time). The stream model ignores [pc]; the RPT is indexed by it. *)

val reset : t -> unit
(** Forget all trackers (GC compaction rewrites the address space). *)

val rpt_state_name : t -> pc:int -> string option
(** The RPT tracker state currently associated with [pc]
    ("initial"/"transient"/"steady"/"nopred"), [None] when no tracker
    tags [pc] or the model is not [Hw_rpt]. Tests/debug only. *)
