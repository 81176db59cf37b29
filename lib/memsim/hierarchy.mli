(** The composed memory system of one machine: DTLB + L1 + L2 + the
    hardware stream prefetcher, with the machine-specific software-prefetch
    semantics of Section 3.3:

    - the hardware [prefetch] instruction fills the machine's prefetch
      target level (L2 on the Pentium 4, L1 and L2 on the Athlon MP) and is
      cancelled when the page is not in the DTLB;
    - a [guarded_load] (a load protected by a software exception check)
      additionally primes the DTLB and always fills L1 and L2.

    All prefetch-type operations are non-blocking: they initiate fills that
    complete [latency] cycles later, and only a demand access arriving
    before completion pays (the residual part of) the latency.

    Each operation has one body. While an {!Attribution.t} is installed
    ({!set_attribution}), the same body also classifies what it does
    against it and keeps the stall breakdown below: an attributed run
    makes the identical state transitions and seed-counter updates as a
    plain one, so cycles and core stats are bit-identical, and only the
    [Stats.telemetry_only] counters differ. A plain run pays one immediate
    test per branch. *)

type t

val create : Config.machine -> t
val machine : t -> Config.machine
val stats : t -> Stats.t

val set_attribution : t -> Attribution.t -> unit
(** Install an attribution: from now on every operation classifies what
    it does against it, replacing any installed before. *)

val attribution : t -> Attribution.t option
(** The installed attribution, if any. *)

val demand_access :
  t -> pc:int -> addr:int -> kind:[ `Load | `Store ] -> now:int -> int
(** Perform a demand access; returns the stall cycles to charge, and
    records miss events in {!stats}. [pc] is the packed program counter
    of the accessing instruction (see [Vm.State]); it indexes the RPT
    hardware prefetcher and must be engine-invariant — the stream model
    ignores it. Attributed, its demand memory misses are bucketed under
    key [-1]. *)

val demand_load : t -> pc:int -> addr:int -> now:int -> dkey:int -> int
(** A demand load whose memory misses attribution buckets under [dkey];
    otherwise {!demand_access} [~kind:`Load]. *)

val sw_prefetch : t -> addr:int -> now:int -> site:int -> unit
(** Execute a hardware prefetch instruction for [addr] (non-blocking).
    Attribution records the issue under [site], which is ignored while
    none is installed. *)

val guarded_load : t -> addr:int -> now:int -> site:int -> unit
(** Execute a guarded prefetching load for [addr] (non-blocking,
    TLB-priming); [site] as for {!sw_prefetch}. *)

val line_bytes : t -> int
(** Line size of the level software prefetches target — the value the
    profitability analysis compares strides against. *)

val page_bytes : t -> int

val reset : t -> unit
(** Empty the caches, the DTLB and the hardware prefetcher, and flush the
    installed attribution's shadow tables with them; every counter is
    kept. GC compaction calls this when it rewrites the address space. *)

(** {2 Stall breakdown of the last demand access}

    The profiler's top-down cycle accounting: while an attribution is
    installed, after a demand access returning stall [s], the four
    components below satisfy the conservation law

    {v last_tlb + last_l1 + last_l2 + last_mem = s v}

    - [tlb]: the DTLB miss penalty, when the translation missed;
    - [l1]: the machine's L1 hit-extra cycles on a ready L1 hit;
    - [l2]: the L1-miss (= L2 access) penalty paid by every L1 miss;
    - [mem]: DRAM latency on an L2 miss, or the residual wait on a fill
      that was still in flight (the data is on its way from below the
      level that hit, so residuals are accounted memory-bound).

    Without an attribution they are not maintained. *)

val last_tlb_stall : t -> int
val last_l1_stall : t -> int
val last_l2_stall : t -> int
val last_mem_stall : t -> int
