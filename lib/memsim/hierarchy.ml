(* The composed memory system (see hierarchy.mli). Each operation has
   one body; attribution is an observer the hierarchy holds. Every
   classification step and every store to the stall breakdown sits in a
   [match t.attrib with Some at -> ... | None -> ()] arm at the state
   transition it classifies, so a plain run pays one immediate test per
   branch and an attributed run makes the identical cache, TLB and
   seed-counter transitions in the identical order. *)

type t = {
  machine : Config.machine;
  l1 : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  hwpf : Hw_prefetch.t;
  stats : Stats.t;
  (* Per-level penalties, hoisted out of the per-access hot path at
     [create] time so [demand_access] does no nested record loads. *)
  l1_hit_extra : int;
  l1_miss_penalty : int;
  tlb_miss_penalty : int;
  mem_latency : int;  (** DRAM fill latency = L2 miss penalty *)
  mutable attrib : Attribution.t option;
  (* Stall breakdown of the most recent demand access, for the profiler's
     top-down cycle accounting. Written only while [attrib] is installed,
     and then guaranteed to satisfy [bd_tlb + bd_l1 + bd_l2 + bd_mem =
     returned stall] — the conservation law the profiler's golden tests
     assert. *)
  mutable bd_tlb : int;
  mutable bd_l1 : int;
  mutable bd_l2 : int;
  mutable bd_mem : int;
}

let create (machine : Config.machine) =
  (match Config.validate machine with
  | Ok () -> ()
  | Error msg -> invalid_arg ("hierarchy: " ^ msg));
  {
    machine;
    l1 = Cache.create machine.l1;
    l2 = Cache.create machine.l2;
    dtlb = Tlb.create machine.dtlb;
    hwpf =
      Hw_prefetch.create ~model:machine.hw_prefetch
        ~line_bytes:machine.l2.line_bytes
        ~page_bytes:machine.dtlb.page_bytes;
    stats = Stats.create ();
    l1_hit_extra = machine.l1.hit_extra;
    l1_miss_penalty = machine.l1.miss_penalty;
    tlb_miss_penalty = machine.dtlb.tlb_miss_penalty;
    mem_latency = machine.l2.miss_penalty;
    attrib = None;
    bd_tlb = 0;
    bd_l1 = 0;
    bd_l2 = 0;
    bd_mem = 0;
  }

let machine t = t.machine
let stats t = t.stats
let set_attribution t at = t.attrib <- Some at
let attribution t = t.attrib

(* Int-specialized [max]: [Stdlib.max] compiles to the generic-compare C
   call, visible on the prefetch/miss fill paths. *)
let[@inline] imax (a : int) b = if a > b then a else b

let line_bytes t =
  match t.machine.prefetch_target with
  | Config.To_l2 -> t.machine.l2.line_bytes
  | Config.To_l1 -> t.machine.l1.line_bytes

let page_bytes t = t.machine.dtlb.page_bytes

(* Feed one demand L2 miss to the hardware prefetcher and issue its
   suggested fills, nearest target first. A target already present (or in
   flight) in the L2 costs nothing and is not counted. Attribution tracks
   each actual fill: it splits [redundant] from [redundant_hw]. *)
let hw_prefetch_on_l2_miss t ~pc ~addr ~now =
  match Hw_prefetch.observe_miss t.hwpf ~pc ~addr with
  | [] -> ()
  | targets ->
      List.iter
        (fun target ->
          if not (Cache.probe t.l2 ~addr:target) then begin
            t.stats.hw_prefetches <- t.stats.hw_prefetches + 1;
            Cache.fill t.l2 ~addr:target ~ready_at:(now + t.mem_latency);
            match t.attrib with
            | Some at ->
                Attribution.note_hw_fill at ~line:(Cache.line_of t.l2 target)
            | None -> ()
          end)
        targets

let record_l1_miss t = function
  | `Load -> t.stats.l1_load_misses <- t.stats.l1_load_misses + 1
  | `Store -> t.stats.l1_store_misses <- t.stats.l1_store_misses + 1

let record_l2_miss t = function
  | `Load -> t.stats.l2_load_misses <- t.stats.l2_load_misses + 1
  | `Store -> t.stats.l2_store_misses <- t.stats.l2_store_misses + 1

let record_dtlb_miss t = function
  | `Load -> t.stats.dtlb_load_misses <- t.stats.dtlb_load_misses + 1
  | `Store -> t.stats.dtlb_store_misses <- t.stats.dtlb_store_misses + 1

(* A demand access found [line] at [level] after a residual wait of [r]
   cycles (0: the fill had completed). The first demand to touch a
   prefetched line classifies it. Only attributed runs call this. *)
let[@inline never] classify_hit t at ~level ~line ~r =
  match Attribution.demand_resolve at ~level ~line ~ready:(r = 0) with
  | Attribution.Useful ->
      t.stats.sw_prefetch_useful <- t.stats.sw_prefetch_useful + 1
  | Attribution.Late -> t.stats.sw_prefetch_late <- t.stats.sw_prefetch_late + 1
  | Attribution.Untracked ->
      if r > 0 then
        t.stats.in_flight_demand_hits <- t.stats.in_flight_demand_hits + 1

let[@inline] set_breakdown t ~tlb ~l1 ~l2 ~mem =
  t.bd_tlb <- tlb; t.bd_l1 <- l1; t.bd_l2 <- l2; t.bd_mem <- mem

(* L1-missed demand access: walk the L2 and memory, fill upwards. Returns
   the stall beyond any TLB penalty. Out of line so the fast path below
   stays small. *)
let[@inline never] demand_l1_miss t ~pc ~addr ~kind ~now ~dkey =
  record_l1_miss t kind;
  let r2 = Cache.access_residual t.l2 ~addr ~now in
  let stall =
    if r2 >= 0 then begin
      if r2 > 0 then t.stats.in_flight_hits <- t.stats.in_flight_hits + 1;
      (match t.attrib with
      | Some at ->
          let line = Cache.line_of t.l2 addr in
          classify_hit t at ~level:`L2 ~line ~r:r2;
          if Attribution.hw_demand_resolve at ~line then
            t.stats.hw_prefetch_useful <- t.stats.hw_prefetch_useful + 1;
          t.bd_mem <- r2
      | None -> ());
      t.l1_miss_penalty + r2
    end
    else begin
      record_l2_miss t kind;
      (match t.attrib with
      | Some at ->
          let line = Cache.line_of t.l2 addr in
          Attribution.demand_evict at ~level:`L2 ~line;
          Attribution.hw_demand_evict at ~line;
          Attribution.note_demand_miss at ~key:dkey;
          t.bd_mem <- t.mem_latency
      | None -> ());
      hw_prefetch_on_l2_miss t ~pc ~addr ~now;
      Cache.fill t.l2 ~addr ~ready_at:now;
      t.l1_miss_penalty + t.mem_latency
    end
  in
  Cache.fill t.l1 ~addr ~ready_at:now;
  stall

(* The one demand body. Fast path: DTLB hit and L1 hit-and-ready resolve
   in two probes and return [hit_extra] directly — no [ref] cells, no
   closure, no allocation. *)
let[@inline] access t ~pc ~addr ~kind ~now ~dkey =
  (match kind with
  | `Load -> t.stats.loads <- t.stats.loads + 1
  | `Store -> t.stats.stores <- t.stats.stores + 1);
  let tlb_stall =
    if Tlb.access t.dtlb ~addr then 0
    else begin
      record_dtlb_miss t kind;
      Tlb.fill t.dtlb ~addr;
      t.tlb_miss_penalty
    end
  in
  let r1 = Cache.access_residual t.l1 ~addr ~now in
  if r1 = 0 then begin
    (match t.attrib with
    | Some at ->
        classify_hit t at ~level:`L1 ~line:(Cache.line_of t.l1 addr) ~r:0;
        set_breakdown t ~tlb:tlb_stall ~l1:t.l1_hit_extra ~l2:0 ~mem:0
    | None -> ());
    tlb_stall + t.l1_hit_extra
  end
  else if r1 > 0 then begin
    t.stats.in_flight_hits <- t.stats.in_flight_hits + 1;
    (* Waiting out an in-flight L1 fill: the data is still on its way
       from below, so the residual is accounted memory-bound. *)
    (match t.attrib with
    | Some at ->
        classify_hit t at ~level:`L1 ~line:(Cache.line_of t.l1 addr) ~r:r1;
        set_breakdown t ~tlb:tlb_stall ~l1:0 ~l2:0 ~mem:r1
    | None -> ());
    tlb_stall + r1
  end
  else begin
    (* Every L1 miss pays the L2 access penalty: L2-bound. The L2 step
       adds the memory-bound part: a residual below the L2 or DRAM. *)
    (match t.attrib with
    | Some at ->
        Attribution.demand_evict at ~level:`L1 ~line:(Cache.line_of t.l1 addr);
        set_breakdown t ~tlb:tlb_stall ~l1:0 ~l2:t.l1_miss_penalty ~mem:0
    | None -> ());
    tlb_stall + demand_l1_miss t ~pc ~addr ~kind ~now ~dkey
  end

let[@inline] demand_access t ~pc ~addr ~kind ~now =
  access t ~pc ~addr ~kind ~now ~dkey:(-1)

let demand_load t ~pc ~addr ~now ~dkey =
  access t ~pc ~addr ~kind:`Load ~now ~dkey

let last_tlb_stall t = t.bd_tlb
let last_l1_stall t = t.bd_l1
let last_l2_stall t = t.bd_l2
let last_mem_stall t = t.bd_mem

(* Completion time (not a stall) of bringing [addr] into the L2 for a
   non-blocking operation issued at [now]. *)
let l2_fill_ready t ~addr ~now =
  let r = Cache.access_residual t.l2 ~addr ~now in
  if r >= 0 then now + r
  else begin
    let ready = now + t.mem_latency in
    Cache.fill t.l2 ~addr ~ready_at:ready;
    ready
  end

(* The L1-targeted fill shared by the Athlon's [prefetch] and every
   guarded load: a line already in the L1 makes the operation useless. *)
let fill_l1 t ~addr ~now ~site =
  if Cache.probe t.l1 ~addr then begin
    t.stats.sw_prefetch_useless <- t.stats.sw_prefetch_useless + 1;
    match t.attrib with
    | Some at -> Attribution.note_redundant at ~site
    | None -> ()
  end
  else begin
    let ready = l2_fill_ready t ~addr ~now in
    Cache.fill t.l1 ~addr ~ready_at:(imax ready (now + t.l1_miss_penalty));
    match t.attrib with
    | Some at ->
        Attribution.note_fill at ~level:`L1 ~line:(Cache.line_of t.l1 addr)
          ~site
    | None -> ()
  end

let sw_prefetch t ~addr ~now ~site =
  t.stats.sw_prefetches <- t.stats.sw_prefetches + 1;
  (match t.attrib with Some at -> Attribution.note_issue at ~site | None -> ());
  if not (Tlb.probe t.dtlb ~addr) then begin
    (* The processor cancels a hardware prefetch whose translation misses
       the DTLB (Section 3.3). *)
    t.stats.sw_prefetches_cancelled <- t.stats.sw_prefetches_cancelled + 1;
    match t.attrib with
    | Some at -> Attribution.note_cancelled at ~site
    | None -> ()
  end
  else
    match t.machine.prefetch_target with
    | Config.To_l1 -> fill_l1 t ~addr ~now ~site
    | Config.To_l2 ->
        if Cache.probe t.l2 ~addr then begin
          t.stats.sw_prefetch_useless <- t.stats.sw_prefetch_useless + 1;
          match t.attrib with
          | Some at ->
              (* The line is cached — but is it cached because the
                 hardware prefetcher fetched it? That refinement is the
                 SW/HW arbitration signal: a [redundant_hw] prefetch is
                 one the paper's half-line rule should have suppressed. *)
              if Attribution.hw_tracked at ~line:(Cache.line_of t.l2 addr)
              then begin
                t.stats.sw_prefetch_redundant_hw <-
                  t.stats.sw_prefetch_redundant_hw + 1;
                Attribution.note_redundant_hw at ~site
              end
              else Attribution.note_redundant at ~site
          | None -> ()
        end
        else begin
          ignore (l2_fill_ready t ~addr ~now);
          match t.attrib with
          | Some at ->
              Attribution.note_fill at ~level:`L2
                ~line:(Cache.line_of t.l2 addr) ~site
          | None -> ()
        end

let guarded_load t ~addr ~now ~site =
  t.stats.guarded_loads <- t.stats.guarded_loads + 1;
  (match t.attrib with Some at -> Attribution.note_issue at ~site | None -> ());
  if not (Tlb.probe t.dtlb ~addr) then Tlb.fill t.dtlb ~addr;
  fill_l1 t ~addr ~now ~site

(* The shadow tables speak raw line indices, so they are emptied with
   the caches: any fill still untouched is useless by definition now. *)
let reset t =
  Cache.reset t.l1;
  Cache.reset t.l2;
  Tlb.reset t.dtlb;
  Hw_prefetch.reset t.hwpf;
  match t.attrib with Some at -> Attribution.flush at | None -> ()
