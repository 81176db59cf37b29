(* Per-site effectiveness attribution for software prefetches.

   Every prefetch-type operation carries a small dense [site] id (the
   joining of ids to methods/loops/strategies happens outside memsim, in
   the telemetry layer — this module speaks only ints). Each fill that a
   software prefetch initiates is remembered in a shadow table keyed by
   the line index at the level the fill targeted; the first demand access
   that reaches that line classifies the prefetch:

   - {b useful}: the demand found the line present and ready — the
     prefetch converted a miss into a hit;
   - {b late}: the demand arrived while the fill was still in flight —
     the prefetch hid only part of the latency;
   - {b useless}: the line was evicted (observed lazily: a later miss on
     a tracked line proves the eviction) or never touched before a
     flush, so the prefetch moved data nobody read.

   At issue time three further outcomes are recorded directly:
   {b cancelled} (DTLB-miss cancellation of a hardware-form prefetch),
   {b redundant} (the target line was already cached) and
   {b redundant_hw} (the target line was already cached {e because the
   hardware prefetcher fetched it} — tracked in a second shadow table of
   hardware fills, the SW/HW arbitration signal). Every issue lands in
   exactly one class, so after [flush]:

     issued = cancelled + redundant + redundant_hw + useful + late + useless

   which the tests assert. Demand {e memory} misses (fills from DRAM)
   are additionally bucketed by a caller-supplied demand key, giving the
   denominator for coverage: a site's useful prefetches over the misses
   it was meant to eliminate plus the ones that remain. *)

type site_counters = {
  mutable issued : int;
  mutable cancelled : int;  (** DTLB-miss cancellations *)
  mutable redundant : int;  (** target line already cached at issue *)
  mutable redundant_hw : int;
      (** target line already cached at issue, filled by the HW prefetcher *)
  mutable useful : int;  (** demand found the line ready *)
  mutable late : int;  (** demand arrived while the fill was in flight *)
  mutable useless : int;  (** evicted or flushed untouched *)
}

let zero_counters () =
  {
    issued = 0;
    cancelled = 0;
    redundant = 0;
    redundant_hw = 0;
    useful = 0;
    late = 0;
    useless = 0;
  }

type entry = { site : int; mutable touched : bool }

(* The shadow tables are keyed by line indices and demand keys, so they
   compare with int equality and hash with a multiply-shift (Fibonacci)
   hash instead of the polymorphic [Hashtbl.hash]. The hash must mix:
   the table picks a bucket from the hash's low bits, and page-strided
   line indices share theirs — an identity hash puts 4,096 lines at a
   stride of 64 into buckets 128 deep. The multiply carries every key
   bit upward, and the shift brings the well-mixed high bits of the
   product down to where the bucket index is taken. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 32
end)

type t = {
  mutable sites : site_counters array;
  mutable n_sites : int;
  l1_lines : entry Int_tbl.t;  (** L1 line index -> issuing site *)
  l2_lines : entry Int_tbl.t;  (** L2 line index -> issuing site *)
  hw_lines : bool ref Int_tbl.t;
      (** L2 line index -> touched, for lines the HW prefetcher filled *)
  demand_misses : int ref Int_tbl.t;  (** demand key -> memory misses *)
}

let create () =
  {
    sites = Array.init 16 (fun _ -> zero_counters ());
    n_sites = 0;
    l1_lines = Int_tbl.create 1024;
    l2_lines = Int_tbl.create 1024;
    hw_lines = Int_tbl.create 1024;
    demand_misses = Int_tbl.create 64;
  }

let site t id =
  if id < 0 then invalid_arg "Attribution.site: negative site id";
  if id >= Array.length t.sites then begin
    let n = max (2 * Array.length t.sites) (id + 1) in
    let grown = Array.init n (fun _ -> zero_counters ()) in
    Array.blit t.sites 0 grown 0 (Array.length t.sites);
    t.sites <- grown
  end;
  if id >= t.n_sites then t.n_sites <- id + 1;
  t.sites.(id)

let n_sites t = t.n_sites

let site_counters t id =
  if id < 0 || id >= t.n_sites then zero_counters ()
  else
    let c = t.sites.(id) in
    {
      issued = c.issued;
      cancelled = c.cancelled;
      redundant = c.redundant;
      redundant_hw = c.redundant_hw;
      useful = c.useful;
      late = c.late;
      useless = c.useless;
    }

let note_issue t ~site:id =
  let c = site t id in
  c.issued <- c.issued + 1

let note_cancelled t ~site:id =
  let c = site t id in
  c.cancelled <- c.cancelled + 1

let note_redundant t ~site:id =
  let c = site t id in
  c.redundant <- c.redundant + 1

let note_redundant_hw t ~site:id =
  let c = site t id in
  c.redundant_hw <- c.redundant_hw + 1

(* ---- hardware-fill shadow table (L2 only: the HW prefetcher fills the
   L2). The table answers one question at SW-prefetch issue time — "is
   this line cached because the hardware fetched it?" — and feeds the
   telemetry-only [hw_prefetch_useful] counter on first demand touch.
   Hardware fills are not part of the SW conservation law. *)

let note_hw_fill t ~line = Int_tbl.replace t.hw_lines line (ref false)
let hw_tracked t ~line = Int_tbl.mem t.hw_lines line

(* The demand path probes the shadow tables on every access, and almost
   every probe misses: most demand lines were never prefetched. So its
   lookups test [mem] before [find] — a miss costs one probe and no
   raised [Not_found], a hit allocates nothing (no [find_opt] box). *)

(* A demand access found [line] present in the L2: first touch of a
   HW-filled line reports true (the HW prefetch covered a demand miss). *)
let hw_demand_resolve t ~line =
  if not (Int_tbl.mem t.hw_lines line) then false
  else
    let touched = Int_tbl.find t.hw_lines line in
    if !touched then false
    else begin
      touched := true;
      true
    end

(* A demand access missed [line] in the L2: any HW entry there was
   evicted. *)
let hw_demand_evict t ~line = Int_tbl.remove t.hw_lines line

let table t = function `L1 -> t.l1_lines | `L2 -> t.l2_lines

(* A software prefetch initiated a fill of [line] at [level]. If a stale
   untouched entry is being replaced, its line must have been evicted
   since (the caller only fills on a probe miss), so it is classified
   useless here. *)
let note_fill t ~level ~line ~site:id =
  let tbl = table t level in
  (match Int_tbl.find_opt tbl line with
  | Some old when not old.touched ->
      let c = site t old.site in
      c.useless <- c.useless + 1
  | Some _ | None -> ());
  Int_tbl.replace tbl line { site = id; touched = false }

type outcome = Useful | Late | Untracked

(* A demand access found [line] present at [level]; [ready] says whether
   the fill had completed. The first demand to touch a tracked line
   classifies its prefetch; later demands are untracked hits. *)
let demand_resolve t ~level ~line ~ready =
  let tbl = table t level in
  if not (Int_tbl.mem tbl line) then Untracked
  else
    let e = Int_tbl.find tbl line in
    if e.touched then Untracked
    else begin
      e.touched <- true;
      let c = site t e.site in
      if ready then begin
        c.useful <- c.useful + 1;
        Useful
      end
      else begin
        c.late <- c.late + 1;
        Late
      end
    end

(* A demand access missed [line] at [level]: any untouched tracked entry
   was evicted before use. *)
let demand_evict t ~level ~line =
  let tbl = table t level in
  if Int_tbl.mem tbl line then begin
    let e = Int_tbl.find tbl line in
    if not e.touched then begin
      let c = site t e.site in
      c.useless <- c.useless + 1
    end;
    Int_tbl.remove tbl line
  end

(* Unlike the line probes, a demand key is nearly always present (a
   site misses many times), so [find] with a [Not_found] handler: one
   probe per hit, the exception only on a key's first miss. *)
let note_demand_miss t ~key =
  match Int_tbl.find t.demand_misses key with
  | r -> incr r
  | exception Not_found -> Int_tbl.add t.demand_misses key (ref 1)

let demand_misses_for t ~key =
  match Int_tbl.find_opt t.demand_misses key with Some r -> !r | None -> 0

let demand_miss_buckets t =
  Int_tbl.fold (fun k r acc -> (k, !r) :: acc) t.demand_misses []
  |> List.sort compare

(* The shadow tables speak raw line indices, so they must be emptied
   whenever the simulated address space is rewritten (GC compaction) or
   the caches are reset; any still-untouched fill is then useless by
   definition. Also called once at end of run to settle the books. *)
let flush t =
  let settle tbl =
    Int_tbl.iter
      (fun _ e ->
        if not e.touched then begin
          let c = site t e.site in
          c.useless <- c.useless + 1
        end)
      tbl;
    Int_tbl.reset tbl
  in
  settle t.l1_lines;
  settle t.l2_lines;
  Int_tbl.reset t.hw_lines

let tracked_lines t = Int_tbl.length t.l1_lines + Int_tbl.length t.l2_lines

let longest_bucket t =
  List.fold_left
    (fun acc (s : Hashtbl.statistics) -> max acc s.max_bucket_length)
    0
    [
      Int_tbl.stats t.l1_lines;
      Int_tbl.stats t.l2_lines;
      Int_tbl.stats t.hw_lines;
      Int_tbl.stats t.demand_misses;
    ]

(* Allocation-free windowed tap: the monitor samples totals at every
   window boundary, so the accumulator is caller-owned and overwritten in
   place. O(n_sites) per call; site counts are small and dense. *)
let totals_into t ~into:acc =
  acc.issued <- 0;
  acc.cancelled <- 0;
  acc.redundant <- 0;
  acc.redundant_hw <- 0;
  acc.useful <- 0;
  acc.late <- 0;
  acc.useless <- 0;
  for i = 0 to t.n_sites - 1 do
    let c = t.sites.(i) in
    acc.issued <- acc.issued + c.issued;
    acc.cancelled <- acc.cancelled + c.cancelled;
    acc.redundant <- acc.redundant + c.redundant;
    acc.redundant_hw <- acc.redundant_hw + c.redundant_hw;
    acc.useful <- acc.useful + c.useful;
    acc.late <- acc.late + c.late;
    acc.useless <- acc.useless + c.useless
  done

let totals t =
  let acc = zero_counters () in
  totals_into t ~into:acc;
  acc

(* The conservation law of the outcome taxonomy. Promoted from the test
   suite to a callable check so the harness can assert it at end of run
   (behind [Strideprefetch.Options.check_invariants]) and report any
   violation through the diagnostics layer. Only meaningful after
   [flush]: in-flight entries are still unclassified before that. *)
let conservation_error t =
  let err = ref None in
  let check label (c : site_counters) =
    if !err = None then begin
      let classified =
        c.cancelled + c.redundant + c.redundant_hw + c.useful + c.late
        + c.useless
      in
      if c.issued <> classified then
        err :=
          Some
            (Printf.sprintf
               "%s: issued=%d but \
                cancelled+redundant+redundant_hw+useful+late+useless=%d \
                (law: issued = cancelled + redundant + redundant_hw + \
                useful + late + useless)"
               label c.issued classified)
    end
  in
  for i = 0 to t.n_sites - 1 do
    check (Printf.sprintf "site %d" i) t.sites.(i)
  done;
  check "totals" (totals t);
  !err
