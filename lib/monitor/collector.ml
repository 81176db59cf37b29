(* The live collector: samples the run's existing telemetry surfaces at
   every window boundary of the simulated cycle clock and feeds the
   change detectors.

   Wiring (the harness does this): {!create} arms
   [Vm.Interp.set_monitor]; {!hooks} must be installed with
   [set_profile] (combined with the object profiler's hooks via
   [combine_profile_hooks] when both observers are on) so the stall-bin
   and allocation streams reach the per-window accumulators; telemetry
   must be enabled so attribution outcomes exist.

   Everything here observes and never participates: window closes read
   counters through the allocation-free [delta_into]/[totals_into]
   samplers and write only into the collector's own state, so a
   monitored run is bit-identical in every simulated observable to an
   unmonitored one. *)

module A = Memsim.Attribution

(* Default window size for the CLI / bench surfaces: long enough that
   the seed workloads close a few dozen windows, short enough that a
   phase shift lands within the gated four-window detection latency. *)
let default_window_cycles = 262144

type t = {
  cfg : Detect.config;
  window_cycles : int;
  interp : Vm.Interp.t;
  registry : Telemetry.Attrib.t option;
  sink : Telemetry.Sink.t option;
  (* cumulative snapshots at the last closed boundary *)
  prev_stats : Memsim.Stats.t;
  prev_attr : A.site_counters;
  cur_attr : A.site_counters;  (* scratch for totals_into *)
  prev_backedges : int array;
  prev_invocations : int array;
  prev_compiled : bool array;
  shares : float array;  (* scratch: per-method backedge shares *)
  (* intra-window accumulators, fed by the profile hooks *)
  mutable w_tlb : int;
  mutable w_l1 : int;
  mutable w_l2 : int;
  mutable w_mem : int;
  mutable w_retire : int;
  mutable w_alloc_cost : int;
  mutable w_pf : int;
  mutable w_guard : int;
  mutable w_gc_cycles : int;
  mutable w_gcs : int;
  mutable w_allocs : int;
  mutable w_alloc_bytes : int;
  mutable w_fresh : int;
  seen_sites : (int, unit) Hashtbl.t;
      (* (method, pc) alloc sites seen in any PRIOR window *)
  window_sites : (int, unit) Hashtbl.t;
      (* sites first seen in the current window: an allocation is
         "fresh" while its site is here rather than in [seen_sites], so
         a loop that starts allocating mid-run counts every allocation
         of its first window, not just the first one *)
  (* detectors *)
  ph : Detect.ph;
  stall_det : Detect.drift;
  loop_det : Detect.mix;
  churn_det : Detect.cusum;
  (* results *)
  mutable windows_rev : Window.t list;
  mutable n_windows : int;
  mutable first_degraded : int option;
  mutable degraded_rev : (int * Detect.reason) list;
  mutable site_snapshot : A.site_counters array option;
      (* per-site counters captured when the first Degraded fired *)
  mutable finalized : bool;
}

let copy_sc (src : A.site_counters) (dst : A.site_counters) =
  dst.A.issued <- src.A.issued;
  dst.A.cancelled <- src.A.cancelled;
  dst.A.redundant <- src.A.redundant;
  dst.A.redundant_hw <- src.A.redundant_hw;
  dst.A.useful <- src.A.useful;
  dst.A.late <- src.A.late;
  dst.A.useless <- src.A.useless

let sub_sc (a : A.site_counters) (b : A.site_counters) =
  {
    A.issued = a.A.issued - b.A.issued;
    cancelled = a.A.cancelled - b.A.cancelled;
    redundant = a.A.redundant - b.A.redundant;
    redundant_hw = a.A.redundant_hw - b.A.redundant_hw;
    useful = a.A.useful - b.A.useful;
    late = a.A.late - b.A.late;
    useless = a.A.useless - b.A.useless;
  }

(* ---- window close ---- *)

let assess t ~d_issued ~d_useful ~d_late ~d_useless ~total_be ~mbe =
  let cfg = t.cfg in
  let alarm = ref None in
  let drifting = ref false in
  let note_alarm r = if !alarm = None then alarm := Some r in
  (* useful rate: Page–Hinkley, decrease direction *)
  let classified = d_useful + d_late + d_useless in
  if classified >= cfg.Detect.min_classified then begin
    let rate = float_of_int d_useful /. float_of_int classified in
    let baseline = Detect.ph_mean t.ph in
    let acc = Detect.ph_update cfg t.ph rate in
    if acc > cfg.Detect.ph_lambda then begin
      note_alarm (Detect.Useful_rate_drop { rate; baseline });
      Detect.ph_reset t.ph
    end
    else if acc > 0.5 *. cfg.Detect.ph_lambda then drifting := true
  end;
  (* stall-bin mix: one-sided drift on the memory-bound share (tlb+mem)
     of stall cycles, sampled only while prefetching is active — it
     flags misses going outward under the prefetcher's feet, not benign
     phases that merely reshuffle l1/l2 or run without prefetch
     activity *)
  let stall = t.w_tlb + t.w_l1 + t.w_l2 + t.w_mem in
  if stall >= cfg.Detect.min_stall && d_issued >= cfg.Detect.min_issued
  then begin
    let share = float_of_int (t.w_tlb + t.w_mem) /. float_of_int stall in
    let baseline = Detect.drift_mean t.stall_det in
    let acc =
      Detect.drift_update ~slack:cfg.Detect.stall_slack
        ~cap:cfg.Detect.mix_cap ~warmup:cfg.Detect.warmup t.stall_det share
    in
    if acc > cfg.Detect.stall_h then begin
      note_alarm (Detect.Stall_mix_shift { share; baseline });
      Detect.drift_reset t.stall_det
    end
    else if acc > 0.5 *. cfg.Detect.stall_h then drifting := true
  end;
  (* per-loop backedge mix: never Degraded on its own — programs hand
     over between loops for benign reasons — a sustained shift surfaces
     as Drifting and re-baselines to the new mix *)
  if total_be >= cfg.Detect.min_backedges then begin
    let fb = float_of_int total_be in
    Array.iteri
      (fun i be -> t.shares.(i) <- float_of_int be /. fb)
      mbe;
    let acc =
      Detect.mix_update ~slack:cfg.Detect.loop_slack ~cap:cfg.Detect.mix_cap
        ~warmup:cfg.Detect.warmup t.loop_det t.shares
    in
    if acc > cfg.Detect.loop_h then begin
      drifting := true;
      Detect.mix_reset t.loop_det
    end
    else if acc > 0.5 *. cfg.Detect.loop_h then drifting := true
  end;
  (* alloc-site churn: unlike the rate and mix streams this needs no
     learned baseline — the normal fresh fraction IS zero (startup,
     where it isn't, is absorbed by the code-novelty resets) — so it
     scores from its first qualifying window *)
  if t.w_allocs >= cfg.Detect.min_allocs then begin
    let fraction = float_of_int t.w_fresh /. float_of_int t.w_allocs in
    let acc =
      Detect.cusum_update ~slack:cfg.Detect.churn_slack t.churn_det fraction
    in
    if acc > cfg.Detect.churn_h then begin
      note_alarm (Detect.Alloc_site_churn { fraction });
      Detect.cusum_reset t.churn_det
    end
    else if acc > 0.5 *. cfg.Detect.churn_h then drifting := true
  end;
  match !alarm with
  | Some r -> Detect.Degraded r
  | None -> if !drifting then Detect.Drifting else Detect.Healthy

let reset_detectors t =
  Detect.ph_reset t.ph;
  Detect.drift_reset t.stall_det;
  Detect.mix_reset t.loop_det;
  Detect.cusum_reset t.churn_det

let close_window t ~boundary ~partial =
  let stats = Vm.Interp.stats t.interp in
  let ds = Memsim.Stats.create () in
  Memsim.Stats.delta_into stats t.prev_stats ~into:ds;
  Memsim.Stats.copy_into stats ~into:t.prev_stats;
  let attr = Vm.Interp.attribution t.interp in
  (match attr with
  | Some a -> A.totals_into a ~into:t.cur_attr
  | None -> ());
  let d_issued = t.cur_attr.A.issued - t.prev_attr.A.issued in
  let d_cancelled = t.cur_attr.A.cancelled - t.prev_attr.A.cancelled in
  let d_redundant = t.cur_attr.A.redundant - t.prev_attr.A.redundant in
  let d_redundant_hw = t.cur_attr.A.redundant_hw - t.prev_attr.A.redundant_hw in
  let d_useful = t.cur_attr.A.useful - t.prev_attr.A.useful in
  let d_late = t.cur_attr.A.late - t.prev_attr.A.late in
  let d_useless = t.cur_attr.A.useless - t.prev_attr.A.useless in
  copy_sc t.cur_attr t.prev_attr;
  let methods = (Vm.Interp.program t.interp).Vm.Classfile.methods in
  let n_m = Array.length methods in
  let mbe = Array.make n_m 0 in
  let total_be = ref 0 and total_inv = ref 0 in
  (* Phase-awareness: the baselines are only meaningful while the code
     executing is the code they were learned against. Two kinds of code
     novelty invalidate them — the JIT swapping a compiled body in, and
     a method running for the very first time (the startup cascade:
     init loops hand over to hot loops that have never executed). Both
     are deterministic simulated-program state, so the re-baseline is
     bit-reproducible. *)
  let fresh_code = ref false in
  for i = 0 to n_m - 1 do
    let m = methods.(i) in
    let be = m.Vm.Classfile.backedges - t.prev_backedges.(i) in
    let inv = m.Vm.Classfile.invocations - t.prev_invocations.(i) in
    if
      (t.prev_invocations.(i) = 0 && m.Vm.Classfile.invocations > 0)
      || m.Vm.Classfile.compiled <> t.prev_compiled.(i)
    then fresh_code := true;
    t.prev_backedges.(i) <- m.Vm.Classfile.backedges;
    t.prev_invocations.(i) <- m.Vm.Classfile.invocations;
    t.prev_compiled.(i) <- m.Vm.Classfile.compiled;
    mbe.(i) <- be;
    total_be := !total_be + be;
    total_inv := !total_inv + inv
  done;
  let verdict =
    if partial then Detect.Healthy
    else if !fresh_code then begin
      (* code novelty this window: discard the baselines and skip
         scoring the transition window itself *)
      reset_detectors t;
      Detect.Healthy
    end
    else
      assess t ~d_issued ~d_useful ~d_late ~d_useless ~total_be:!total_be ~mbe
  in
  let index = t.n_windows in
  (match verdict with
  | Detect.Degraded reason ->
      t.degraded_rev <- (index, reason) :: t.degraded_rev;
      if t.first_degraded = None then begin
        t.first_degraded <- Some index;
        match attr with
        | Some a ->
            t.site_snapshot <-
              Some (Array.init (A.n_sites a) (fun i -> A.site_counters a i))
        | None -> ()
      end
  | _ -> ());
  let w =
    {
      Window.index;
      boundary;
      cycles_end = stats.Memsim.Stats.cycles;
      partial;
      stats = ds;
      issued = d_issued;
      cancelled = d_cancelled;
      redundant = d_redundant;
      redundant_hw = d_redundant_hw;
      useful = d_useful;
      late = d_late;
      useless = d_useless;
      tlb = t.w_tlb;
      l1 = t.w_l1;
      l2 = t.w_l2;
      mem = t.w_mem;
      retire = t.w_retire;
      pf_overhead = t.w_pf;
      guard_overhead = t.w_guard;
      alloc_cycles = t.w_alloc_cost;
      gc_cycles = t.w_gc_cycles;
      gcs = t.w_gcs;
      allocs = t.w_allocs;
      alloc_bytes = t.w_alloc_bytes;
      fresh_site_allocs = t.w_fresh;
      backedges = !total_be;
      invocations = !total_inv;
      method_backedges = mbe;
      out_bytes = Vm.Interp.output_bytes t.interp;
      verdict;
    }
  in
  t.windows_rev <- w :: t.windows_rev;
  t.n_windows <- index + 1;
  (* the window's new sites are no longer fresh *)
  Hashtbl.iter (fun k () -> Hashtbl.replace t.seen_sites k ()) t.window_sites;
  Hashtbl.reset t.window_sites;
  t.w_tlb <- 0;
  t.w_l1 <- 0;
  t.w_l2 <- 0;
  t.w_mem <- 0;
  t.w_retire <- 0;
  t.w_alloc_cost <- 0;
  t.w_pf <- 0;
  t.w_guard <- 0;
  t.w_gc_cycles <- 0;
  t.w_gcs <- 0;
  t.w_allocs <- 0;
  t.w_alloc_bytes <- 0;
  t.w_fresh <- 0;
  match t.sink with
  | None -> ()
  | Some s ->
      let open Telemetry.Json in
      Telemetry.Sink.counter s ~cat:"monitor" "monitor.window"
        [
          ("useful_rate", Float (Window.useful_rate w));
          ("issued", Int w.Window.issued);
          ("useful", Int w.Window.useful);
          ("useless", Int w.Window.useless);
          ("mem_stall", Int w.Window.mem);
          ("l2_stall", Int w.Window.l2);
          ("verdict", Int (Detect.verdict_code verdict));
        ]

let create ?(detect = Detect.default) ?registry ?sink ~window_cycles interp =
  let n_m = Array.length (Vm.Interp.program interp).Vm.Classfile.methods in
  let t =
    {
      cfg = detect;
      window_cycles;
      interp;
      registry;
      sink;
      prev_stats = Memsim.Stats.create ();
      prev_attr = A.zero_counters ();
      cur_attr = A.zero_counters ();
      prev_backedges = Array.make n_m 0;
      prev_invocations = Array.make n_m 0;
      prev_compiled = Array.make n_m false;
      shares = Array.make n_m 0.0;
      w_tlb = 0;
      w_l1 = 0;
      w_l2 = 0;
      w_mem = 0;
      w_retire = 0;
      w_alloc_cost = 0;
      w_pf = 0;
      w_guard = 0;
      w_gc_cycles = 0;
      w_gcs = 0;
      w_allocs = 0;
      w_alloc_bytes = 0;
      w_fresh = 0;
      seen_sites = Hashtbl.create 64;
      window_sites = Hashtbl.create 16;
      ph = Detect.ph_create ();
      stall_det = Detect.drift_create ();
      loop_det = Detect.mix_create n_m;
      churn_det = Detect.cusum_create ();
      windows_rev = [];
      n_windows = 0;
      first_degraded = None;
      degraded_rev = [];
      site_snapshot = None;
      finalized = false;
    }
  in
  (* seed the snapshots with whatever already happened before arming *)
  Memsim.Stats.copy_into (Vm.Interp.stats interp) ~into:t.prev_stats;
  (match Vm.Interp.attribution interp with
  | Some a ->
      A.totals_into a ~into:t.prev_attr;
      copy_sc t.prev_attr t.cur_attr
  | None -> ());
  let methods = (Vm.Interp.program interp).Vm.Classfile.methods in
  Array.iteri
    (fun i m ->
      t.prev_backedges.(i) <- m.Vm.Classfile.backedges;
      t.prev_invocations.(i) <- m.Vm.Classfile.invocations;
      t.prev_compiled.(i) <- m.Vm.Classfile.compiled)
    methods;
  Vm.Interp.set_monitor interp ~window_cycles ~on_window:(fun ~boundary ->
      close_window t ~boundary ~partial:false);
  t

let hooks t : Vm.Interp.profile_hooks =
  {
    Vm.Interp.on_cycles =
      (fun ~method_id:_ ~pc:_ ~bin ~cycles ->
        match bin with
        | Vm.Interp.Prof_retire -> t.w_retire <- t.w_retire + cycles
        | Vm.Interp.Prof_alloc -> t.w_alloc_cost <- t.w_alloc_cost + cycles
        | Vm.Interp.Prof_pf_overhead -> t.w_pf <- t.w_pf + cycles
        | Vm.Interp.Prof_guard_overhead -> t.w_guard <- t.w_guard + cycles);
    on_stall =
      (fun ~method_id:_ ~pc:_ ~obj:_ ~tlb ~l1 ~l2 ~mem ->
        t.w_tlb <- t.w_tlb + tlb;
        t.w_l1 <- t.w_l1 + l1;
        t.w_l2 <- t.w_l2 + l2;
        t.w_mem <- t.w_mem + mem);
    on_alloc =
      (fun ~obj:_ ~method_id ~pc ~bytes ->
        t.w_allocs <- t.w_allocs + 1;
        t.w_alloc_bytes <- t.w_alloc_bytes + bytes;
        let key = (method_id lsl 24) lor (pc land 0xffffff) in
        if not (Hashtbl.mem t.seen_sites key) then begin
          t.w_fresh <- t.w_fresh + 1;
          if not (Hashtbl.mem t.window_sites key) then
            Hashtbl.add t.window_sites key ()
        end);
    on_gc =
      (fun ~cycles ->
        t.w_gcs <- t.w_gcs + 1;
        t.w_gc_cycles <- t.w_gc_cycles + cycles);
  }

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    (* close the end-of-run tail window so the per-window stats deltas
       sum exactly to the run totals (fuzz-checked); detectors do not
       score it *)
    close_window t ~boundary:(Vm.Interp.stats t.interp).Memsim.Stats.cycles
      ~partial:true
  end

let first_degraded t = t.first_degraded
let windows t = Array.of_list (List.rev t.windows_rev)

let site_label t i =
  match t.registry with
  | None -> Printf.sprintf "site %d" i
  | Some reg -> (
      match Telemetry.Attrib.meta_of_id reg i with
      | Some m ->
          Printf.sprintf "%s loop%d %s" m.Telemetry.Attrib.method_name
            m.Telemetry.Attrib.loop_id
            (Telemetry.Attrib.kind_name m.Telemetry.Attrib.kind)
      | None -> Printf.sprintf "site %d" i)

let report t =
  if not t.finalized then finalize t;
  let methods = (Vm.Interp.program t.interp).Vm.Classfile.methods in
  let method_names =
    Array.map (fun m -> m.Vm.Classfile.method_name) methods
  in
  let sites =
    match Vm.Interp.attribution t.interp with
    | None -> []
    | Some a ->
        List.init (A.n_sites a) (fun i ->
            let total = A.site_counters a i in
            let post =
              match t.site_snapshot with
              | Some snap when i < Array.length snap ->
                  Some (sub_sc total snap.(i))
              | _ -> None
            in
            {
              Report.site_label = site_label t i;
              site_total = total;
              site_post = post;
            })
  in
  let dropped =
    match t.sink with Some s -> Telemetry.Sink.dropped s | None -> 0
  in
  Report.make ~window_cycles:t.window_cycles ~windows:(windows t)
    ~first_degraded:t.first_degraded
    ~degraded:(List.rev t.degraded_rev)
    ~method_names ~sites
    ~total_cycles:(Vm.Interp.stats t.interp).Memsim.Stats.cycles
    ~dropped_events:dropped
