(* The untraced run: every end-to-end metric comes from here. The
   workload's units run in whole passes until the time budget is spent,
   at least one pass; then set-up is timed on its own, several times.
   Every time is scaled by the host-speed reference (reference.ml). *)

open Suite

type sample = {
  unit_span : Reference.span;
  sim_span : Reference.span;
      (** the simulated runs whose instructions [retired] counts (the
          fuzz oracle's own runs are not among them) *)
  retired : int;
  failure : string option;
}

type outcome = {
  metrics : Report.metric list;
  attempted : int;
  failed : int;  (** attempted units with at least one problem *)
  problems : string list;  (** empty when every check passed *)
}

let failure_of_exn what e = Some (Printf.sprintf "%s: %s" what (Printexc.to_string e))

let check_cell expected cell (got : Expected.entry) =
  match List.assoc_opt (key cell) expected with
  | None -> Some ("no expected.json entry for " ^ key cell)
  | Some e ->
      Option.map
        (fun d -> key cell ^ ": " ^ d)
        (Expected.mismatch ~expected:e got)

let check_plain expected cell (o : Wiring.outcome) =
  if o.faulting_prefetches > 0 then
    Some (Printf.sprintf "%s: %d faulting prefetches" (key cell) o.faulting_prefetches)
  else check_cell expected cell (Expected.of_outcome o)

let run_plain cell =
  Wiring.run
    (Wiring.headline cell.machine)
    ~heap_limit_bytes:cell.workload.Workloads.Workload.heap_limit_bytes
    cell.workload.Workloads.Workload.source

let run_observed cell =
  Workloads.Harness.run ~profile:true
    ~monitor:Monitor.Collector.default_window_cycles
    ~mode:Strideprefetch.Options.Inter_intra ~machine:cell.machine cell.workload

let check_observed expected cell (r : Workloads.Harness.run_result) =
  check_cell expected cell
    {
      Expected.cycles = r.cycles;
      retired = r.stats.Memsim.Stats.retired_instructions;
      gc_count = r.gc_count;
      output_md5 = Digest.to_hex (Digest.string r.output);
    }

(* What a unit sets up before its first simulated instruction. For an
   observed unit [Harness.run] sets up internally, so the same calls are
   timed on the same source instead. *)
let setup_unit = function
  | Plain cell | Observed cell ->
      ignore
        (Wiring.setup
           (Wiring.headline cell.machine)
           ~heap_limit_bytes:cell.workload.Workloads.Workload.heap_limit_bytes
           cell.workload.Workloads.Workload.source)
  | Fuzz seed ->
      let g = generate seed in
      ignore
        (Wiring.setup
           (Wiring.headline Memsim.Config.pentium4)
           ~heap_limit_bytes:g.Fuzz.Gen.heap_limit_bytes (Fuzz.Gen.source g))

(* One unit's work: the span of its own simulated runs (when that is not
   the whole unit), the instructions they retired, and its problem. *)
let run_unit expected u =
  let failed what e = (None, 0, failure_of_exn what e) in
  match u with
  | Plain cell -> (
      match run_plain cell with
      | exception e -> failed (key cell) e
      | o -> (None, o.retired, check_plain expected cell o))
  | Observed cell -> (
      match run_observed cell with
      | exception e -> failed (key cell ^ " observed") e
      | r ->
          ( None,
            r.stats.Memsim.Stats.retired_instructions,
            check_observed expected cell r ))
  | Fuzz seed -> (
      let g = generate seed in
      let source = Fuzz.Gen.source g and heap_limit_bytes = g.Fuzz.Gen.heap_limit_bytes in
      let what = Printf.sprintf "fuzz seed %d" seed in
      match
        Reference.span (fun () ->
            Wiring.run (Wiring.headline Memsim.Config.pentium4) ~heap_limit_bytes source)
      with
      | exception e -> failed what e
      | o, sim_span ->
          ( Some sim_span,
            o.retired,
            if o.faulting_prefetches > 0 then
              Some (Printf.sprintf "%s: %d faulting prefetches" what o.faulting_prefetches)
            else
              match Fuzz.Oracle.check ~source ~heap_limit_bytes () with
              | exception e -> failure_of_exn what e
              | Fuzz.Oracle.Pass _ -> None
              | Fuzz.Oracle.Fail f -> Some (what ^ ": " ^ Fuzz.Oracle.describe f) ))

(* A unit ends by finishing the OCaml major cycle its garbage started,
   timed as part of it, so the next unit neither pays for that garbage
   nor finds the collector mid-cycle. *)
let exec_unit expected u =
  let (sim_span, retired, failure), unit_span =
    Reference.span (fun () ->
        let r = run_unit expected u in
        Gc.major ();
        r)
  in
  { unit_span; sim_span = Option.value sim_span ~default:unit_span; retired; failure }

(* Set-up is milliseconds on most workloads, so it is repeated until
   [budget] seconds are spent, at least 5 and at most 1000 times. *)
let setup_spans ~budget units =
  let rec go n acc spent =
    if n >= 1000 || (n >= 5 && spent >= budget) then acc
    else
      let (), sp = Reference.span (fun () -> List.iter setup_unit units) in
      go (n + 1) (sp :: acc) (spent +. sp.t1 -. sp.t0)
  in
  go 0 [] 0.0

(* Set-up is timed after the passes, so its garbage (its repetitions
   vary with host speed) cannot slow them. *)
let run ~expected ~seconds units =
  let passes, setup =
    Reference.with_sampling (fun () ->
        let start = Report.now () in
        let rec passes acc =
          let a0 = Report.allocated_words () and t0 = Report.now () in
          let samples = List.map (exec_unit expected) units in
          let wall = Report.now () -. t0 in
          let acc = (Report.allocated_words () -. a0, samples) :: acc in
          if Report.now () -. start +. wall <= seconds then passes acc else acc
        in
        let passes = passes [] in
        (passes, setup_spans ~budget:(seconds /. 25.0) units))
  in
  let scaled sp = Reference.scaled sp in
  let all = List.concat_map snd passes in
  let wall_s =
    Report.median
      (List.map (fun (_, s) -> Report.sum (List.map (fun x -> scaled x.unit_span) s)) passes)
  in
  (* Per unit, the median over passes; percentiles are taken over units,
     so the sample set is the same however many passes fit. *)
  let unit_ms =
    List.mapi
      (fun i _ ->
        Report.median
          (List.map (fun (_, s) -> scaled (List.nth s i).unit_span *. 1e3) passes))
      units
  in
  let retired = List.fold_left (fun a s -> a + s.retired) 0 all in
  let sim_seconds = Report.sum (List.map (fun s -> scaled s.sim_span) all) in
  Printf.eprintf "%d pass(es); reference kernel median %.2f ms (scaled to %.0f ms)\n%!"
    (List.length passes)
    (Reference.median_kernel () *. 1e3)
    (Reference.seconds *. 1e3);
  {
    metrics =
      Report.
        [
          metric "wall_s" wall_s "s";
          metric "setup_s" (median (List.map scaled setup)) "s";
          metric "sim_mips" (ratio (float_of_int retired /. 1e6) sim_seconds) "Minstr/s";
          metric "programs_per_s" (float_of_int (List.length units) /. wall_s) "1/s";
          metric "program_p50_ms" (median unit_ms) "ms";
          metric "program_p97_ms" (percentile 0.975 unit_ms) "ms";
          metric "host_alloc_mw" (median (List.map fst passes) /. 1e6) "Mword";
        ];
    attempted = List.length all;
    failed = List.length (List.filter (fun s -> s.failure <> None) all);
    problems = List.filter_map (fun s -> s.failure) all;
  }
