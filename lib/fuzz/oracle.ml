(* Differential oracle: one generated program, a matrix of configurations,
   and the claim that the prefetching pass is invisible except for speed.

   The baseline cell (mode Off, standard passes on, pentium4) fixes the
   expected observable behaviour; every other cell must reproduce its
   stdout and its statics-reachable heap graph exactly. On top of the
   differential check, each cell is audited on its own: no faulting
   prefetch addresses, object inspection leaves the real heap bit-
   identical, and the memory-system counters satisfy the structural
   invariants that hold for any run.

   Past the matrix, the cross-checks are data: a table of rows, each
   re-running the headline configuration with one axis varied and
   holding the variant to one equivalence relation with the reference
   run. Runs are shared by configuration, so a variant equal to the
   reference (or to an earlier variant) is never run twice. *)

module O = Strideprefetch.Options
module H = Workloads.Harness
module R = Workloads.Run_config

type cell = {
  mode : O.mode;
  standard_passes : bool;
  machine : Memsim.Config.machine;
}

let cell_name c =
  Printf.sprintf "%s/%s/%s" (O.mode_name c.mode)
    (if c.standard_passes then "pipeline" else "bare")
    c.machine.Memsim.Config.name

let default_cells =
  (* Baseline first: [check] treats the head of the list as the reference
     cell. 3 modes x {pipeline, bare} x 2 machines = 12 cells. *)
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun standard_passes ->
          List.map
            (fun mode -> { mode; standard_passes; machine })
            [ O.Off; O.Inter; O.Inter_intra ])
        [ true; false ])
    [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ]

type failure =
  | Compile_error of string
  | Crash of { cell : cell; message : string }
  | Output_divergence of {
      cell : cell;
      baseline_output : string;
      output : string;
    }
  | Heap_divergence of { cell : cell; diff : string }
  | Inspection_side_effect of { cell : cell; meth : string; diff : string }
  | Stats_violation of { cell : cell; message : string }
  | Faulting_prefetch of { cell : cell; count : int }
  | Lint_violation of { cell : cell; meth : string; message : string }
  | Telemetry_divergence of { cell : cell; message : string }
  | Engine_divergence of { cell : cell; message : string }
  | Hw_divergence of { cell : cell; hw : string; message : string }
  | Prediction_divergence of { cell : cell; tier : string; message : string }
  | Monitor_divergence of { cell : cell; message : string }
  | Diff_divergence of { cell : cell; message : string }

type verdict = Pass of { cells_run : int } | Fail of failure

let describe = function
  | Compile_error msg -> Printf.sprintf "front end rejected program: %s" msg
  | Crash { cell; message } ->
      Printf.sprintf "[%s] runtime crash: %s" (cell_name cell) message
  | Output_divergence { cell; baseline_output; output } ->
      Printf.sprintf
        "[%s] output differs from baseline\n--- baseline\n%s--- got\n%s"
        (cell_name cell) baseline_output output
  | Heap_divergence { cell; diff } ->
      Printf.sprintf "[%s] reachable heap differs from baseline: %s"
        (cell_name cell) diff
  | Inspection_side_effect { cell; meth; diff } ->
      Printf.sprintf
        "[%s] heap/statics changed across JIT compilation of %s: %s"
        (cell_name cell) meth diff
  | Stats_violation { cell; message } ->
      Printf.sprintf "[%s] stats invariant violated: %s" (cell_name cell)
        message
  | Faulting_prefetch { cell; count } ->
      Printf.sprintf "[%s] %d prefetch op(s) computed a negative address"
        (cell_name cell) count
  | Lint_violation { cell; meth; message } ->
      Printf.sprintf "[%s] %s is not lint-clean: %s" (cell_name cell) meth
        message
  | Telemetry_divergence { cell; message } ->
      Printf.sprintf
        "[%s] telemetry perturbed the simulation (must be observe-only): %s"
        (cell_name cell) message
  | Engine_divergence { cell; message } ->
      Printf.sprintf
        "[%s] switch and closure engines diverged (bit-identity is their \
         contract): %s"
        (cell_name cell) message
  | Hw_divergence { cell; hw; message } ->
      Printf.sprintf
        "[%s] hw=%s perturbed the architectural state (the hardware \
         prefetcher may only move cycles and memory counters): %s"
        (cell_name cell) hw message
  | Prediction_divergence { cell; tier; message } ->
      Printf.sprintf
        "[%s] prediction tier %s diverged from dynamic inspection \
         (static/hybrid plans must stay observationally equivalent): %s"
        (cell_name cell) tier message
  | Monitor_divergence { cell; message } ->
      Printf.sprintf
        "[%s] the live monitor perturbed the simulation (must be \
         observe-only) or its window books don't balance: %s"
        (cell_name cell) message
  | Diff_divergence { cell; message } ->
      Printf.sprintf
        "[%s] the differential-diagnosis join broke its identity law (a \
         run diffed against itself must blame nothing, conservation \
         exact): %s"
        (cell_name cell) message

let class_name = function
  | Compile_error _ -> "compile"
  | Crash _ -> "crash"
  | Output_divergence _ -> "output"
  | Heap_divergence _ -> "heap"
  | Inspection_side_effect _ -> "inspection"
  | Stats_violation _ -> "stats"
  | Faulting_prefetch _ -> "faulting-prefetch"
  | Lint_violation _ -> "lint"
  | Telemetry_divergence _ -> "telemetry"
  | Engine_divergence _ -> "engine"
  | Hw_divergence _ -> "hw"
  | Prediction_divergence _ -> "prediction"
  | Monitor_divergence _ -> "monitor"
  | Diff_divergence _ -> "diff"

(* Structural invariants any run must satisfy, whatever the program. *)
let stats_invariants (cell : cell) (r : H.run_result) =
  let s = r.stats in
  let fail fmt =
    Printf.ksprintf (fun message -> Some (Stats_violation { cell; message })) fmt
  in
  let open Memsim.Stats in
  if s.l1_load_misses > s.loads then
    fail "l1_load_misses (%d) > loads (%d)" s.l1_load_misses s.loads
  else if s.l1_store_misses > s.stores then
    fail "l1_store_misses (%d) > stores (%d)" s.l1_store_misses s.stores
  else if s.l2_load_misses > s.l1_load_misses then
    fail "l2_load_misses (%d) > l1_load_misses (%d)" s.l2_load_misses
      s.l1_load_misses
  else if s.l2_store_misses > s.l1_store_misses then
    fail "l2_store_misses (%d) > l1_store_misses (%d)" s.l2_store_misses
      s.l1_store_misses
  else if s.dtlb_load_misses > s.loads + s.guarded_loads + s.sw_prefetches
  then
    fail "dtlb_load_misses (%d) > loads+guarded+prefetches (%d)"
      s.dtlb_load_misses
      (s.loads + s.guarded_loads + s.sw_prefetches)
  else if s.retired_instructions <= 0 then
    fail "no instructions retired (%d)" s.retired_instructions
  else if s.stall_cycles > s.cycles then
    fail "stall_cycles (%d) > cycles (%d)" s.stall_cycles s.cycles
  else if s.sw_prefetches_cancelled > s.sw_prefetches then
    fail "cancelled prefetches (%d) > issued prefetches (%d)"
      s.sw_prefetches_cancelled s.sw_prefetches
  else if s.sw_prefetch_useless > s.sw_prefetches + s.guarded_loads then
    (* the hierarchy counts an already-cached line as useless for both
       hardware-form prefetches and guarded loads *)
    fail "useless prefetches (%d) > issued prefetches+guarded loads (%d)"
      s.sw_prefetch_useless
      (s.sw_prefetches + s.guarded_loads)
  else if s.sw_prefetch_useful + s.sw_prefetch_late > s.sw_prefetches + s.guarded_loads
  then
    (* every useful/late classification is pinned to one issued software
       prefetch or guarded load *)
    fail "useful+late attributions (%d+%d) > issued prefetches+guarded (%d)"
      s.sw_prefetch_useful s.sw_prefetch_late
      (s.sw_prefetches + s.guarded_loads)
  else if s.in_flight_demand_hits + s.sw_prefetch_late > s.in_flight_hits then
    (* the attribution split of in-flight demand hits cannot exceed the
       aggregate counter it refines *)
    fail "in_flight_demand_hits+late (%d+%d) > in_flight_hits (%d)"
      s.in_flight_demand_hits s.sw_prefetch_late s.in_flight_hits
  else if
    cell.mode = O.Off
    && (s.sw_prefetches <> 0 || s.guarded_loads <> 0
       || s.sw_prefetches_cancelled <> 0)
  then
    fail "mode Off issued prefetch work (sw=%d guarded=%d cancelled=%d)"
      s.sw_prefetches s.guarded_loads s.sw_prefetches_cancelled
  else if r.spec_guard_trips > 0 && cell.mode = O.Off then
    fail "mode Off tripped %d spec_load guards" r.spec_guard_trips
  else None

(* The lint cell: after a run, every JIT-transformed method body must be
   clean under the whole analysis stack — type-state verifier, prefetch-
   safety checkers, and the plan-aware lints cross-checked against the
   loop reports the pass produced. Warnings count as violations: the
   codegen of a correct pass never emits a redundant prefetch or a dead
   spec-load register. *)
let lint_failure (cell : cell) (r : H.run_result) =
  let opts = O.default in
  let require_guarded = O.use_guarded cell.machine in
  Array.find_map
    (fun (m : Vm.Classfile.method_info) ->
      if not m.compiled then None
      else
        match
          Analysis.Check.check_method ~program:r.program ~reports:r.reports
            ~scheduling_distance:opts.O.scheduling_distance ~require_guarded
            ~inter_stride_threshold:
              (O.resolved_inter_stride_threshold opts cell.machine)
            m
        with
        | [] -> None
        | d :: _ ->
            let message = Analysis.Diag.render ~meth:m d in
            Some (Lint_violation { cell; meth = m.method_name; message }))
    r.program.methods

(* ---- Runs, keyed by configuration ---------------------------------- *)

(* The headline request, at [Run_config.default]: every run is derived
   from it by record update, and executes a fresh copy of its program, so
   one compile serves them all. *)
let headline ~faults ?max_steps ~source ~heap_limit_bytes program =
  let workload =
    Workloads.Workload.of_source ~name:"fuzz"
      ~description:"generated program (fuzzer)" ~heap_limit_bytes source
  in
  {
    (H.request ~program workload) with
    observers = { H.no_observers with capture_observables = true };
    faults;
    max_steps;
  }

let on_cell ({ mode; standard_passes = passes; machine } : cell)
    (h : H.request) =
  { h with config = { R.default with mode; passes; machine } }

let cell_of ({ config = c; _ } : H.request) =
  { mode = c.mode; standard_passes = c.passes; machine = R.machine c }

(* Two requests make the same run when every axis (the hardware
   prefetcher resolved) and the observers the rows switch on agree. A
   request holds a program and a closure, so it is never compared. *)
let run_key ({ config = c; observers = o; _ } : H.request) =
  ({ c with hw = Some (R.machine c).hw_prefetch }, o.profile, o.monitor <> None)

(* Small enough that even tiny fuzzed programs close several windows. *)
let monitor_window = 4096

(* ---- Equivalence relations and laws -------------------------------- *)

(* Every counter a run reports, VM-side books first. *)
let books (r : H.run_result) =
  ("cycles", r.cycles)
  :: ("interpreted_cycles", r.interpreted_cycles)
  :: ("compiled_cycles", r.compiled_cycles)
  :: ("gc_count", r.gc_count)
  :: ("methods_compiled", r.methods_compiled)
  :: ("faulting_prefetches", r.faulting_prefetches)
  :: ("spec_guard_trips", r.spec_guard_trips)
  :: Memsim.Stats.core_alist r.stats

let same_heap (a : H.run_result) (b : H.run_result) =
  match (a.observables, b.observables) with
  | Some a, Some b ->
      Option.map
        (( ^ ) "reachable heap differs: ")
        (Workloads.Observables.diff a b)
  | _ -> Some "a run captured no observables"

(* What the program computed: output and the statics-reachable heap. *)
let architectural (a : H.run_result) (b : H.run_result) =
  if a.output <> b.output then Some "program output differs"
  else same_heap a b

(* Everything: output, the reachable heap, every counter. *)
let bit_identical (a : H.run_result) (b : H.run_result) =
  match architectural a b with
  | Some _ as d -> d
  | None ->
      List.find_map
        (fun ((k, x), (_, y)) ->
          if x = y then None
          else
            Some (Printf.sprintf "%s differs: reference=%d variant=%d" k x y))
        (List.combine (books a) (books b))

let no_law (_ : H.run_result) = None

(* The attributed run's effectiveness books balance, and the profiler's
   cycle bins sum exactly to the run's cycle count. *)
let observer_books (r : H.run_result) =
  match (r.effectiveness, r.profile) with
  | None, _ -> Some "telemetry run produced no effectiveness report"
  | _, None -> Some "profiled run produced no profile report"
  | Some eff, Some rep ->
      let t = eff.Workloads.Effectiveness.totals in
      let classified =
        t.Memsim.Attribution.cancelled + t.redundant + t.redundant_hw
        + t.useful + t.late + t.useless
      in
      if t.issued <> classified then
        Some
          (Printf.sprintf
             "attribution books don't balance: issued=%d but \
              cancelled+redundant+redundant_hw+useful+late+useless=%d"
             t.issued classified)
      else
        Option.map
          (( ^ ) "profiler conservation law violated: ")
          (Profile.Report.conservation_error rep)

(* The diff engine's identity law: the attributed run diffed against
   itself blames nothing, and the blame conservation check is exact. *)
let self_diff ~faults ~config (r : H.run_result) =
  match Diff.Rundata.of_run ~config r with
  | Error msg -> Some ("snapshot of a profiled run failed: " ^ msg)
  | Ok rd ->
      let bl =
        Diff.Blame.build
          ~fault_desync:(List.mem Vm.Fault.Diff_desync faults)
          ~a:rd ~b:rd ()
      in
      if bl.total_delta <> 0 then
        Some
          (Printf.sprintf "self-diff total delta is %+d, want 0"
             bl.total_delta)
      else
        match Diff.Blame.check bl with
        | Some _ as breach -> breach
        | None ->
            if List.exists (fun (d : Diff.Blame.loop_delta) -> d.d_delta <> 0)
                 bl.loops
            then Some "self-diff blames a loop for a nonzero delta"
            else None

let no_faulting_prefetch (r : H.run_result) =
  if r.faulting_prefetches = 0 then None
  else
    Some
      (Printf.sprintf "%d prefetch op(s) computed a negative address"
         r.faulting_prefetches)

(* The monitor's books: per-window stats deltas and attribution outcomes
   sum back exactly to the run totals, tail partial window included. *)
let window_books (r : H.run_result) =
  match (r.monitor, r.effectiveness) with
  | None, _ -> Some "monitored run produced no monitor report"
  | _, None -> Some "monitored run produced no attribution"
  | Some rep, Some eff ->
      let windows = rep.Monitor.Report.windows in
      let sum f = Array.fold_left (fun a w -> a + f w) 0 windows in
      let t = eff.Workloads.Effectiveness.totals in
      let window_total =
        Array.fold_left
          (fun acc (w : Monitor.Window.t) -> Memsim.Stats.add acc w.stats)
          (Memsim.Stats.create ()) windows
      in
      let stat_sums =
        List.map2
          (fun (k, s) (_, total) -> (k, s, total))
          (Memsim.Stats.core_alist window_total)
          (Memsim.Stats.core_alist r.stats)
      in
      let outcome_sums =
        List.map
          (fun (k, f, total) -> ("attribution " ^ k, sum f, total))
          [
            ("issued", (fun (w : Monitor.Window.t) -> w.issued), t.issued);
            ("useful", (fun w -> w.useful), t.useful);
            ("late", (fun w -> w.late), t.late);
            ("useless", (fun w -> w.useless), t.useless);
          ]
      in
      List.find_map
        (fun (k, s, total) ->
          if s = total then None
          else
            Some
              (Printf.sprintf
                 "window deltas for %s sum to %d but the run total is %d" k s
                 total))
        (stat_sums @ outcome_sums)

(* ---- The cross-check table ----------------------------------------- *)

type row = {
  variants : (string * H.request) list;
      (** label and request of each run compared with the reference;
          one that makes the headline's own run is dropped *)
  relation : H.run_result -> H.run_result -> string option;
      (** reference, variant *)
  law : H.run_result -> string option;  (** on the variant alone *)
  fail : cell -> string -> string -> failure;
      (** variant cell, variant label, message *)
}

(* Row order is report order: the first failing row is the verdict. The
   fault each row's self-test injects is named beside it.

   The engine row comes first. An observed run (telemetry, profile or
   monitor) executes on the reference loop whichever engine it names,
   so the observer rows compare the closure-engine headline against a
   reference-loop run too: they cross engines as well. A desync between
   the engines must be reported as what it is, before an observer row
   sees the same divergence and claims it. *)
let rows ~faults (h : H.request) =
  let config f = { h with config = f h.config }
  and observers f = { h with observers = f h.observers } in
  let observed =
    observers (fun o -> { o with telemetry = true; profile = true })
  in
  [
    (* engine-desync *)
    {
      variants =
        [ ("switch", config (fun c -> { c with engine = Vm.Interp.Switch })) ];
      relation = bit_identical;
      law = no_law;
      fail = (fun cell _ message -> Engine_divergence { cell; message });
    };
    (* telemetry: no proving fault *)
    {
      variants = [ ("telemetry+profile", observed) ];
      relation = bit_identical;
      law = observer_books;
      fail = (fun cell _ message -> Telemetry_divergence { cell; message });
    };
    (* diff-desync: the same attributed run, diffed against itself *)
    {
      variants = [ ("telemetry+profile", observed) ];
      relation = bit_identical;
      law = self_diff ~faults ~config:h.config;
      fail = (fun cell _ message -> Diff_divergence { cell; message });
    };
    (* hw-desync *)
    {
      variants =
        List.map
          (fun hw ->
            ( Memsim.Config.hw_prefetch_to_string hw,
              config (fun c -> { c with hw = Some hw }) ))
          Memsim.Config.[ Hw_none; default_stream; default_rpt ];
      relation = architectural;
      law = no_law;
      fail = (fun cell hw message -> Hw_divergence { cell; hw; message });
    };
    (* prediction-desync *)
    {
      variants =
        List.map
          (fun prediction ->
            ( O.prediction_name prediction,
              config (fun c -> { c with prediction }) ))
          [ O.Inspect; O.Static; O.Hybrid ];
      relation = architectural;
      law = no_faulting_prefetch;
      fail =
        (fun cell tier message ->
          Prediction_divergence { cell; tier; message });
    };
    (* monitor-desync *)
    {
      variants =
        [
          ( "monitor",
            observers (fun o -> { o with monitor = Some monitor_window }) );
        ];
      relation = bit_identical;
      law = window_books;
      fail = (fun cell _ message -> Monitor_divergence { cell; message });
    };
  ]

let runs_per_program cells =
  (* Only configurations are counted, so a program that never runs
     stands in for a checked one. *)
  let h =
    headline ~faults:[] ~source:"" ~heap_limit_bytes:0
      Vm.Classfile.{ classes = [||]; methods = [||]; statics = [||]; entry = 0 }
  in
  if cells = [] then 0
  else
    (h :: List.map (fun c -> on_cell c h) cells)
    @ List.concat_map (fun row -> List.map snd row.variants) (rows ~faults:[] h)
    |> List.map run_key |> List.sort_uniq compare |> List.length

let headline_retired ?(faults = []) ~source ~heap_limit_bytes () =
  match
    H.execute
      (headline ~faults ~source ~heap_limit_bytes
         (Minijava.Compile.program_of_source_exn source))
  with
  | r -> Some r.stats.retired_instructions
  | exception _ -> None

exception Failed of failure

let check ?(cells = default_cells) ?(faults = []) ?max_steps ~source
    ~heap_limit_bytes () =
  (* Surface front-end failures as their own verdict: the generator is
     supposed to emit well-typed programs, so a compile error is a
     generator bug (or, during shrinking, an invalid candidate). The
     program this compile yields is the one every run executes. *)
  match Minijava.Compile.program_of_source_exn source with
  | exception e -> Fail (Compile_error (Printexc.to_string e))
  | _ when cells = [] -> Pass { cells_run = 0 }
  | program -> (
      let headline =
        headline ~faults ?max_steps ~source ~heap_limit_bytes program
      in
      let fail f = raise (Failed f) in
      let fail_if = Option.iter fail in
      let crash cell e = fail (Crash { cell; message = Printexc.to_string e })
      in
      let runs = ref [] in
      let shared (req : H.request) =
        let key = run_key req in
        match List.assoc_opt key !runs with
        | Some r -> r
        | None ->
            let r = H.execute req in
            runs := (key, r) :: !runs;
            r
      in
      (* A matrix cell, audited on its own. *)
      let audited cell =
        let side_effect = ref None in
        let compile_observer ~meth ~before ~after =
          if !side_effect = None then
            side_effect :=
              Option.map
                (fun diff ->
                  Inspection_side_effect
                    { cell; meth = meth.Vm.Classfile.method_name; diff })
                (Workloads.Observables.diff before after)
        in
        let req = on_cell cell headline in
        let observers =
          { req.observers with compile_observer = Some compile_observer }
        in
        match shared { req with observers } with
        | exception Jit.Pipeline.Verification_failed
            { pass_name; method_name; message } ->
            let message =
              Printf.sprintf "after pass %s: %s" pass_name message
            in
            fail (Lint_violation { cell; meth = method_name; message })
        | exception e -> crash cell e
        | r ->
            fail_if !side_effect;
            if r.faulting_prefetches > 0 then
              fail (Faulting_prefetch { cell; count = r.faulting_prefetches });
            fail_if (stats_invariants cell r);
            fail_if (lint_failure cell r);
            r
      in
      try
        let baseline = audited (List.hd cells) in
        List.iter
          (fun cell ->
            let r = audited cell in
            if r.output <> baseline.output then
              fail
                (Output_divergence
                   {
                     cell;
                     baseline_output = baseline.output;
                     output = r.output;
                   });
            match (baseline.observables, r.observables) with
            | Some a, Some b ->
                Option.iter
                  (fun diff -> fail (Heap_divergence { cell; diff }))
                  (Workloads.Observables.diff a b)
            | _ -> ())
          (List.tl cells);
        let reference =
          try shared headline with e -> crash (cell_of headline) e
        in
        List.iter
          (fun row ->
            List.iter
              (fun (label, req) ->
                if run_key req <> run_key headline then begin
                  let fail_with msg = fail (row.fail (cell_of req) label msg) in
                  match shared req with
                  | exception e ->
                      fail_with
                        (Printf.sprintf "the %s run crashed: %s" label
                           (Printexc.to_string e))
                  | r ->
                      Option.iter fail_with (row.relation reference r);
                      Option.iter fail_with (row.law r)
                end)
              row.variants)
          (rows ~faults headline);
        Pass { cells_run = List.length !runs }
      with Failed f -> Fail f)
