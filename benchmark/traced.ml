(* The traced run: per-layer host time, measured from outside at the call
   boundaries the wiring exposes. Each cell is first run untraced (the
   reference for cycles and for the tracing overhead), then three times
   more:

   - pass A times the front end, VM creation with pipeline construction,
     each JIT pass, closure precompile (the pipeline's [on_mutate]) and
     the run, recording every span into a Telemetry sink;
   - pass B, only for cells that collected garbage, reruns the cell with
     a telemetry sink and sums the GC span durations;
   - pass C records the demand-load stream through the load observer and
     times its replay through a fresh Memsim.Hierarchy (best of three).

   Execution is the run minus the JIT inside it; dispatch is execution
   minus GC minus the memsim estimate. Every pass must leave cycles
   identical to the untraced run. *)

open Suite

type cell = {
  name : string;
  config : Wiring.config;
  source : string;
  heap_limit_bytes : int;
}

let cell_of (c : Suite.cell) =
  {
    name = key c;
    config = Wiring.headline c.machine;
    source = c.workload.Workloads.Workload.source;
    heap_limit_bytes = c.workload.Workloads.Workload.heap_limit_bytes;
  }

(* Pass A's timings of one cell, in host seconds and OCaml words. *)
type layers = {
  wall : float;
  minijava : float;
  minijava_alloc : float;
  create : float;  (** Interp.create plus pipeline construction *)
  passes : (string * float) list;  (** self time of each JIT pass *)
  bookkeeping : float;
      (** compile hook minus its passes: the pipeline's own bookkeeping
          and the span recording around each pass *)
  closure : float;
  precompiles : int;
  exec : float;  (** Interp.run minus the compile hook *)
  exec_alloc : float;
  methods : int;
  inspect_iterations : int;
  inspect_steps : int;
}

let add_assoc k v l =
  (k, v +. Option.value ~default:0.0 (List.assoc_opt k l)) :: List.remove_assoc k l

let accounted l =
  l.minijava +. l.create +. l.exec +. l.closure +. l.bookkeeping
  +. Report.sum (List.map snd l.passes)

(* Run [f], record it as a span of [sink], return its result and its
   duration in seconds. *)
let timed sink ?args ~cat name f =
  let ts = Telemetry.Sink.now_us sink and c0 = Telemetry.Sink.cycles sink in
  let r = f () in
  let te = Telemetry.Sink.now_us sink in
  Telemetry.Sink.add_span sink ~cat ?args ~name ~ts_us:ts ~dur_us:(te -. ts)
    ~cycles_begin:c0 ~cycles_end:(Telemetry.Sink.cycles sink) ();
  (r, (te -. ts) /. 1e6)

let pass_a sink cell =
  Telemetry.Sink.set_cycle_source sink (fun () -> 0);
  let passes = ref [] and closure = ref 0.0 and precompiles = ref 0 in
  let compile = ref 0.0 and compile_alloc = ref 0.0 in
  let span ~name ~meth:_ f =
    if name = "compile" then begin
      let a0 = Report.allocated_words () in
      let (), dt = timed sink ~cat:"jit" "jit.compile" f in
      compile := !compile +. dt;
      compile_alloc := !compile_alloc +. Report.allocated_words () -. a0
    end
    else
      let c0 = !closure in
      let (), dt = timed sink ~cat:"jit" name f in
      let pass =
        if String.starts_with ~prefix:"pass:" name then
          String.sub name 5 (String.length name - 5)
        else name
      in
      passes := add_assoc pass (dt -. (!closure -. c0)) !passes
  in
  let ( (interp, jit, minijava, minijava_alloc, create, run, run_alloc), wall ) =
    timed sink ~cat:"cell"
      ~args:[ ("cell", Telemetry.Json.Str cell.name) ]
      "cell"
      (fun () ->
        let a0 = Report.allocated_words () in
        let program, minijava =
          timed sink ~cat:"minijava" "minijava" (fun () ->
              Wiring.front_end cell.source)
        in
        let minijava_alloc = Report.allocated_words () -. a0 in
        let (interp, jit), create =
          timed sink ~cat:"vm" "vm.create" (fun () ->
              let interp =
                Wiring.create cell.config ~heap_limit_bytes:cell.heap_limit_bytes
                  program
              in
              let on_mutate m =
                let (), dt =
                  timed sink ~cat:"closure" "closure.precompile" (fun () ->
                      Vm.Interp.precompile_method interp m)
                in
                closure := !closure +. dt;
                incr precompiles
              in
              (interp, Wiring.install ~span ~on_mutate cell.config interp))
        in
        Telemetry.Sink.set_cycle_source sink (fun () ->
            (Vm.Interp.stats interp).Memsim.Stats.cycles);
        let a1 = Report.allocated_words () in
        let (), run =
          timed sink ~cat:"vm" "vm.run" (fun () -> ignore (Vm.Interp.run interp))
        in
        (interp, jit, minijava, minijava_alloc, create, run, Report.allocated_words () -. a1))
  in
  let reports = !(jit.Wiring.reports) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  ( Wiring.outcome interp jit,
    {
      wall;
      minijava;
      minijava_alloc;
      create;
      passes = !passes;
      bookkeeping = !compile -. !closure -. Report.sum (List.map snd !passes);
      closure = !closure;
      precompiles = !precompiles;
      exec = run -. !compile;
      exec_alloc = run_alloc -. !compile_alloc;
      methods = Jit.Pipeline.methods_compiled jit.Wiring.pipeline;
      inspect_iterations = sum (fun r -> r.Strideprefetch.Pass.iterations_observed);
      inspect_steps = sum (fun r -> r.Strideprefetch.Pass.inspection_steps);
    } )

let prepare cell =
  Wiring.setup cell.config ~heap_limit_bytes:cell.heap_limit_bytes cell.source

(* Pass B: GC host time, from the GC spans of a telemetry rerun. *)
let gc_sink_capacity = 1 lsl 16

let pass_b cell =
  let interp, jit = prepare cell in
  let sink = Telemetry.Sink.create ~capacity:gc_sink_capacity () in
  Vm.Interp.set_telemetry interp ~registry:(Telemetry.Attrib.create ()) ~sink ();
  ignore (Vm.Interp.run interp);
  let gc_s =
    List.fold_left
      (fun acc (e : Telemetry.Event.t) ->
        if e.cat = "gc" then acc +. (e.dur_us /. 1e6) else acc)
      0.0 (Telemetry.Sink.events sink)
  in
  (Wiring.outcome interp jit, gc_s, Telemetry.Sink.dropped sink)

(* Pass C: the demand-load stream. Entry [i] packs the (method, site)
   tag above the 32-bit address; [resets] lists the entries before which
   a compaction flushed the hierarchy. *)
let max_recorded = 1 lsl 22
let replays = 3
let keys = lazy (Array.make max_recorded 0)
let nows = lazy (Array.make max_recorded 0)

(* The flushes are left out of the time: in the real run they are part
   of the collection, which gc.s already counts. *)
let replay machine ~recorded ~resets =
  let keys = Lazy.force keys and nows = Lazy.force nows in
  let h = Memsim.Hierarchy.create machine in
  let segment ~from ~upto =
    let t0 = Report.now () in
    for i = from to upto - 1 do
      let k = keys.(i) in
      ignore
        (Memsim.Hierarchy.demand_access h ~pc:(k lsr 32)
           ~addr:(k land 0xffff_ffff) ~kind:`Load ~now:nows.(i))
    done;
    Report.now () -. t0
  in
  let rec go from acc = function
    | r :: rest when r < recorded ->
        let acc = acc +. segment ~from ~upto:r in
        Memsim.Hierarchy.reset h;
        go r acc rest
    | _ -> acc +. segment ~from ~upto:recorded
  in
  go 0 0.0 resets

let pass_c cell =
  let interp, jit = prepare cell in
  let keys = Lazy.force keys and nows = Lazy.force nows in
  let n = ref 0 and last_gc = ref 0 and resets = ref [] in
  Vm.Interp.set_load_observer interp (fun ~method_id ~site ~addr ->
      let i = !n in
      if i < max_recorded then begin
        if addr lsr 32 <> 0 then
          failwith (Printf.sprintf "address %#x does not fit the replay record" addr);
        let g = Vm.Interp.gc_count interp in
        if g <> !last_gc then begin
          last_gc := g;
          resets := i :: !resets
        end;
        keys.(i) <- ((((method_id lsl 16) lor site) lsl 32) lor addr);
        nows.(i) <- (Vm.Interp.stats interp).Memsim.Stats.cycles
      end;
      n := i + 1);
  ignore (Vm.Interp.run interp);
  let recorded = min !n max_recorded and resets = List.rev !resets in
  let best =
    List.fold_left min infinity
      (List.init replays (fun _ ->
           replay cell.config.Wiring.machine ~recorded ~resets))
  in
  (Wiring.outcome interp jit, recorded, best)

(* Everything a traced pass learns about one cell. *)
type traced = {
  cell : cell;
  untraced : float;
  layers : layers;
  outcome : Wiring.outcome;
  gc_s : float;
  memsim_s : float;  (** replay ns per load times all demand accesses *)
  replay_s : float;
  recorded : int;
}

(* A cell's layers must cover its wall time to 2%, or to 100 us on a
   sub-millisecond fuzz cell: an OCaml minor collection that lands
   between two spans costs tens of microseconds. The whole workload must
   still reconcile to 2%, so a layer missing from every cell is caught. *)
let reconcile_tolerance = 0.02
let reconcile_floor = 100e-6

let time f =
  let t0 = Report.now () in
  let r = f () in
  (r, Report.now () -. t0)

let run ~expected units =
  let problems = ref [] and attempted = ref 0 and failed = ref 0 in
  let fail msg = problems := msg :: !problems in
  let attempt what f =
    incr attempted;
    let before = List.length !problems in
    let r =
      match f () with
      | exception e ->
          fail (Printf.sprintf "%s: %s" what (Printexc.to_string e));
          None
      | r -> Some r
    in
    if List.length !problems > before then incr failed;
    r
  in
  let gen_s = ref 0.0 and oracle_s = ref 0.0 and oracle_cells = ref 0 in
  (* Cells run through the benchmark's wiring, each with the check its
     untraced outcome must pass. *)
  let cells =
    List.concat_map
      (function
        | Plain c ->
            [ (cell_of c, fun o -> Measure.check_plain expected c o) ]
        | Observed _ -> []
        | Fuzz seed ->
            let (g, source), dt =
              time (fun () ->
                  let g = generate seed in
                  (g, Fuzz.Gen.source g))
            in
            gen_s := !gen_s +. dt;
            List.map
              (fun (oc : Fuzz.Oracle.cell) ->
                ( {
                    name = Printf.sprintf "fuzz-%d/%s" seed (Fuzz.Oracle.cell_name oc);
                    config =
                      {
                        Wiring.mode = oc.mode;
                        standard_passes = oc.standard_passes;
                        machine = oc.machine;
                        engine = Vm.Interp.Closure;
                      };
                    source;
                    heap_limit_bytes = g.Fuzz.Gen.heap_limit_bytes;
                  },
                  fun (o : Wiring.outcome) ->
                    if o.faulting_prefetches > 0 then
                      Some (Printf.sprintf "fuzz seed %d: faulting prefetches" seed)
                    else None ))
              Fuzz.Oracle.default_cells)
      units
  in
  let sink = Telemetry.Sink.create ~capacity:(1 lsl 20) () in
  let gc_dropped = ref 0 in
  let same pass cell (o : Wiring.outcome) (r : Wiring.outcome) =
    if o.cycles <> r.cycles || o.core <> r.core || o.output <> r.output then
      fail
        (Printf.sprintf "%s: pass %s diverged from the untraced run (cycles %d -> %d)"
           cell.name pass r.cycles o.cycles)
  in
  let trace_cell (cell, check) =
    let reference, untraced =
      time (fun () ->
          Wiring.run cell.config ~heap_limit_bytes:cell.heap_limit_bytes cell.source)
    in
    Option.iter fail (check reference);
    let outcome, layers = pass_a sink cell in
    same "A" cell outcome reference;
    if Float.abs (layers.wall -. accounted layers)
       > Float.max (reconcile_tolerance *. layers.wall) reconcile_floor
    then
      fail
        (Printf.sprintf "%s: layers sum to %.6f s of a %.6f s cell" cell.name
           (accounted layers) layers.wall);
    let gc_s =
      if outcome.gc_count = 0 then 0.0
      else begin
        let o, gc_s, dropped = pass_b cell in
        same "B" cell o reference;
        gc_dropped := !gc_dropped + dropped;
        gc_s
      end
    in
    let o, recorded, replay_s = pass_c cell in
    same "C" cell o reference;
    let memsim_s =
      if recorded = 0 then 0.0
      else replay_s /. float_of_int recorded *. float_of_int (outcome.loads + outcome.stores)
    in
    { cell; untraced; layers; outcome; gc_s; memsim_s; replay_s; recorded }
  in
  let traced =
    List.filter_map (fun ((cell, _) as c) -> attempt cell.name (fun () -> trace_cell c)) cells
  in
  (* The workloads' other units: observed twins and oracle checks. *)
  let observers_s = ref 0.0 in
  List.iter
    (function
      | Plain _ -> ()
      | Observed c ->
          ignore
            (attempt (key c ^ " observed") (fun () ->
                 let r, observed = time (fun () -> Measure.run_observed c) in
                 Option.iter fail (Measure.check_observed expected c r);
                 match List.find_opt (fun t -> t.cell.name = key c) traced with
                 | Some t -> observers_s := !observers_s +. observed -. t.untraced
                 | None -> fail (key c ^ ": observed twin without a plain twin")))
      | Fuzz seed ->
          ignore
            (attempt (Printf.sprintf "fuzz seed %d oracle" seed) (fun () ->
                 let g = generate seed in
                 let verdict, dt =
                   time (fun () ->
                       Fuzz.Oracle.check ~source:(Fuzz.Gen.source g)
                         ~heap_limit_bytes:g.Fuzz.Gen.heap_limit_bytes ())
                 in
                 oracle_s := !oracle_s +. dt;
                 match verdict with
                 | Fuzz.Oracle.Pass { cells_run } ->
                     oracle_cells := !oracle_cells + cells_run
                 | Fuzz.Oracle.Fail f ->
                     fail (Printf.sprintf "fuzz seed %d: %s" seed (Fuzz.Oracle.describe f)))))
    units;
  let total f = Report.sum (List.map f traced) in
  let count f = float_of_int (List.fold_left (fun a t -> a + f t) 0 traced) in
  let pass name = total (fun t -> Option.value ~default:0.0 (List.assoc_opt name t.layers.passes)) in
  let wall = total (fun t -> t.layers.wall) and untraced = total (fun t -> t.untraced) in
  let exec = total (fun t -> t.layers.exec) in
  let gc = total (fun t -> t.gc_s) and memsim = total (fun t -> t.memsim_s) in
  let gc_count = count (fun t -> t.outcome.gc_count) in
  let retired = count (fun t -> t.outcome.retired) in
  let dispatch = exec -. gc -. memsim in
  let closure = total (fun t -> t.layers.closure) in
  let jit_passes = pass "analysis" +. pass "simplify" +. pass "dse" +. pass "stride-prefetch" in
  let dropped = Telemetry.Sink.dropped sink + !gc_dropped in
  let unaccounted = wall -. total (fun t -> accounted t.layers) in
  if Float.abs unaccounted > reconcile_tolerance *. wall then
    fail
      (Printf.sprintf "layers sum to %.6f s of %.6f s traced"
         (wall -. unaccounted) wall);
  if memsim +. gc > exec then
    fail (Printf.sprintf "memsim.est_s %.6f + gc.s %.6f exceed vm.exec.s %.6f" memsim gc exec);
  if dropped <> 0 then fail (Printf.sprintf "trace sinks dropped %d events" dropped);
  let metrics =
    Report.
      [
        metric "minijava.s" (total (fun t -> t.layers.minijava)) "s";
        metric "minijava.alloc_mw" (total (fun t -> t.layers.minijava_alloc) /. 1e6) "Mword";
        metric "vm.create.s" (total (fun t -> t.layers.create)) "s";
        metric "jit.analysis.s" (pass "analysis") "s";
        metric "jit.simplify.s" (pass "simplify") "s";
        metric "jit.dse.s" (pass "dse") "s";
        metric "jit.pipeline.s" (total (fun t -> t.layers.bookkeeping)) "s";
        metric "jit.methods" (count (fun t -> t.layers.methods)) "count";
        metric "strideprefetch.s" (pass "stride-prefetch") "s";
        metric "strideprefetch.inspect_iterations" (count (fun t -> t.layers.inspect_iterations)) "count";
        metric "strideprefetch.inspect_steps" (count (fun t -> t.layers.inspect_steps)) "count";
        metric "strideprefetch.jit_share" (ratio (pass "stride-prefetch") (jit_passes +. closure)) "ratio";
        metric "closure.precompile.s" closure "s";
        metric "closure.precompiles" (count (fun t -> t.layers.precompiles)) "count";
        metric "vm.exec.s" exec "s";
        metric "vm.exec.alloc_mw" (total (fun t -> t.layers.exec_alloc) /. 1e6) "Mword";
        metric "vm.retired_minstr" (retired /. 1e6) "Minstr";
        metric "vm.dispatch.est_s" dispatch "s";
        metric "vm.dispatch.ns_per_instr" (ratio (dispatch *. 1e9) retired) "ns";
        metric "memsim.accesses" (count (fun t -> t.outcome.loads + t.outcome.stores)) "count";
        metric "memsim.replay_ns_per_access"
          (ratio (total (fun t -> t.replay_s) *. 1e9) (count (fun t -> t.recorded)))
          "ns";
        metric "memsim.est_s" memsim "s";
        metric "gc.count" gc_count "count";
        metric "gc.s" gc "s";
        metric "gc.ms_per_collection" (ratio (gc *. 1e3) gc_count) "ms";
        metric "observers.s" !observers_s "s";
        metric "observers.overhead_x" (ratio (untraced +. !observers_s) untraced) "x";
        metric "fuzz.gen.s" !gen_s "s";
        metric "fuzz.oracle.s" !oracle_s "s";
        metric "fuzz.cells" (float_of_int !oracle_cells) "count";
        metric "trace.overhead_pct" (ratio ((wall -. untraced) *. 100.0) untraced) "%";
        metric "trace.unaccounted_pct" (ratio (unaccounted *. 100.0) wall) "%";
        metric "trace.dropped" (float_of_int dropped) "count";
      ]
  in
  ( {
      Measure.metrics;
      attempted = !attempted;
      failed = !failed;
      problems = List.rev !problems;
    },
    sink )
