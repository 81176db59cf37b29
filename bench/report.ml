(* The hot-path benchmark report: the paper's workloads and machines,
   the grid every cell matrix is built from (the canonical one and each
   spf_bench --sweep), the sweep summary, and the bench_hotpath/v2 JSON
   writer whose output Gate reads back. *)

module W = Workloads.Workload
module H = Workloads.Harness
module R = Workloads.Run_config

let workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all
let machines = Memsim.Config.machines

(* ------------------------------------------------------------------ *)
(* Grids *)

type dim = {
  axis : R.axis option;  (** [None]: the workload *)
  sets : (Runner.cell -> Runner.cell) list;  (** one per value *)
}

let workload_dim ws =
  {
    axis = None;
    sets = List.map (fun w c -> { c with Runner.workload = w }) ws;
  }

let config_dim axis sets =
  {
    axis = Some axis;
    sets =
      List.map
        (fun set (c : Runner.cell) -> { c with config = set c.config })
        sets;
  }

let find_workload name =
  match
    List.find_opt
      (fun (w : W.t) ->
        String.lowercase_ascii w.name = String.lowercase_ascii name)
      workloads
  with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (expected: %s)" name
           (String.concat ", " (List.map (fun (w : W.t) -> w.name) workloads)))

let dim spec =
  let all f vs =
    List.fold_right
      (fun v acc ->
        Result.bind acc (fun l -> Result.map (fun x -> x :: l) (f v)))
      vs (Ok [])
  in
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "sweep %S is not AXIS=V1,V2,..." spec)
  | Some i -> (
      let name = String.trim (String.sub spec 0 i) in
      let values =
        String.sub spec (i + 1) (String.length spec - i - 1)
        |> String.split_on_char ',' |> List.map String.trim
        |> List.filter (fun v -> v <> "")
      in
      match (String.lowercase_ascii name, R.axis_of_name name) with
      | _ when values = [] ->
          Error (Printf.sprintf "sweep %S has no values" spec)
      | "workload", _ -> Result.map workload_dim (all find_workload values)
      | _, Some ax -> Result.map (config_dim ax) (all (R.parse ax) values)
      | _, None ->
          Error
            (Printf.sprintf "unknown sweep axis %S (workload, %s)" name
               (String.concat ", " (List.map R.axis_name R.all_axes))))

let grid dims =
  let dims =
    if List.exists (fun d -> d.axis = None) dims then dims
    else workload_dim workloads :: dims
  in
  List.fold_left
    (fun cells d ->
      List.concat_map (fun c -> List.map (fun set -> set c) d.sets) cells)
    [ Runner.cell (List.hd workloads) R.default ]
    dims

let default_cells () =
  let machine =
    config_dim R.Machine
      (List.map (fun machine c -> { c with R.machine }) machines)
  in
  let db = List.find (fun (w : W.t) -> w.name = "db") workloads in
  (* The full (workload x machine x mode) simulation matrix... *)
  grid
    [
      machine;
      config_dim R.Mode
        (List.map
           (fun mode c -> { c with R.mode })
           Strideprefetch.Options.[ Off; Inter; Inter_intra ]);
    ]
  (* ...one attributed (telemetry) twin per workload at the headline
     configuration, filling [run_result.effectiveness] so the report
     carries coverage/accuracy rollups next to the cycle counts... *)
  @ List.map (fun w -> Runner.cell ~telemetry:true w R.default) workloads
  (* ...one profiled and one monitored twin of the headline db cell: the
     observer overheads of the object-centric profiler and the live
     monitor over time, next to the monitor's zero-cost cycle claim (its
     twin's cycles must equal the plain cell's exactly, which the gate's
     exact-equality law then pins across history). Like the telemetry
     twins, they execute on the reference loop although their config
     names the closure engine, so their seconds include switch
     dispatch... *)
  @ [
      Runner.cell ~profile:true db R.default;
      Runner.cell ~monitor:true db R.default;
    ]
  (* ...and one switch-engine twin per (workload x machine) at the
     headline mode: the dispatch lane. The twins' cycle counts must be
     byte-identical to their closure cells (the engines' contract, and
     the gate's exact-equality law applies to them too); their seconds
     measure what closure compilation buys on the host, summarized as
     the report's ["dispatch"] geomean. *)
  @ grid
      [
        machine;
        config_dim R.Engine
          [ (fun c -> { c with R.engine = Vm.Interp.Switch }) ];
      ]

(* ------------------------------------------------------------------ *)
(* The sweep summary *)

type row = {
  config : R.t;
  cycles : int;
  iterations : int;
  steps : int;
  pass_seconds : float;
}

type sweep = {
  axes : R.axis list;
  sweep_workloads : string list;
  rows : row list;
  picks : row list;
}

let add_run row (r : H.run_result) =
  List.fold_left
    (fun row (l : Strideprefetch.Pass.loop_report) ->
      {
        row with
        iterations = row.iterations + l.iterations_observed;
        steps = row.steps + l.inspection_steps;
      })
    {
      row with
      cycles = row.cycles + r.cycles;
      pass_seconds = row.pass_seconds +. r.prefetch_pass_seconds;
    }
    r.reports

(* The first element of each class of [key], in list order. *)
let distinct key xs =
  List.fold_left
    (fun acc x ->
      if List.exists (fun y -> key y = key x) acc then acc else acc @ [ x ])
    [] xs

(* One row per configuration (by canonical string) in grid order; a
   machine's pick is its first lowest-cycle row. *)
let sweep dims (timed : Runner.timed list) =
  let key (t : Runner.timed) = R.to_string t.cell.config in
  let row (first : Runner.timed) =
    List.fold_left
      (fun row t -> if key t = key first then add_run row t.result else row)
      {
        config = first.cell.config;
        cycles = 0;
        iterations = 0;
        steps = 0;
        pass_seconds = 0.0;
      }
      timed
  in
  let rows = List.map row (distinct key timed) in
  let machine r = R.axis_value r.config R.Machine in
  let pick first =
    List.fold_left
      (fun best r ->
        if machine r = machine first && r.cycles < best.cycles then r
        else best)
      first rows
  in
  {
    axes = List.filter_map (fun d -> d.axis) dims;
    sweep_workloads =
      List.map
        (fun (t : Runner.timed) -> t.cell.workload.W.name)
        (distinct (fun (t : Runner.timed) -> t.cell.workload.W.name) timed);
    rows;
    picks = List.map pick (distinct machine rows);
  }

(* ------------------------------------------------------------------ *)
(* The bench_hotpath/v2 writer *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let effectiveness_json (eff : Workloads.Effectiveness.t) =
  let pct f = Printf.sprintf "%.4f" f in
  let kind (k : Workloads.Effectiveness.kind_rollup) =
    Printf.sprintf
      "{\"kind\": \"%s\", \"sites\": %d, \"issued\": %d, \"useful\": %d, \
       \"late\": %d, \"useless\": %d, \"cancelled\": %d, \"redundant\": %d, \
       \"coverage\": %s, \"accuracy\": %s}"
      (json_escape k.kind_name) k.sites k.issued k.useful k.late k.useless
      k.cancelled k.redundant (pct k.kind_coverage) (pct k.kind_accuracy)
  in
  let t = eff.totals in
  Printf.sprintf
    "{\"issued\": %d, \"useful\": %d, \"late\": %d, \"useless\": %d, \
     \"cancelled\": %d, \"redundant\": %d, \"coverage\": %s, \"accuracy\": \
     %s, \"unattributed_misses\": %d, \"sites\": %d, \"kinds\": [%s]}"
    t.Memsim.Attribution.issued t.useful t.late t.useless t.cancelled
    t.redundant (pct eff.total_coverage) (pct eff.total_accuracy)
    eff.unattributed_misses (List.length eff.rows)
    (String.concat ", " (List.map kind eff.kinds))

(* Per-loop blame payload of a profiled cell: the profiler's loop rows
   (stall bins + totals, the straight-line remainders included) plus GC
   cycles — enough for spf_bench to reconstruct a two-sided per-loop
   cycle-delta report when the gate fails (lib/diff ingests it via
   Rundata.of_bench_blame). Only profile:true cells carry it, so
   canonical reports stay byte-compatible with pre-blame baselines. *)
let blame_json (rep : Profile.Report.t) =
  let bins b =
    String.concat ", "
      (List.map
         (fun (name, get) -> Printf.sprintf "\"%s\": %d" name (get b))
         Profile.Report.bin_fields)
  in
  let loop (l : Profile.Report.loop_row) =
    Printf.sprintf
      "{\"method\": \"%s\", \"loop\": %d, \"depth\": %d, \"actions\": %d, \
       \"bins\": {%s}, \"total\": %d}"
      (json_escape l.Profile.Report.l_method)
      l.l_loop l.l_depth l.l_actions (bins l.l_bins) l.l_total
  in
  Printf.sprintf "{\"gc_cycles\": %d, \"loops\": [%s]}"
    rep.Profile.Report.gc_cycles
    (String.concat ", " (List.map loop rep.Profile.Report.loops))

(* The dispatch section, paired by Gate's rule on the cells' gate view. *)
let dispatch_json (timed : Runner.timed list) =
  let view (t : Runner.timed) =
    {
      Gate.workload = t.cell.workload.W.name;
      config = t.cell.config;
      telemetry = t.cell.telemetry;
      profile = t.cell.profile;
      monitor = t.cell.monitor;
      blame = None;
      seconds = t.seconds;
      cycles = t.result.H.cycles;
    }
  in
  let pairs = Gate.dispatch_pairs (List.map view timed) in
  match Gate.dispatch_geomean pairs with
  | None -> ""
  | Some geomean ->
      let pair ((s : Gate.cell_rec), (c : Gate.cell_rec)) =
        Printf.sprintf
          "      {\"workload\": \"%s\", \"machine\": \"%s\", \"mode\": \"%s\", \
           \"switch_seconds\": %.6f, \"closure_seconds\": %.6f, \"speedup\": \
           %.4f}"
          (json_escape s.workload)
          (json_escape (R.axis_value s.config R.Machine))
          (json_escape (R.axis_value s.config R.Mode))
          s.seconds c.seconds (s.seconds /. c.seconds)
      in
      Printf.sprintf
        "  \"dispatch\": {\n    \"geomean_speedup\": %.4f,\n    \"pairs\": \
         [\n%s\n    ]\n  },\n"
        geomean
        (String.concat ",\n" (List.map pair pairs))

let sweep_json sw =
  let strings xs =
    String.concat ", " (List.map (fun x -> "\"" ^ json_escape x ^ "\"") xs)
  in
  let rows rs =
    String.concat ", "
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"config\": \"%s\", \"cycles\": %d, \"inspection_iterations\": \
              %d, \"inspection_steps\": %d, \"prefetch_pass_seconds\": %.6f}"
             (json_escape (R.to_string r.config))
             r.cycles r.iterations r.steps r.pass_seconds)
         rs)
  in
  Printf.sprintf
    "  \"sweep\": {\n    \"axes\": [%s],\n    \"workloads\": [%s],\n    \
     \"picks\": [%s],\n    \"rows\": [%s]\n  },\n"
    (strings (List.map R.axis_name sw.axes))
    (strings sw.sweep_workloads) (rows sw.picks) (rows sw.rows)

(* The configuration fields of a cell: machine, mode and engine always,
   every other axis only off its default — so canonical-matrix reports
   read the same as those written before the sweep axes existed. *)
let config_json (c : R.t) =
  String.concat ""
    (List.filter_map
       (fun (ax, field) ->
         let v = R.axis_value c ax in
         match ax with
         | R.Machine | R.Mode | R.Engine ->
             Some (Printf.sprintf ", \"%s\": \"%s\"" field (json_escape v))
         | _ when v = R.axis_value R.default ax -> None
         | R.Threshold -> Some (Printf.sprintf ", \"%s\": %s" field v)
         | _ ->
             Some (Printf.sprintf ", \"%s\": \"%s\"" field (json_escape v)))
       Gate.axis_fields)

let to_json_string ?sweep ~jobs ~matrix_wall_seconds
    (timed : Runner.timed list) =
  let total_cell_seconds =
    List.fold_left (fun acc (t : Runner.timed) -> acc +. t.seconds) 0.0 timed
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema\": \"%s\",\n" Gate.schema);
  Buffer.add_string buf
    (Printf.sprintf "  \"jobs\": %d,\n  \"host_cpus\": %d,\n" jobs
       (Runner.default_jobs ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"matrix_wall_seconds\": %.6f,\n" matrix_wall_seconds);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_cell_seconds\": %.6f,\n" total_cell_seconds);
  Buffer.add_string buf (dispatch_json timed);
  Option.iter (fun sw -> Buffer.add_string buf (sweep_json sw)) sweep;
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (t : Runner.timed) ->
      let effectiveness =
        match t.result.H.effectiveness with
        | Some eff ->
            Printf.sprintf ", \"effectiveness\": %s" (effectiveness_json eff)
        | None -> ""
      in
      let blame =
        match t.result.H.profile with
        | Some rep -> Printf.sprintf ", \"blame\": %s" (blame_json rep)
        | None -> ""
      in
      (* "monitor": true only when armed: canonical-matrix reports stay
         byte-compatible with pre-monitor baselines. *)
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\"%s, \"telemetry\": %b, \"profile\": \
            %b%s, \"seconds\": %.6f, \"cycles\": %d%s%s}%s\n"
           (json_escape t.cell.workload.W.name)
           (config_json t.cell.config) t.cell.telemetry t.cell.profile
           (if t.cell.monitor then ", \"monitor\": true" else "")
           t.seconds t.result.H.cycles effectiveness blame
           (if i = List.length timed - 1 then "" else ",")))
    timed;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
