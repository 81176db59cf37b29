module J = Telemetry.Json
module R = Profile.Report
module RC = Workloads.Run_config

type stamp = { workload : string; config : RC.t }

type loop = {
  lr_method : string;
  lr_loop : int;
  lr_depth : int;
  lr_bins : int array;
  lr_total : int;
  lr_actions : int;
}

type site = {
  s_method : string;
  s_pc : int;
  s_allocs : int;
  s_bytes : int;
  s_tlb : int;
  s_l1 : int;
  s_l2 : int;
  s_mem : int;
  s_total : int;
}

type attribution = {
  a_issued : int;
  a_cancelled : int;
  a_redundant : int;
  a_redundant_hw : int;
  a_useful : int;
  a_late : int;
  a_useless : int;
}

type prov = {
  p_method : string;
  p_loop : int;
  p_actions : string list;
  p_rejected : int;
  p_promoted : bool;
  p_low_trip : bool;
  p_iterations : int;
  p_steps : int;
  p_skipped : bool;
  p_shortened : bool;
}

type t = {
  stamp : stamp option;
  cycles : int;
  gc_cycles : int;
  totals : int array;
  loops : loop list;
  sites : site list;
  attribution : attribution option;
  provenance : prov list;
}

let bin_names = List.map fst R.bin_fields
let bins_array bins = Array.of_list (List.map (fun (_, get) -> get bins) R.bin_fields)

(* ------------------------------------------------------------------ *)
(* From a live harness run.                                            *)

let attribution_of_counters (c : Memsim.Attribution.site_counters) =
  {
    a_issued = c.issued;
    a_cancelled = c.cancelled;
    a_redundant = c.redundant;
    a_redundant_hw = c.redundant_hw;
    a_useful = c.useful;
    a_late = c.late;
    a_useless = c.useless;
  }

(* One provenance record per (method, loop). A method recompile would
   contribute two pass reports for the same loop; merge them so the join
   key stays unique. *)
let provenance_of_reports reports =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (rep : Strideprefetch.Pass.loop_report) ->
      let key = (rep.method_name, rep.loop_id) in
      let actions =
        List.map Strideprefetch.Codegen.action_descriptor rep.plan.actions
      in
      let fresh =
        {
          p_method = rep.method_name;
          p_loop = rep.loop_id;
          p_actions = actions;
          p_rejected = List.length rep.plan.rejected;
          p_promoted = rep.promoted;
          p_low_trip = rep.skipped_low_trip;
          p_iterations = rep.iterations_observed;
          p_steps = rep.inspection_steps;
          p_skipped = rep.inspection_skipped;
          p_shortened = rep.inspection_shortened;
        }
      in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key fresh
      | Some old ->
          Hashtbl.replace tbl key
            {
              old with
              p_actions = old.p_actions @ fresh.p_actions;
              p_rejected = old.p_rejected + fresh.p_rejected;
              p_promoted = old.p_promoted || fresh.p_promoted;
              p_low_trip = old.p_low_trip || fresh.p_low_trip;
              p_iterations = old.p_iterations + fresh.p_iterations;
              p_steps = old.p_steps + fresh.p_steps;
              p_skipped = old.p_skipped || fresh.p_skipped;
              p_shortened = old.p_shortened || fresh.p_shortened;
            })
    reports;
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []
  |> List.map (fun p -> { p with p_actions = List.sort compare p.p_actions })
  |> List.sort (fun a b -> compare (a.p_method, a.p_loop) (b.p_method, b.p_loop))

let of_run ~config (r : Workloads.Harness.run_result) =
  match r.profile with
  | None -> Error "run carries no profile (made without ~profile:true)"
  | Some rep ->
      let loops =
        List.map
          (fun (l : R.loop_row) ->
            {
              lr_method = l.l_method;
              lr_loop = l.l_loop;
              lr_depth = l.l_depth;
              lr_bins = bins_array l.l_bins;
              lr_total = l.l_total;
              lr_actions = l.l_actions;
            })
          rep.loops
      in
      let sites =
        List.map
          (fun (o : R.obj_row) ->
            {
              s_method = o.alloc_method;
              s_pc = o.alloc_pc;
              s_allocs = o.allocs;
              s_bytes = o.alloc_bytes;
              s_tlb = o.o_tlb;
              s_l1 = o.o_l1;
              s_l2 = o.o_l2;
              s_mem = o.o_mem;
              s_total = o.o_total;
            })
          rep.objects
      in
      let attribution =
        Option.map
          (fun (eff : Workloads.Effectiveness.t) ->
            attribution_of_counters eff.totals)
          r.effectiveness
      in
      Ok
        {
          stamp = Some { workload = r.workload; config };
          cycles = rep.cycles;
          gc_cycles = rep.gc_cycles;
          totals = bins_array rep.totals;
          loops;
          sites;
          attribution;
          provenance = provenance_of_reports r.reports;
        }

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let schema = "spf_diff/v1"

let json_of_bin_array a =
  J.Obj (List.mapi (fun i n -> (n, J.Int a.(i))) bin_names)

(* The stamp's axis fields, each named by [RC.axis_name], in the order
   spf_diff/v1 files record them. *)
let stamp_axes =
  RC.[ Machine; Mode; Engine; Hw; Prediction; Threshold; Passes ]

(* Each axis as [RC.axis_value] spells it, except the two the format
   records typed: the threshold as an integer or null, passes as a
   boolean. *)
let axis_json (c : RC.t) = function
  | RC.Threshold -> (
      match c.threshold with None -> J.Null | Some n -> J.Int n)
  | RC.Passes -> J.Bool c.passes
  | ax -> J.Str (RC.axis_value c ax)

let to_json t =
  let stamp_json = function
    | None -> J.Null
    | Some s ->
        J.Obj
          (("workload", J.Str s.workload)
          :: List.map
               (fun ax -> (RC.axis_name ax, axis_json s.config ax))
               stamp_axes)
  in
  let loop_json l =
    J.Obj
      [
        ("method", J.Str l.lr_method);
        ("loop", J.Int l.lr_loop);
        ("depth", J.Int l.lr_depth);
        ("actions", J.Int l.lr_actions);
        ("bins", json_of_bin_array l.lr_bins);
        ("total", J.Int l.lr_total);
      ]
  in
  let site_json s =
    J.Obj
      [
        ("method", J.Str s.s_method);
        ("pc", J.Int s.s_pc);
        ("allocs", J.Int s.s_allocs);
        ("bytes", J.Int s.s_bytes);
        ("tlb", J.Int s.s_tlb);
        ("l1", J.Int s.s_l1);
        ("l2", J.Int s.s_l2);
        ("mem", J.Int s.s_mem);
        ("stall", J.Int s.s_total);
      ]
  in
  let attribution_json a =
    J.Obj
      [
        ("issued", J.Int a.a_issued);
        ("cancelled", J.Int a.a_cancelled);
        ("redundant", J.Int a.a_redundant);
        ("redundant_hw", J.Int a.a_redundant_hw);
        ("useful", J.Int a.a_useful);
        ("late", J.Int a.a_late);
        ("useless", J.Int a.a_useless);
      ]
  in
  let prov_json p =
    J.Obj
      [
        ("method", J.Str p.p_method);
        ("loop", J.Int p.p_loop);
        ("actions", J.List (List.map (fun a -> J.Str a) p.p_actions));
        ("rejected", J.Int p.p_rejected);
        ("promoted", J.Bool p.p_promoted);
        ("low_trip", J.Bool p.p_low_trip);
        ("iterations", J.Int p.p_iterations);
        ("steps", J.Int p.p_steps);
        ("skipped", J.Bool p.p_skipped);
        ("shortened", J.Bool p.p_shortened);
      ]
  in
  J.Obj
    [
      ("schema", J.Str schema);
      ("config", stamp_json t.stamp);
      ("cycles", J.Int t.cycles);
      ("gc_cycles", J.Int t.gc_cycles);
      ("totals", json_of_bin_array t.totals);
      ("loops", J.List (List.map loop_json t.loops));
      ("objects", J.List (List.map site_json t.sites));
      ( "attribution",
        match t.attribution with None -> J.Null | Some a -> attribution_json a
      );
      ("provenance", J.List (List.map prov_json t.provenance));
    ]

(* Lenient readers in the gate parser's spirit: absent numeric fields
   default to 0, flags to false, strings to "?" — older snapshots keep
   loading. (The stamp is stricter: see [stamp_of_json].) *)
let mem_str name v =
  match J.member name v with Some (J.Str s) -> s | _ -> "?"

let mem_int name v = match J.member name v with Some (J.Int i) -> i | _ -> 0

let mem_bool name v =
  match J.member name v with Some (J.Bool b) -> b | _ -> false

let mem_list name v = match J.member name v with Some (J.List l) -> l | _ -> []

let bins_of_json v =
  match v with
  | Some bins -> Array.of_list (List.map (fun n -> mem_int n bins) bin_names)
  | None -> Array.make (List.length bin_names) 0

let loop_of_json v =
  {
    lr_method = mem_str "method" v;
    lr_loop = mem_int "loop" v;
    lr_depth = mem_int "depth" v;
    lr_bins = bins_of_json (J.member "bins" v);
    lr_total = mem_int "total" v;
    lr_actions =
      (match J.member "actions" v with Some (J.Int i) -> i | _ -> -1);
  }

let site_of_json v =
  {
    s_method = mem_str "method" v;
    s_pc = mem_int "pc" v;
    s_allocs = mem_int "allocs" v;
    s_bytes = mem_int "bytes" v;
    s_tlb = mem_int "tlb" v;
    s_l1 = mem_int "l1" v;
    s_l2 = mem_int "l2" v;
    s_mem = mem_int "mem" v;
    s_total = mem_int "stall" v;
  }

(* Every axis field back through [RC.parse]; a missing or unparseable
   one leaves the stamp absent. *)
let stamp_of_json v =
  let value = function
    | J.Str s -> Some s
    | J.Int n -> Some (string_of_int n)
    | J.Null -> Some "default"
    | J.Bool b -> Some (string_of_bool b)
    | _ -> None
  in
  let set config ax =
    match Option.bind (J.member (RC.axis_name ax) v) value with
    | None -> None
    | Some s -> Result.to_option (Result.map (fun f -> f config) (RC.parse ax s))
  in
  match J.member "workload" v with
  | Some (J.Str workload) ->
      List.fold_left
        (fun acc ax -> Option.bind acc (fun c -> set c ax))
        (Some RC.default) stamp_axes
      |> Option.map (fun config -> { workload; config })
  | _ -> None

let attribution_of_json v =
  {
    a_issued = mem_int "issued" v;
    a_cancelled = mem_int "cancelled" v;
    a_redundant = mem_int "redundant" v;
    a_redundant_hw = mem_int "redundant_hw" v;
    a_useful = mem_int "useful" v;
    a_late = mem_int "late" v;
    a_useless = mem_int "useless" v;
  }

let prov_of_json v =
  {
    p_method = mem_str "method" v;
    p_loop = mem_int "loop" v;
    p_actions =
      List.filter_map
        (function J.Str s -> Some s | _ -> None)
        (mem_list "actions" v);
    p_rejected = mem_int "rejected" v;
    p_promoted = mem_bool "promoted" v;
    p_low_trip = mem_bool "low_trip" v;
    p_iterations = mem_int "iterations" v;
    p_steps = mem_int "steps" v;
    p_skipped = mem_bool "skipped" v;
    p_shortened = mem_bool "shortened" v;
  }

let of_json v =
  match J.member "schema" v with
  | Some (J.Str s) when s = schema || s = "spf_prof/v1" ->
      let attribution =
        match J.member "attribution" v with
        | Some (J.Obj _ as a) -> Some (attribution_of_json a)
        | _ -> None
      in
      Ok
        {
          stamp = Option.bind (J.member "config" v) stamp_of_json;
          cycles = mem_int "cycles" v;
          gc_cycles = mem_int "gc_cycles" v;
          totals = bins_of_json (J.member "totals" v);
          loops = List.map loop_of_json (mem_list "loops" v);
          sites = List.map site_of_json (mem_list "objects" v);
          attribution;
          provenance = List.map prov_of_json (mem_list "provenance" v);
        }
  | Some (J.Str s) ->
      Error
        (Printf.sprintf "unsupported schema %S (expected %s or spf_prof/v1)" s
           schema)
  | _ -> Error "snapshot has no schema field"

(* The compact per-cell blame payload of a bench_hotpath/v2 report:
   {"gc_cycles": N, "loops": [...]} with loops in the snapshot spelling.
   The run's bin totals are the loop rows summed — the profiler puts
   every cycle in exactly one loop row (straight-line remainders are the
   loop = -1 rows), so the reconstruction is exact and the blame
   conservation law carries over. *)
let of_bench_blame ~stamp ~cycles v =
  match J.member "loops" v with
  | Some (J.List loop_rows) ->
      let loops = List.map loop_of_json loop_rows in
      let totals = Array.make (List.length bin_names) 0 in
      List.iter
        (fun l -> Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) l.lr_bins)
        loops;
      Ok
        {
          stamp = Some stamp;
          cycles;
          gc_cycles = mem_int "gc_cycles" v;
          totals;
          loops;
          sites = [];
          attribution = None;
          provenance = [];
        }
  | _ -> Error "blame payload has no \"loops\" array"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match J.parse text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok v -> (
          match of_json v with
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | Ok t -> Ok t))
