type cache_params = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  hit_extra : int;
  miss_penalty : int;
}

type tlb_params = { entries : int; page_bytes : int; tlb_miss_penalty : int }

type prefetch_target = To_l2 | To_l1

type hw_prefetch_model =
  | Hw_none
  | Hw_stream of { streams : int }
  | Hw_rpt of { table_size : int; degree : int; distance : int }

type machine = {
  name : string;
  l1 : cache_params;
  l2 : cache_params;
  dtlb : tlb_params;
  prefetch_target : prefetch_target;
  interp_cost : int;
  compiled_cost : int;
  prefetch_cost : int;
  guarded_load_cost : int;
  hw_prefetch : hw_prefetch_model;
}

(* Geometry from Table 2 of the paper; timing from DESIGN.md section 5.
   Associativities are the documented ones for the 2 GHz Pentium 4
   (4-way L1, 8-way L2) and the Athlon MP (2-way L1, 16-way L2).

   Miss penalties are EFFECTIVE stall costs, not raw latencies: the engine
   executes in order, so a raw 200-cycle DRAM latency would charge every
   miss in full, which an out-of-order core would partially overlap with
   independent work and other misses. The values below are the raw
   latencies divided by a memory-level-parallelism factor of about three,
   which puts the simulated baselines' stall fractions in a realistic
   range (DESIGN.md section 5). *)

let pentium4 =
  {
    name = "Pentium4";
    l1 =
      {
        size_bytes = 8 * 1024;
        line_bytes = 64;
        assoc = 4;
        hit_extra = 1;
        miss_penalty = 10;
      };
    l2 =
      {
        size_bytes = 256 * 1024;
        line_bytes = 128;
        assoc = 8;
        hit_extra = 0;
        miss_penalty = 60;
      };
    dtlb = { entries = 64; page_bytes = 4096; tlb_miss_penalty = 30 };
    prefetch_target = To_l2;
    interp_cost = 8;
    compiled_cost = 1;
    prefetch_cost = 1;
    guarded_load_cost = 3;
    hw_prefetch = Hw_stream { streams = 8 };
  }

let athlon_mp =
  {
    name = "AthlonMP";
    l1 =
      {
        size_bytes = 64 * 1024;
        line_bytes = 64;
        assoc = 2;
        hit_extra = 1;
        miss_penalty = 8;
      };
    l2 =
      {
        size_bytes = 256 * 1024;
        line_bytes = 64;
        assoc = 16;
        hit_extra = 0;
        miss_penalty = 45;
      };
    dtlb = { entries = 256; page_bytes = 4096; tlb_miss_penalty = 20 };
    prefetch_target = To_l1;
    interp_cost = 8;
    compiled_cost = 1;
    prefetch_cost = 1;
    guarded_load_cost = 3;
    hw_prefetch = Hw_stream { streams = 8 };
  }

let machines = [ pentium4; athlon_mp ]

let machine_of_name name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun m -> String.lowercase_ascii m.name = lower) machines

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate_cache label (c : cache_params) =
  if not (is_power_of_two c.line_bytes) then
    Error (label ^ ": line size must be a power of two")
  else if c.size_bytes <= 0 || c.size_bytes mod c.line_bytes <> 0 then
    Error (label ^ ": size must be a positive multiple of the line size")
  else if c.assoc <= 0 then Error (label ^ ": associativity must be positive")
  else if c.size_bytes / c.line_bytes mod c.assoc <> 0 then
    Error (label ^ ": associativity must divide the number of lines")
  else if c.miss_penalty < 0 || c.hit_extra < 0 then
    Error (label ^ ": penalties must be non-negative")
  else Ok ()

let validate_hw_prefetch = function
  | Hw_none -> Ok ()
  | Hw_stream { streams } ->
      if streams < 0 then Error "hw_prefetch: streams must be >= 0" else Ok ()
  | Hw_rpt { table_size; degree; distance } ->
      if not (is_power_of_two table_size) then
        Error "hw_prefetch: rpt table size must be a power of two"
      else if degree < 1 then Error "hw_prefetch: rpt degree must be >= 1"
      else if distance < 1 then Error "hw_prefetch: rpt distance must be >= 1"
      else Ok ()

let validate m =
  let ( let* ) = Result.bind in
  let* () = validate_cache "l1" m.l1 in
  let* () = validate_cache "l2" m.l2 in
  let* () = validate_hw_prefetch m.hw_prefetch in
  if not (is_power_of_two m.dtlb.page_bytes) then
    Error "dtlb: page size must be a power of two"
  else if m.dtlb.entries <= 0 then Error "dtlb: entries must be positive"
  else if
    m.interp_cost <= 0 || m.compiled_cost <= 0 || m.prefetch_cost <= 0
    || m.guarded_load_cost <= 0
  then Error "instruction costs must be positive"
  else Ok ()

(* Canonical spec string for a model, accepted back by
   [hw_prefetch_of_string]. Bench cell keys and reports embed it, so it
   must stay stable: "none", "stream:<streams>", "rpt:<table>x<degree>@
   <distance>". *)
let hw_prefetch_to_string = function
  | Hw_none -> "none"
  | Hw_stream { streams } -> Printf.sprintf "stream:%d" streams
  | Hw_rpt { table_size; degree; distance } ->
      Printf.sprintf "rpt:%dx%d@%d" table_size degree distance

let default_stream = Hw_stream { streams = 8 }
let default_rpt = Hw_rpt { table_size = 64; degree = 2; distance = 4 }

let hw_prefetch_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "invalid hw-prefetch spec %S (expected none | stream[:streams] | \
          rpt[:TABLExDEGREE@DISTANCE])"
         s)
  in
  let int_of str = int_of_string_opt (String.trim str) in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "none" ] -> Ok Hw_none
  | [ "stream" ] -> Ok default_stream
  | [ "stream"; n ] -> (
      match int_of n with
      | Some streams when streams >= 0 -> Ok (Hw_stream { streams })
      | _ -> fail ())
  | [ "rpt" ] -> Ok default_rpt
  | [ "rpt"; params ] -> (
      match String.split_on_char 'x' params with
      | [ table; rest ] -> (
          match String.split_on_char '@' rest with
          | [ degree; distance ] -> (
              match (int_of table, int_of degree, int_of distance) with
              | Some table_size, Some degree, Some distance ->
                  let m = Hw_rpt { table_size; degree; distance } in
                  Result.map (fun () -> m) (validate_hw_prefetch m)
              | _ -> fail ())
          | _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()
