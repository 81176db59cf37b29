type t = {
  mutable loads : int;
  mutable stores : int;
  mutable l1_load_misses : int;
  mutable l1_store_misses : int;
  mutable l2_load_misses : int;
  mutable l2_store_misses : int;
  mutable dtlb_load_misses : int;
  mutable dtlb_store_misses : int;
  mutable in_flight_hits : int;
  mutable sw_prefetches : int;
  mutable sw_prefetches_cancelled : int;
  mutable sw_prefetch_useless : int;
  mutable guarded_loads : int;
  mutable hw_prefetches : int;
  mutable retired_instructions : int;
  mutable cycles : int;
  mutable stall_cycles : int;
  (* Telemetry-only classification counters: maintained only while the
     hierarchy has an attribution installed, so they are zero in a plain
     run.
     They refine — never replace — the counters above:
     [in_flight_demand_hits + sw_prefetch_late <= in_flight_hits]. *)
  mutable in_flight_demand_hits : int;
  mutable sw_prefetch_late : int;
  mutable sw_prefetch_useful : int;
  mutable sw_prefetch_redundant_hw : int;
  mutable hw_prefetch_useful : int;
}

let create () =
  {
    loads = 0;
    stores = 0;
    l1_load_misses = 0;
    l1_store_misses = 0;
    l2_load_misses = 0;
    l2_store_misses = 0;
    dtlb_load_misses = 0;
    dtlb_store_misses = 0;
    in_flight_hits = 0;
    sw_prefetches = 0;
    sw_prefetches_cancelled = 0;
    sw_prefetch_useless = 0;
    guarded_loads = 0;
    hw_prefetches = 0;
    retired_instructions = 0;
    cycles = 0;
    stall_cycles = 0;
    in_flight_demand_hits = 0;
    sw_prefetch_late = 0;
    sw_prefetch_useful = 0;
    sw_prefetch_redundant_hw = 0;
    hw_prefetch_useful = 0;
  }

(* The single canonical field list: one (name, getter, setter) triple per
   counter. [reset], [copy_into], [add] and the serializers below are all
   derived from it, so adding a counter means adding exactly one triple
   here (and the record field) — forgetting the triple is caught by the
   field-count unit test, which compares [List.length fields] against the
   runtime size of the record. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("loads", (fun t -> t.loads), fun t v -> t.loads <- v);
    ("stores", (fun t -> t.stores), fun t v -> t.stores <- v);
    ( "l1_load_misses",
      (fun t -> t.l1_load_misses),
      fun t v -> t.l1_load_misses <- v );
    ( "l1_store_misses",
      (fun t -> t.l1_store_misses),
      fun t v -> t.l1_store_misses <- v );
    ( "l2_load_misses",
      (fun t -> t.l2_load_misses),
      fun t v -> t.l2_load_misses <- v );
    ( "l2_store_misses",
      (fun t -> t.l2_store_misses),
      fun t v -> t.l2_store_misses <- v );
    ( "dtlb_load_misses",
      (fun t -> t.dtlb_load_misses),
      fun t v -> t.dtlb_load_misses <- v );
    ( "dtlb_store_misses",
      (fun t -> t.dtlb_store_misses),
      fun t v -> t.dtlb_store_misses <- v );
    ( "in_flight_hits",
      (fun t -> t.in_flight_hits),
      fun t v -> t.in_flight_hits <- v );
    ("sw_prefetches", (fun t -> t.sw_prefetches), fun t v -> t.sw_prefetches <- v);
    ( "sw_prefetches_cancelled",
      (fun t -> t.sw_prefetches_cancelled),
      fun t v -> t.sw_prefetches_cancelled <- v );
    ( "sw_prefetch_useless",
      (fun t -> t.sw_prefetch_useless),
      fun t v -> t.sw_prefetch_useless <- v );
    ("guarded_loads", (fun t -> t.guarded_loads), fun t v -> t.guarded_loads <- v);
    ("hw_prefetches", (fun t -> t.hw_prefetches), fun t v -> t.hw_prefetches <- v);
    ( "retired_instructions",
      (fun t -> t.retired_instructions),
      fun t v -> t.retired_instructions <- v );
    ("cycles", (fun t -> t.cycles), fun t v -> t.cycles <- v);
    ("stall_cycles", (fun t -> t.stall_cycles), fun t v -> t.stall_cycles <- v);
    ( "in_flight_demand_hits",
      (fun t -> t.in_flight_demand_hits),
      fun t v -> t.in_flight_demand_hits <- v );
    ( "sw_prefetch_late",
      (fun t -> t.sw_prefetch_late),
      fun t v -> t.sw_prefetch_late <- v );
    ( "sw_prefetch_useful",
      (fun t -> t.sw_prefetch_useful),
      fun t v -> t.sw_prefetch_useful <- v );
    ( "sw_prefetch_redundant_hw",
      (fun t -> t.sw_prefetch_redundant_hw),
      fun t v -> t.sw_prefetch_redundant_hw <- v );
    ( "hw_prefetch_useful",
      (fun t -> t.hw_prefetch_useful),
      fun t v -> t.hw_prefetch_useful <- v );
  ]

(* Counters that exist only when telemetry is enabled. Comparisons that
   must hold across a telemetry-on/off pair (golden tests, the fuzz
   oracle) compare [core_alist] only. *)
let telemetry_only =
  [
    "in_flight_demand_hits";
    "sw_prefetch_late";
    "sw_prefetch_useful";
    "sw_prefetch_redundant_hw";
    "hw_prefetch_useful";
  ]

let to_alist t = List.map (fun (name, get, _) -> (name, get t)) fields

let core_alist t =
  List.filter_map
    (fun (name, get, _) ->
      if List.mem name telemetry_only then None else Some (name, get t))
    fields

let reset t = List.iter (fun (_, _, set) -> set t 0) fields
let copy t = { t with loads = t.loads }
let copy_into t ~into = List.iter (fun (_, get, set) -> set into (get t)) fields

let add a b =
  let r = create () in
  List.iter (fun (_, get, set) -> set r (get a + get b)) fields;
  r

let delta a b =
  let r = create () in
  List.iter (fun (_, get, set) -> set r (get a - get b)) fields;
  r

let delta_into a b ~into =
  List.iter (fun (_, get, set) -> set into (get a - get b)) fields

let per_instruction t misses =
  if t.retired_instructions = 0 then 0.0
  else float_of_int misses /. float_of_int t.retired_instructions

let l1_load_mpi t = per_instruction t t.l1_load_misses
let l2_load_mpi t = per_instruction t t.l2_load_misses
let dtlb_load_mpi t = per_instruction t t.dtlb_load_misses

let pp ppf t =
  Format.fprintf ppf
    "@[<v>retired=%d cycles=%d (stall=%d)@,\
     loads=%d stores=%d@,\
     L1 load misses=%d  L2 load misses=%d  DTLB load misses=%d@,\
     sw prefetch=%d (cancelled=%d, useless=%d) guarded loads=%d hw \
     prefetch=%d@]"
    t.retired_instructions t.cycles t.stall_cycles t.loads t.stores
    t.l1_load_misses t.l2_load_misses t.dtlb_load_misses t.sw_prefetches
    t.sw_prefetches_cancelled t.sw_prefetch_useless t.guarded_loads
    t.hw_prefetches;
  if t.sw_prefetch_useful + t.sw_prefetch_late + t.in_flight_demand_hits > 0
  then
    Format.fprintf ppf
      "@,attributed: useful=%d late=%d (demand-shadowed in-flight=%d)"
      t.sw_prefetch_useful t.sw_prefetch_late t.in_flight_demand_hits

let pp_mpi ppf t =
  Format.fprintf ppf "L1 %.5f  L2 %.5f  DTLB %.5f" (l1_load_mpi t)
    (l2_load_mpi t) (dtlb_load_mpi t)
