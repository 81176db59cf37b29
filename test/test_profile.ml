(* Tests for the object-centric profiler (lib/profile): the conservation
   law over a (machine x mode) matrix, observer-effect freedom (a
   profiled run is bit-identical to a plain one), sane bin and
   allocation-site attribution, and byte-identical determinism of the
   folded-stack / JSON exports — across repeated runs and across Domain
   pool sizes — allocation-free table hits, and the dense tables against
   a hash-table model under a random hook stream. *)

module H = Workloads.Harness
module W = Workloads.Workload
module SP = Strideprefetch
module R = Bench_runner.Runner

let chase =
  {
    W.name = "prof-chase";
    suite = `Specjvm;
    description = "profiler test fixture: pointer chase";
    paper_note = "";
    heap_limit_bytes = 4 * 1024 * 1024;
    source =
      {|
class Node {
  int v; int p1; int p2; int p3; int p4; int p5; int p6; int p7; int p8;
  int q1; int q2; int q3; int q4; int q5; int q6; int q7; int q8;
  Node next;
  Node(int x) { v = x; next = null; }
}
class Walker {
  int sweep(Node head) {
    int acc = 0;
    Node p = head;
    while (p != null) { acc = (acc + p.v) % 9973; p = p.next; }
    return acc;
  }
}
class T {
  static void main() {
    Node head = new Node(0);
    Node cur = head;
    for (int i = 1; i < 400; i = i + 1) {
      cur.next = new Node(i);
      cur = cur.next;
    }
    Walker w = new Walker();
    int acc = 0;
    for (int r = 0; r < 8; r = r + 1) { acc = w.sweep(head); }
    print(acc);
  }
}
|};
  }

let machines = [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ]
let modes = [ SP.Options.Off; SP.Options.Inter; SP.Options.Inter_intra ]

let profiled ?(machine = Memsim.Config.pentium4)
    ?(mode = SP.Options.Inter_intra) ?(opts = SP.Options.default) w =
  H.execute
    {
      (H.request w) with
      config = { Workloads.Run_config.default with machine; mode };
      opts;
      observers = { H.no_observers with profile = true };
    }

let report r = Option.get r.H.profile

(* Every cell of the little matrix must bin every cycle exactly once. *)
let test_conservation_matrix () =
  List.iter
    (fun machine ->
      List.iter
        (fun mode ->
          let r = profiled ~machine ~mode chase in
          let rep = report r in
          Alcotest.(check (option string))
            (Printf.sprintf "conservation %s/%s"
               machine.Memsim.Config.name (SP.Options.mode_name mode))
            None
            (Profile.Report.conservation_error rep);
          Alcotest.(check int)
            "report cycles = run cycles" r.H.cycles rep.Profile.Report.cycles)
        modes)
    machines

(* The profiler observes; it must not participate. *)
let test_observer_effect () =
  let plain = H.run ~mode:SP.Options.Inter_intra ~machine:Memsim.Config.pentium4 chase in
  let prof = profiled chase in
  Alcotest.(check string) "output" plain.H.output prof.H.output;
  Alcotest.(check int) "cycles" plain.H.cycles prof.H.cycles;
  List.iter2
    (fun (k, a) (k', b) ->
      Alcotest.(check string) "counter name" k k';
      Alcotest.(check int) ("core counter " ^ k) a b)
    (Memsim.Stats.core_alist plain.H.stats)
    (Memsim.Stats.core_alist prof.H.stats)

let test_bins_sane () =
  let r = profiled chase in
  let rep = report r in
  let t = rep.Profile.Report.totals in
  Alcotest.(check bool) "retire cycles recorded" true (t.Profile.Collector.b_retire > 0);
  Alcotest.(check bool) "alloc cycles recorded" true (t.Profile.Collector.b_alloc > 0);
  Alcotest.(check bool)
    "some memory stall recorded" true
    (t.Profile.Collector.b_l1 + t.Profile.Collector.b_l2
     + t.Profile.Collector.b_mem + t.Profile.Collector.b_tlb
    > 0);
  Alcotest.(check int) "totals + gc = cycles" rep.Profile.Report.cycles
    (Profile.Collector.bins_total t + rep.Profile.Report.gc_cycles);
  (* Hot rows exist, and each row's bins sum to its own total. *)
  Alcotest.(check bool) "pc rows nonempty" true (rep.Profile.Report.pcs <> []);
  List.iter
    (fun (row : Profile.Report.pc_row) ->
      Alcotest.(check int) "row total" row.row_total
        (Profile.Collector.bins_total row.bins))
    rep.Profile.Report.pcs

(* Object-centric attribution: the chase allocates 400 Nodes inside
   T.main and then stalls on them; the allocation sites must be
   attributed to T.main with the right object count. *)
let test_objects_attributed () =
  let r = profiled chase in
  let rep = report r in
  let main_rows =
    List.filter
      (fun (o : Profile.Report.obj_row) -> o.alloc_method = "T.main")
      rep.Profile.Report.objects
  in
  Alcotest.(check bool) "T.main allocation sites present" true
    (main_rows <> []);
  let allocs =
    List.fold_left
      (fun acc (o : Profile.Report.obj_row) -> acc + o.allocs)
      0 main_rows
  in
  (* 400 Nodes + 1 Walker, all allocated by T.main. *)
  Alcotest.(check int) "T.main's allocations attributed" 401 allocs;
  let stalls =
    List.fold_left
      (fun acc (o : Profile.Report.obj_row) -> acc + o.o_total)
      0 main_rows
  in
  Alcotest.(check bool) "chasing those Nodes stalled" true (stalls > 0)

(* The prefetching modes must show their overhead in the pf bin. *)
let test_pf_overhead_bin () =
  let off = report (profiled ~mode:SP.Options.Off chase) in
  let on = report (profiled ~mode:SP.Options.Inter_intra chase) in
  Alcotest.(check int)
    "no prefetch overhead at mode Off" 0
    off.Profile.Report.totals.Profile.Collector.b_pf;
  Alcotest.(check bool)
    "prefetch overhead appears at inter+intra" true
    (on.Profile.Report.totals.Profile.Collector.b_pf > 0)

(* check_invariants promotes the conservation laws to runtime asserts;
   a healthy run must pass through them silently. *)
let test_invariant_gate () =
  let opts = { SP.Options.default with SP.Options.check_invariants = true } in
  let r = profiled ~opts chase in
  Alcotest.(check bool) "run completed" true (String.length r.H.output > 0)

(* Byte determinism: same cell, two fresh runs, identical exports. *)
let test_determinism_two_runs () =
  let a = report (profiled chase) and b = report (profiled chase) in
  Alcotest.(check string) "folded stacks byte-identical"
    (Profile.Report.folded a) (Profile.Report.folded b);
  Alcotest.(check string) "JSON byte-identical"
    (Telemetry.Json.to_string (Profile.Report.to_json a))
    (Telemetry.Json.to_string (Profile.Report.to_json b))

(* ...and across Domain pool sizes: the profiled cells of a parallel
   matrix are byte-identical to the serial ones. *)
let test_determinism_jobs () =
  let cells =
    [
      R.cell ~profile:true chase Workloads.Run_config.default;
      R.cell ~profile:true chase
        {
          Workloads.Run_config.default with
          machine = Memsim.Config.athlon_mp;
          mode = SP.Options.Inter;
        };
    ]
  in
  let exports timed =
    List.map
      (fun (t : R.timed) ->
        let rep = Option.get t.result.H.profile in
        ( Profile.Report.folded rep,
          Telemetry.Json.to_string (Profile.Report.to_json rep) ))
      timed
  in
  let serial = exports (R.run_matrix ~jobs:1 cells)
  and parallel = exports (R.run_matrix ~jobs:2 cells) in
  List.iter2
    (fun (fa, ja) (fb, jb) ->
      Alcotest.(check string) "folded: jobs 1 = jobs 2" fa fb;
      Alcotest.(check string) "json: jobs 1 = jobs 2" ja jb)
    serial parallel

(* The folded export is well-formed flamegraph.pl input. *)
let test_folded_format () =
  let rep = report (profiled chase) in
  let folded = Profile.Report.folded rep in
  Alcotest.(check bool) "non-empty" true (String.length folded > 0);
  Alcotest.(check bool) "ends with newline" true
    (folded.[String.length folded - 1] = '\n');
  String.split_on_char '\n' folded
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "no count field: %S" line
         | Some i -> (
             let count = String.sub line (i + 1) (String.length line - i - 1) in
             match int_of_string_opt count with
             | Some n when n > 0 -> ()
             | _ -> Alcotest.failf "bad count in %S" line))

(* Every charge and stall of a profiled run hits the collector's tables,
   so once a key exists, reporting to it must allocate nothing. *)
let test_hit_allocates_nothing () =
  let h = Profile.Collector.hooks (Profile.Collector.create ()) in
  let on_cycles () =
    h.on_cycles ~method_id:3 ~pc:7 ~bin:Vm.Interp.Prof_retire ~cycles:1
  and on_stall () =
    h.on_stall ~method_id:3 ~pc:7 ~obj:(-1) ~tlb:1 ~l1:2 ~l2:0 ~mem:4
  in
  on_cycles ();
  on_stall ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    on_cycles ();
    on_stall ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10,000 hits" 0. words

(* The reference model for [Profile.Collector]: the same contract kept
   in hash tables — a packed (method, pc) table, an object id -> site
   array, a site table. *)
module Model = struct
  module C = Profile.Collector

  type t = {
    pcs : (int, C.bins) Hashtbl.t;
    mutable obj_site : int array;
    obj_sites : (int, C.obj_cell) Hashtbl.t;
    mutable gc : int;
  }

  let create () =
    {
      pcs = Hashtbl.create 16;
      obj_site = Array.make 16 (-1);
      obj_sites = Hashtbl.create 16;
      gc = 0;
    }

  let find_or_add tbl k fresh =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        let v = fresh () in
        Hashtbl.add tbl k v;
        v

  let zero_obj () : C.obj_cell =
    { allocs = 0; alloc_bytes = 0; o_tlb = 0; o_l1 = 0; o_l2 = 0; o_mem = 0 }

  let pc_bins t ~method_id ~pc =
    find_or_add t.pcs (C.key ~method_id ~pc) C.zero_bins

  let site_of_obj t obj =
    if obj >= 0 && obj < Array.length t.obj_site then t.obj_site.(obj) else -1

  let on_cycles t ~method_id ~pc ~bin ~cycles =
    let b = pc_bins t ~method_id ~pc in
    match (bin : Vm.Interp.prof_bin) with
    | Prof_retire -> b.b_retire <- b.b_retire + cycles
    | Prof_alloc -> b.b_alloc <- b.b_alloc + cycles
    | Prof_pf_overhead -> b.b_pf <- b.b_pf + cycles
    | Prof_guard_overhead -> b.b_guard <- b.b_guard + cycles

  let on_stall t ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem =
    let b = pc_bins t ~method_id ~pc in
    b.b_tlb <- b.b_tlb + tlb;
    b.b_l1 <- b.b_l1 + l1;
    b.b_l2 <- b.b_l2 + l2;
    b.b_mem <- b.b_mem + mem;
    let c = find_or_add t.obj_sites (site_of_obj t obj) zero_obj in
    c.o_tlb <- c.o_tlb + tlb;
    c.o_l1 <- c.o_l1 + l1;
    c.o_l2 <- c.o_l2 + l2;
    c.o_mem <- c.o_mem + mem

  let on_alloc t ~obj ~method_id ~pc ~bytes =
    let site = C.key ~method_id ~pc in
    let n = Array.length t.obj_site in
    if obj >= n then begin
      let grown = Array.make (max (2 * n) (obj + 1)) (-1) in
      Array.blit t.obj_site 0 grown 0 n;
      t.obj_site <- grown
    end;
    t.obj_site.(obj) <- site;
    let c = find_or_add t.obj_sites site zero_obj in
    c.allocs <- c.allocs + 1;
    c.alloc_bytes <- c.alloc_bytes + bytes

  let pc_cells t = Hashtbl.fold (fun k b acc -> (k, b) :: acc) t.pcs []
  let obj_cells t = Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.obj_sites []

  let total t =
    Hashtbl.fold (fun _ b acc -> acc + C.bins_total b) t.pcs t.gc
end

(* A seeded random hook stream, driven into the collector and the model
   alike. Method ids run past the first row table, pcs past the first
   row and past the 16 bits a key keeps (on a few methods, to bound the
   rows' size), object ids past the first object table with a gap
   (1,500 to 2,499) never allocated; allocations reuse earlier ids.
   With [~unattributed] stalls also name [-1] and ids never allocated;
   without it they name allocated ids only, so no [-1] cell may
   appear. *)
let check_tables_match_model ~seed ~unattributed =
  let module C = Profile.Collector in
  let rng = Random.State.make [| seed |] in
  let coll = C.create () and model = Model.create () in
  let h = C.hooks coll in
  let allocated = Array.make 30_000 0 and n_allocated = ref 0 in
  let next_obj = ref 0 in
  let method_pc () =
    let method_id = Random.State.int rng 160 in
    let pc =
      if method_id < 3 && Random.State.int rng 8 = 0 then
        65_000 + Random.State.int rng 2_000
      else Random.State.int rng 300
    in
    (method_id, pc)
  in
  for _ = 1 to 30_000 do
    let method_id, pc = method_pc () in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let bin : Vm.Interp.prof_bin =
          match Random.State.int rng 4 with
          | 0 -> Prof_retire
          | 1 -> Prof_alloc
          | 2 -> Prof_pf_overhead
          | _ -> Prof_guard_overhead
        in
        let cycles = Random.State.int rng 50 in
        h.on_cycles ~method_id ~pc ~bin ~cycles;
        Model.on_cycles model ~method_id ~pc ~bin ~cycles
    | 4 | 5 | 6 ->
        let obj =
          match Random.State.int rng 4 with
          | 0 when unattributed -> Some (-1)
          | 1 when unattributed -> Some (1_500 + Random.State.int rng 6_000)
          | _ when !n_allocated = 0 -> None
          | _ -> Some allocated.(Random.State.int rng !n_allocated)
        in
        let r () = Random.State.int rng 20 in
        let tlb = r () and l1 = r () and l2 = r () and mem = r () in
        Option.iter
          (fun obj ->
            h.on_stall ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem;
            Model.on_stall model ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem)
          obj
    | 7 | 8 ->
        let obj =
          if !next_obj > 0 && Random.State.int rng 4 = 0 then
            Random.State.int rng !next_obj
          else begin
            incr next_obj;
            !next_obj - 1 + (if !next_obj > 1_500 then 1_000 else 0)
          end
        in
        let bytes = 8 + Random.State.int rng 64 in
        allocated.(!n_allocated) <- obj;
        incr n_allocated;
        h.on_alloc ~obj ~method_id ~pc ~bytes;
        Model.on_alloc model ~obj ~method_id ~pc ~bytes
    | _ ->
        let cycles = Random.State.int rng 1_000 in
        h.on_gc ~cycles;
        model.gc <- model.gc + cycles
  done;
  let bins_row (k, (b : C.bins)) =
    Printf.sprintf "%d: %d %d %d %d %d %d %d %d" k b.b_retire b.b_tlb b.b_l1
      b.b_l2 b.b_mem b.b_pf b.b_guard b.b_alloc
  and obj_row (k, (c : C.obj_cell)) =
    Printf.sprintf "%d: %d %d %d %d %d %d" k c.allocs c.alloc_bytes c.o_tlb
      c.o_l1 c.o_l2 c.o_mem
  in
  let sorted rows cells = List.map rows (List.sort compare cells) in
  Alcotest.(check (list string))
    "pc_cells" (sorted bins_row (Model.pc_cells model))
    (sorted bins_row (C.pc_cells coll));
  Alcotest.(check (list string))
    "obj_cells" (sorted obj_row (Model.obj_cells model))
    (sorted obj_row (C.obj_cells coll));
  Alcotest.(check int) "total" (Model.total model) (C.total coll);
  Alcotest.(check bool) "unattributed cell present" unattributed
    (List.mem_assoc (-1) (C.obj_cells coll))

let test_tables_match_model () =
  check_tables_match_model ~seed:17 ~unattributed:true;
  check_tables_match_model ~seed:18 ~unattributed:false

let suite =
  [
    Alcotest.test_case "conservation law across machine x mode" `Slow
      test_conservation_matrix;
    Alcotest.test_case "profiling is observer-only" `Slow test_observer_effect;
    Alcotest.test_case "bins are sane and self-consistent" `Quick
      test_bins_sane;
    Alcotest.test_case "object-centric allocation-site attribution" `Quick
      test_objects_attributed;
    Alcotest.test_case "prefetch overhead lands in the pf bin" `Quick
      test_pf_overhead_bin;
    Alcotest.test_case "check-invariants gate passes on a healthy run" `Quick
      test_invariant_gate;
    Alcotest.test_case "exports byte-identical across runs" `Quick
      test_determinism_two_runs;
    Alcotest.test_case "exports byte-identical across Domain pools" `Slow
      test_determinism_jobs;
    Alcotest.test_case "folded stacks are well-formed" `Quick
      test_folded_format;
    Alcotest.test_case "table hits allocate nothing" `Quick
      test_hit_allocates_nothing;
    Alcotest.test_case "dense tables match the hash-table model" `Quick
      test_tables_match_model;
  ]
