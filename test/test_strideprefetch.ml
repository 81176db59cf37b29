(* Tests for the paper's algorithm: stride detection, LDG construction,
   object inspection, profitability, code generation, and the whole pass. *)

module SP = Strideprefetch
module B = Vm.Bytecode
module C = Vm.Classfile

let opts = SP.Options.default

(* --- options ------------------------------------------------------------- *)

let test_options_defaults_match_paper () =
  Alcotest.(check int) "20 inspected iterations" 20 opts.inspect_iterations;
  Alcotest.(check (float 1e-9)) "75% majority" 0.75 opts.majority;
  Alcotest.(check int) "scheduling distance 1" 1 opts.scheduling_distance;
  Alcotest.(check bool) "defaults validate" true
    (SP.Options.validate opts = Ok ())

let test_options_validation () =
  Alcotest.(check bool) "bad majority" true
    (Result.is_error (SP.Options.validate { opts with majority = 1.5 }));
  Alcotest.(check bool) "bad iterations" true
    (Result.is_error (SP.Options.validate { opts with inspect_iterations = 1 }))

let test_options_guarded_choice () =
  (* the paper used guarded loads on the Pentium 4 (64 DTLB entries) *)
  Alcotest.(check bool) "P4 guarded" true
    (SP.Options.use_guarded Memsim.Config.pentium4);
  Alcotest.(check bool) "Athlon hardware" false
    (SP.Options.use_guarded Memsim.Config.athlon_mp)

(* --- stride detection ---------------------------------------------------- *)

let test_dominant_majority_boundary () =
  (* 16 samples: 12 matching = exactly 75% -> accepted; 11 -> rejected *)
  let samples k = List.init 16 (fun i -> if i < k then 60 else 4 + i) in
  (match SP.Stride.dominant ~opts (samples 12) with
  | Some p ->
      Alcotest.(check int) "stride" 60 p.stride;
      Alcotest.(check int) "matched" 12 p.matched
  | None -> Alcotest.fail "75% must be accepted");
  Alcotest.(check bool) "below threshold rejected" true
    (SP.Stride.dominant ~opts (samples 11) = None)

let test_dominant_min_samples () =
  Alcotest.(check bool) "too few samples" true
    (SP.Stride.dominant ~opts [ 8; 8; 8 ] = None)

let test_inter_pattern () =
  let records = List.init 10 (fun i -> (i, 1000 + (i * 60))) in
  match SP.Stride.inter ~opts records with
  | Some p -> Alcotest.(check int) "constant stride" 60 p.stride
  | None -> Alcotest.fail "expected a pattern"

let test_inter_invariant () =
  let records = List.init 10 (fun i -> (i, 1000)) in
  match SP.Stride.inter ~opts records with
  | Some p -> Alcotest.(check bool) "invariant" true (SP.Stride.is_invariant p)
  | None -> Alcotest.fail "expected the invariant pattern"

let test_inter_irregular () =
  let addrs = [ 10; 500; 7; 2000; 90; 4; 777; 31; 5; 60000 ] in
  let records = List.mapi (fun i a -> (i, a)) addrs in
  Alcotest.(check bool) "no pattern in noise" true
    (SP.Stride.inter ~opts records = None)

let test_intra_pattern () =
  (* anchor at X_i, other at X_i + 28, across iterations; the anchors
     themselves are irregular *)
  let bases = [ 5000; 900; 77777; 1234; 870; 444444; 91; 5555 ] in
  let anchor = List.mapi (fun i b -> (i, b)) bases in
  let other = List.mapi (fun i b -> (i, b + 28)) bases in
  match SP.Stride.intra ~opts ~anchor ~other with
  | Some p -> Alcotest.(check int) "intra stride" 28 p.stride
  | None -> Alcotest.fail "expected intra pattern"

let test_intra_uses_first_execution_per_iteration () =
  (* second executions within an iteration must not pollute the pairing *)
  let anchor =
    List.concat_map (fun i -> [ (i, 1000 * i); (i, 1000 * i + 4) ])
      (List.init 8 Fun.id)
  in
  let other = List.init 8 (fun i -> (i, (1000 * i) + 16)) in
  match SP.Stride.intra ~opts ~anchor ~other with
  | Some p -> Alcotest.(check int) "paired with first" 16 p.stride
  | None -> Alcotest.fail "expected intra pattern"

let test_intra_negative_stride () =
  let bases = List.init 8 (fun i -> 10_000 + (i * 997)) in
  let anchor = List.mapi (fun i b -> (i, b)) bases in
  let other = List.mapi (fun i b -> (i, b - 200)) bases in
  match SP.Stride.intra ~opts ~anchor ~other with
  | Some p -> Alcotest.(check int) "negative stride" (-200) p.stride
  | None -> Alcotest.fail "expected intra pattern"

let prop_dominant_respects_majority =
  QCheck.Test.make ~name:"dominant stride really is the mode" ~count:100
    QCheck.(list_of_size Gen.(4 -- 40) (int_bound 5))
    (fun strides ->
      match SP.Stride.dominant ~opts strides with
      | None -> true
      | Some p ->
          let count v = List.length (List.filter (( = ) v) strides) in
          count p.stride = p.matched
          && List.for_all (fun s -> count s <= p.matched) strides
          && float_of_int p.matched
             >= opts.majority *. float_of_int (List.length strides))

(* --- profitability ------------------------------------------------------- *)

let test_inter_stride_ok_boundary () =
  Alcotest.(check bool) "half line rejected" false
    (SP.Profitability.inter_stride_ok ~line_bytes:128 64);
  Alcotest.(check bool) "above half accepted" true
    (SP.Profitability.inter_stride_ok ~line_bytes:128 65);
  Alcotest.(check bool) "negative strides count by magnitude" true
    (SP.Profitability.inter_stride_ok ~line_bytes:128 (-80));
  Alcotest.(check bool) "zero rejected" false
    (SP.Profitability.inter_stride_ok ~line_bytes:128 0)

let test_dedup_offsets () =
  Alcotest.(check (list int)) "close offsets collapse" [ 8 ]
    (SP.Profitability.dedup_offsets ~line_bytes:128 [ 8; 24; 44; 64 ]);
  Alcotest.(check (list int)) "far offsets survive" [ 8; 80; 200 ]
    (SP.Profitability.dedup_offsets ~line_bytes:128 [ 8; 80; 200 ]);
  Alcotest.(check (list int)) "first wins" [ 8 ]
    (SP.Profitability.dedup_offsets ~line_bytes:128 [ 8; 10 ])

let prop_dedup_pairwise_far =
  QCheck.Test.make ~name:"dedup keeps only pairwise-far offsets" ~count:100
    QCheck.(list_of_size Gen.(0 -- 20) (int_bound 500))
    (fun offsets ->
      let kept = SP.Profitability.dedup_offsets ~line_bytes:128 offsets in
      List.for_all
        (fun a ->
          List.for_all (fun b -> a = b || abs (a - b) >= 64) kept)
        kept
      && List.for_all (fun k -> List.mem k offsets) kept)

let test_has_dependents () =
  let code = [| B.Iconst 1; B.Pop; B.Return |] in
  Alcotest.(check bool) "followed by pop" false
    (SP.Profitability.has_dependents code ~pc:0);
  Alcotest.(check bool) "followed by use" true
    (SP.Profitability.has_dependents [| B.Iconst 1; B.Print; B.Return |] ~pc:0)

(* --- load dependence graph ----------------------------------------------- *)

(* the findInMemory-style chase: p.v[i].f *)
let chase_infos () =
  let code =
    [|
      (* 0 *) B.Aload 0;
      (* 1 *) B.Getfield { site = 0; offset = 8; name = "v"; is_ref = true };
      (* 2 *) B.Iload 1;
      (* 3 *) B.Aaload { len_site = 1; elem_site = 2 };
      (* 4 *) B.Getfield { site = 3; offset = 12; name = "f"; is_ref = false };
      (* 5 *) B.Ireturn;
    |]
  in
  Jit.Stack_model.analyze code ~arity:2
    ~callee_arity:(fun _ -> 0)
    ~callee_returns:(fun _ -> false)

let test_ldg_edges () =
  let ldg = SP.Ldg.build (chase_infos ()) ~sites:[ 0; 1; 2; 3 ] in
  Alcotest.(check (list int)) "v feeds len+elem" [ 1; 2 ] (SP.Ldg.succs ldg 0);
  Alcotest.(check (list int)) "elem feeds f" [ 3 ] (SP.Ldg.succs ldg 2);
  Alcotest.(check (list int)) "f's pred" [ 2 ] (SP.Ldg.preds ldg 3);
  Alcotest.(check int) "edge count" 3 (SP.Ldg.n_edges ldg)

let test_ldg_restriction () =
  (* excluding the element site cuts the chain *)
  let ldg = SP.Ldg.build (chase_infos ()) ~sites:[ 0; 3 ] in
  Alcotest.(check (list int)) "no edge without the middleman" []
    (SP.Ldg.succs ldg 0);
  Alcotest.(check bool) "membership" false (SP.Ldg.mem ldg 2)

let test_ldg_intra_reachability () =
  let ldg = SP.Ldg.build (chase_infos ()) ~sites:[ 0; 1; 2; 3 ] in
  let has_intra site = site = 3 in
  Alcotest.(check (list int)) "transitive intra set" [ 3 ]
    (SP.Ldg.reachable_by_intra ldg ~from:2 has_intra)

let test_ldg_dot () =
  let ldg = SP.Ldg.build (chase_infos ()) ~sites:[ 0; 1; 2; 3 ] in
  let dot = SP.Ldg.to_dot ldg ~labels:(Printf.sprintf "L%d") in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "edge rendered" true (contains dot "L2 -> L3")

(* --- object inspection --------------------------------------------------- *)

(* Build an interpreter with a populated heap and hand the kernel method to
   the inspector directly. *)
let jess_source =
  {|
class Vec {
  Tok[] v;
  int ptr;
  Vec(int cap) { v = new Tok[cap]; ptr = 0; }
  void add(Tok t) { v[ptr] = t; ptr = ptr + 1; }
}
class Tok {
  int[] facts;
  int size;
  Tok(int a) {
    facts = new int[4];
    facts[0] = a;
    size = 1;
  }
}
class Kernel {
  static int scan(Vec tv) {
    int acc = 0;
    for (int i = 0; i < tv.ptr; i = i + 1) {
      Tok tmp = tv.v[i];
      acc = acc + tmp.facts[0] + tmp.size;
    }
    return acc;
  }
  static void main() {
    Vec tv = new Vec(100);
    for (int i = 0; i < 80; i = i + 1) { tv.add(new Tok(i)); }
    print(Kernel.scan(tv));
  }
}
|}

(* Run main with a huge hot threshold (nothing compiles), then inspect
   [Kernel.scan] with the Vec object as the actual argument. *)
let setup_jess () =
  let program = Helpers.compile jess_source in
  let interp =
    Helpers.run_program ~hot_threshold:1_000_000 program
  in
  let meth = Option.get (C.find_method program "Kernel.scan") in
  (* find the Vec object: the only one of class id 0..; look up by class *)
  let heap = Vm.Interp.heap interp in
  let vec_class =
    (Option.get (C.find_class program "Vec")).C.class_id
  in
  let vec = ref None in
  Vm.Heap.iter_ids_in_address_order heap (fun id ->
      if Vm.Heap.class_id_of heap id = Some vec_class then vec := Some id);
  (interp, meth, Option.get !vec)

let inspect interp (meth : C.method_info) args =
  let cfg = Jit.Cfg.build meth.code in
  let forest = Jit.Loops.analyze cfg in
  let target = List.hd (Jit.Loops.postorder forest) in
  SP.Inspection.inspect
    ~program:(Vm.Interp.program interp)
    ~heap:(Vm.Interp.heap interp)
    ~globals:(Vm.Interp.global interp)
    ~opts ~cfg ~forest ~target ~meth ~args

let test_inspection_runs_twenty_iterations () =
  let interp, meth, vec = setup_jess () in
  let result = inspect interp meth [| Vm.Value.Ref vec |] in
  Alcotest.(check int) "budgeted iterations" opts.inspect_iterations
    result.iterations;
  Alcotest.(check bool) "did not exit naturally" false result.natural_exit

let test_inspection_discovers_strides () =
  let interp, meth, vec = setup_jess () in
  let result = inspect interp meth [| Vm.Value.Ref vec |] in
  (* the Tok objects are co-allocated: tmp's getfields must show constant
     inter-iteration strides; the element load of tv.v strides by 4 *)
  let strides =
    Array.to_list result.per_site
    |> List.filter_map (fun records -> SP.Stride.inter ~opts records)
    |> List.map (fun (p : SP.Stride.pattern) -> p.stride)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "element stride 4 present" true (List.mem 4 strides);
  Alcotest.(check bool) "some object-sized stride present" true
    (List.exists (fun s -> s > 16) strides)

let test_inspection_matches_real_execution () =
  (* addresses gathered by inspection = addresses of the real run *)
  let interp, meth, vec = setup_jess () in
  let inspected = inspect interp meth [| Vm.Value.Ref vec |] in
  let real : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  Vm.Interp.set_load_observer interp (fun ~method_id ~site ~addr ->
      if method_id = meth.C.method_id then
        Hashtbl.replace real site
          ((0, addr) :: Option.value ~default:[] (Hashtbl.find_opt real site)));
  ignore (Vm.Interp.call interp meth [| Vm.Value.Ref vec |]);
  Array.iteri
    (fun site records ->
      match records with
      | [] -> ()
      | _ ->
          let inspected_addrs = List.map snd records in
          let real_addrs =
            Option.value ~default:[] (Hashtbl.find_opt real site)
            |> List.rev_map snd
          in
          (* the inspected trace must be a prefix of the real trace *)
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: xs, y :: ys -> x = y && is_prefix xs ys
            | _ :: _, [] -> false
          in
          if not (is_prefix inspected_addrs real_addrs) then
            Alcotest.failf "site %d: inspected addresses diverge" site)
    inspected.per_site

let test_inspection_is_side_effect_free () =
  let interp, meth, vec = setup_jess () in
  let heap = Vm.Interp.heap interp in
  let objects_before = Vm.Heap.live_objects heap in
  let bytes_before = Vm.Heap.used_bytes heap in
  (* snapshot some reachable state *)
  let vec_ptr = Vm.Heap.get_field heap vec 1 in
  ignore (inspect interp meth [| Vm.Value.Ref vec |]);
  Alcotest.(check int) "no new objects" objects_before
    (Vm.Heap.live_objects heap);
  Alcotest.(check int) "no heap growth" bytes_before (Vm.Heap.used_bytes heap);
  Alcotest.(check bool) "fields untouched" true
    (Vm.Heap.get_field heap vec 1 = vec_ptr)

let test_inspection_side_effect_free_with_stores () =
  (* a kernel that stores into the heap on every iteration *)
  let source =
    {|
class Cell { int v; Cell(int x) { v = x; } }
class K {
  static int bump(Cell c, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      c.v = c.v + 1;
      acc = acc + c.v;
    }
    return acc;
  }
  static void main() {
    Cell c = new Cell(5);
    print(K.bump(c, 3));
  }
}
|}
  in
  let program = Helpers.compile source in
  let interp = Helpers.run_program ~hot_threshold:1_000_000 program in
  let meth = Option.get (C.find_method program "K.bump") in
  let heap = Vm.Interp.heap interp in
  let cell = ref None in
  Vm.Heap.iter_ids_in_address_order heap (fun id ->
      if Vm.Heap.class_id_of heap id <> None then cell := Some id);
  let cell = Option.get !cell in
  let before = Vm.Heap.get_field heap cell 0 in
  ignore (inspect interp meth [| Vm.Value.Ref cell; Vm.Value.Int 50 |]);
  Alcotest.(check bool) "store stayed in the write log" true
    (Vm.Heap.get_field heap cell 0 = before)

let test_inspection_write_log_read_back () =
  (* within the inspection, stores must be visible to later loads: the
     accumulated value equals the real execution's *)
  let source =
    {|
class Cell { int v; Cell(int x) { v = x; } }
class K {
  static int bump(Cell c, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      c.v = c.v + 1;
      acc = acc + c.v;
    }
    return acc;
  }
  static void main() { print(0); }
}
|}
  in
  let program = Helpers.compile source in
  let interp = Helpers.run_program ~hot_threshold:1_000_000 program in
  let meth = Option.get (C.find_method program "K.bump") in
  (* allocate a cell by hand *)
  let heap = Vm.Interp.heap interp in
  let cell_class = Option.get (C.find_class program "Cell") in
  let cell = Vm.Heap.alloc_object heap cell_class in
  Vm.Heap.set_field heap cell 0 (Vm.Value.Int 5);
  let result = inspect interp meth [| Vm.Value.Ref cell; Vm.Value.Int 50 |] in
  (* the loop exercises c.v (site for getfield v): iterations should all
     record the same address (loop-invariant) *)
  let nonempty =
    Array.to_list result.per_site |> List.filter (fun r -> r <> [])
  in
  Alcotest.(check bool) "loads recorded" true (nonempty <> []);
  Alcotest.(check bool) "ran full budget" true
    (result.iterations = opts.inspect_iterations)

let test_inspection_small_trip_detection () =
  let source =
    {|
class K {
  static int tiny(int[] a) {
    int acc = 0;
    for (int i = 0; i < 3; i = i + 1) { acc = acc + a[i]; }
    return acc;
  }
  static void main() {
    int[] a = new int[3];
    print(K.tiny(a));
  }
}
|}
  in
  let program = Helpers.compile source in
  let interp = Helpers.run_program ~hot_threshold:1_000_000 program in
  let meth = Option.get (C.find_method program "K.tiny") in
  let heap = Vm.Interp.heap interp in
  let arr = ref None in
  Vm.Heap.iter_ids_in_address_order heap (fun id ->
      if Vm.Heap.class_id_of heap id = None then arr := Some id);
  let result = inspect interp meth [| Vm.Value.Ref (Option.get !arr) |] in
  Alcotest.(check bool) "natural exit" true result.natural_exit;
  Alcotest.(check int) "three iterations" 3 result.iterations

let test_inspection_unknown_args () =
  (* inspecting with unknown (null) arguments must not blow up and must
     produce no addresses *)
  let interp, meth, _vec = setup_jess () in
  let result = inspect interp meth [| Vm.Value.Null |] in
  Alcotest.(check bool) "no records through null" true
    (Array.for_all (fun r -> r = []) result.per_site)

let test_inspection_step_budget () =
  let interp, meth, vec = setup_jess () in
  let tight = { opts with SP.Options.max_inspect_steps = 120 } in
  let cfg = Jit.Cfg.build meth.C.code in
  let forest = Jit.Loops.analyze cfg in
  let target = List.hd (Jit.Loops.postorder forest) in
  let result =
    SP.Inspection.inspect
      ~program:(Vm.Interp.program interp)
      ~heap:(Vm.Interp.heap interp)
      ~globals:(Vm.Interp.global interp)
      ~opts:tight ~cfg ~forest ~target ~meth
      ~args:[| Vm.Value.Ref vec |]
  in
  Alcotest.(check bool) "stopped within budget" true (result.steps <= 121)

(* --- codegen ------------------------------------------------------------- *)

let test_codegen_apply_retargets () =
  (* splice after instruction 1 inside a loop; the backedge must keep
     pointing at the loop header instruction *)
  let code =
    [|
      (* 0 *) B.Iconst 0;
      (* 1: header *) B.Dup;
      (* 2 *) B.Iconst 10;
      (* 3 *) B.If_icmp (B.Ge, 6);
      (* 4 *) B.Iconst 1;
      (* 5 *) B.Goto 1;
      (* 6 *) B.Return;
    |]
  in
  let plan =
    {
      SP.Codegen.actions =
        [
          {
            SP.Codegen.anchor_site = 0;
            anchor_pc = 1;
            kind = SP.Codegen.Prefetch_direct { distance = 64 };
          };
        ];
      rejected = [];
      regs_used = 0;
    }
  in
  let out = SP.Codegen.apply ~guarded:false code [ plan ] in
  Alcotest.(check int) "one instruction longer" 8 (Array.length out);
  (match out.(2) with
  | B.Prefetch_inter { site = 0; distance = 64 } -> ()
  | i -> Alcotest.failf "expected prefetch at 2, got %s" (B.to_string i));
  (* the backedge: originally Goto 1, the header did not move *)
  (match out.(6) with
  | B.Goto 1 -> ()
  | i -> Alcotest.failf "backedge retarget wrong: %s" (B.to_string i));
  (* the forward branch to 6 must now point at the shifted return *)
  match out.(4) with
  | B.If_icmp (B.Ge, 7) -> ()
  | i -> Alcotest.failf "forward retarget wrong: %s" (B.to_string i)

let test_codegen_deref_splice_shape () =
  let code = [| B.Iconst 0; B.Pop; B.Return |] in
  let plan =
    {
      SP.Codegen.actions =
        [
          {
            SP.Codegen.anchor_site = 2;
            anchor_pc = 0;
            kind =
              SP.Codegen.Prefetch_deref
                {
                  distance = 4;
                  reg = 0;
                  targets =
                    [
                      { SP.Codegen.target_site = 3; offset = 8; via_intra = false };
                      { SP.Codegen.target_site = 4; offset = 80; via_intra = true };
                    ];
                };
          };
        ];
      rejected = [];
      regs_used = 1;
    }
  in
  let out = SP.Codegen.apply ~guarded:true code [ plan ] in
  (* iconst; spec_load; prefetch(+8) hardware; prefetch(+80) guarded; ... *)
  (match out.(1) with
  | B.Spec_load { site = 2; distance = 4; reg = 0 } -> ()
  | i -> Alcotest.failf "expected spec_load, got %s" (B.to_string i));
  (match out.(2) with
  | B.Prefetch_indirect { guarded = false; offset = 8; _ } -> ()
  | i -> Alcotest.failf "deref target must be hardware form: %s" (B.to_string i));
  match out.(3) with
  | B.Prefetch_indirect { guarded = true; offset = 80; _ } -> ()
  | i -> Alcotest.failf "intra target must be guarded: %s" (B.to_string i)

(* --- the full pass ------------------------------------------------------- *)

let quickstart_source =
  {|
class Vec {
  Tok[] v;
  int ptr;
  Vec(int cap) { v = new Tok[cap]; ptr = 0; }
  void add(Tok t) { v[ptr] = t; ptr = ptr + 1; }
  void removeAt(int i) { ptr = ptr - 1; v[i] = v[ptr]; }
}
class Tok {
  int[] facts;
  int size;
  Tok(int a) { facts = new int[40]; facts[0] = a; size = 1; }
}
class Kernel {
  int scan(Vec tv) {
    int acc = 0;
    for (int i = 0; i < tv.ptr; i = i + 1) {
      Tok tmp = tv.v[i];
      acc = acc + tmp.facts[0] + tmp.size;
    }
    return acc;
  }
  static void main() {
    Vec tv = new Vec(400);
    for (int i = 0; i < 300; i = i + 1) { tv.add(new Tok(i)); }
    int seed = 12345;
    for (int i = 0; i < 900; i = i + 1) {
      seed = (seed * 1103515245 + 12345) % 1048576;
      if (seed < 0) { seed = 0 - seed; }
      tv.removeAt(seed % tv.ptr);
      tv.add(new Tok(i));
    }
    Kernel k = new Kernel();
    int acc = 0;
    for (int r = 0; r < 6; r = r + 1) { acc = acc + k.scan(tv); }
    print(acc);
  }
}
|}

let run_with_reports mode =
  let program = Helpers.compile quickstart_source in
  let opts = SP.Options.with_mode mode SP.Options.default in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  let reports = ref [] in
  let pipeline =
    Jit.Pipeline.create
      (Jit.Pipeline.standard_passes ()
      @ [
          SP.Pass.make_pass ~opts ~interp
            ~report_sink:(fun r -> reports := !reports @ r)
            ();
        ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  (Vm.Interp.output interp, !reports, program)

let test_pass_off_is_noop () =
  let _, reports, program = run_with_reports SP.Options.Off in
  Alcotest.(check int) "no reports" 0 (List.length reports);
  let m = Option.get (C.find_method program "Kernel.scan") in
  Alcotest.(check bool) "no prefetch instructions" true
    (Array.for_all
       (function
         | B.Prefetch_inter _ | B.Spec_load _ | B.Prefetch_indirect _ -> false
         | _ -> true)
       m.C.code)

let test_pass_generates_deref_prefetch () =
  let _, reports, program = run_with_reports SP.Options.Inter_intra in
  let m = Option.get (C.find_method program "Kernel.scan") in
  Alcotest.(check bool) "spec_load spliced" true
    (Array.exists (function B.Spec_load _ -> true | _ -> false) m.C.code);
  Alcotest.(check bool) "pref regs allocated" true (m.C.n_pref_regs > 0);
  let scan_reports =
    List.filter
      (fun (r : SP.Pass.loop_report) -> r.method_name = "Kernel.scan")
      reports
  in
  Alcotest.(check bool) "scan reported" true (scan_reports <> []);
  let report = List.hd scan_reports in
  Alcotest.(check bool) "deref action planned" true
    (List.exists
       (fun (a : SP.Codegen.action) ->
         match a.kind with SP.Codegen.Prefetch_deref _ -> true | _ -> false)
       report.plan.actions)

let test_pass_inter_mode_has_no_spec_load () =
  let _, _, program = run_with_reports SP.Options.Inter in
  let m = Option.get (C.find_method program "Kernel.scan") in
  Alcotest.(check bool) "no spec_load in INTER mode" true
    (Array.for_all (function B.Spec_load _ -> false | _ -> true) m.C.code)

let test_pass_preserves_output () =
  let off, _, _ = run_with_reports SP.Options.Off in
  let inter, _, _ = run_with_reports SP.Options.Inter in
  let both, _, _ = run_with_reports SP.Options.Inter_intra in
  Alcotest.(check string) "INTER output" off inter;
  Alcotest.(check string) "INTER+INTRA output" off both

let suite =
  [
    ("options: paper defaults", `Quick, test_options_defaults_match_paper);
    ("options: validation", `Quick, test_options_validation);
    ("options: guarded-load choice per machine", `Quick,
     test_options_guarded_choice);
    ("stride: 75% majority boundary", `Quick, test_dominant_majority_boundary);
    ("stride: minimum samples", `Quick, test_dominant_min_samples);
    ("stride: inter-iteration pattern", `Quick, test_inter_pattern);
    ("stride: loop-invariant detection", `Quick, test_inter_invariant);
    ("stride: noise has no pattern", `Quick, test_inter_irregular);
    ("stride: intra-iteration pattern", `Quick, test_intra_pattern);
    ("stride: intra uses first execution per iteration", `Quick,
     test_intra_uses_first_execution_per_iteration);
    ("stride: negative intra stride", `Quick, test_intra_negative_stride);
    Helpers.qtest prop_dominant_respects_majority;
    ("profitability: half-line rule", `Quick, test_inter_stride_ok_boundary);
    ("profitability: line dedup", `Quick, test_dedup_offsets);
    Helpers.qtest prop_dedup_pairwise_far;
    ("profitability: dependent-instruction check", `Quick, test_has_dependents);
    ("ldg: reference-chasing edges", `Quick, test_ldg_edges);
    ("ldg: restriction to loop sites", `Quick, test_ldg_restriction);
    ("ldg: transitive intra reachability", `Quick, test_ldg_intra_reachability);
    ("ldg: dot rendering", `Quick, test_ldg_dot);
    ("inspection: runs the 20-iteration budget", `Quick,
     test_inspection_runs_twenty_iterations);
    ("inspection: discovers strides", `Quick, test_inspection_discovers_strides);
    ("inspection: addresses match real execution", `Quick,
     test_inspection_matches_real_execution);
    ("inspection: side-effect free", `Quick, test_inspection_is_side_effect_free);
    ("inspection: stores stay in the write log", `Quick,
     test_inspection_side_effect_free_with_stores);
    ("inspection: write log is read back", `Quick,
     test_inspection_write_log_read_back);
    ("inspection: small trip count detected", `Quick,
     test_inspection_small_trip_detection);
    ("inspection: unknown arguments are safe", `Quick,
     test_inspection_unknown_args);
    ("inspection: step budget", `Quick, test_inspection_step_budget);
    ("codegen: splice retargets branches", `Quick, test_codegen_apply_retargets);
    ("codegen: deref splice shape and guarding", `Quick,
     test_codegen_deref_splice_shape);
    ("pass: Off is a no-op", `Quick, test_pass_off_is_noop);
    ("pass: deref prefetch generated end-to-end", `Quick,
     test_pass_generates_deref_prefetch);
    ("pass: INTER mode never uses spec_load", `Quick,
     test_pass_inter_mode_has_no_spec_load);
    ("pass: output preserved across modes", `Quick, test_pass_preserves_output);
  ]

(* --- inter-procedural object inspection (the Section 3.2 extension) ----- *)

let interproc_opts = { opts with SP.Options.inspect_calls = true }

let inspect_with opts interp (meth : C.method_info) args =
  let cfg = Jit.Cfg.build meth.code in
  let forest = Jit.Loops.analyze cfg in
  let target = List.hd (Jit.Loops.postorder forest) in
  SP.Inspection.inspect
    ~program:(Vm.Interp.program interp)
    ~heap:(Vm.Interp.heap interp)
    ~globals:(Vm.Interp.global interp)
    ~opts ~cfg ~forest ~target ~meth ~args

let callee_effect_source =
  {|
class Box { int bound; Box() { bound = 0; } }
class K {
  static void setBound(Box b, int v) { b.bound = v; }
  static int walk(Box b, int[] xs) {
    K.setBound(b, 50);
    int acc = 0;
    for (int i = 0; i < b.bound; i = i + 1) {
      acc = acc + xs[i % xs.length];
    }
    return acc;
  }
  static void main() {
    Box b = new Box();
    int[] xs = new int[64];
    print(K.walk(b, xs));
  }
}
|}

let setup_callee_effect () =
  let program = Helpers.compile callee_effect_source in
  let interp = Helpers.run_program ~hot_threshold:1_000_000 program in
  let meth = Option.get (C.find_method program "K.walk") in
  let heap = Vm.Interp.heap interp in
  let box = ref None and xs = ref None in
  Vm.Heap.iter_ids_in_address_order heap (fun id ->
      match Vm.Heap.class_id_of heap id with
      | Some _ -> box := Some id
      | None -> xs := Some id);
  (interp, meth, Option.get !box, Option.get !xs)

let test_interproc_callee_effects_visible () =
  let interp, meth, box, xs = setup_callee_effect () in
  let args = [| Vm.Value.Ref box; Vm.Value.Ref xs |] in
  (* flat mode: setBound is skipped, b.bound stays 0 in the write-log view
     (real heap value is 0 after main reset it... the real value is 50
     from the real run; reset it to 0 to make the effect observable) *)
  Vm.Heap.set_field (Vm.Interp.heap interp) box 0 (Vm.Value.Int 0);
  let flat = inspect_with opts interp meth args in
  Alcotest.(check int) "flat: loop never entered (bound unknown-0)" 0
    flat.iterations;
  let inter = inspect_with interproc_opts interp meth args in
  Alcotest.(check int) "inter-procedural: callee store visible"
    opts.inspect_iterations inter.iterations;
  (* and the real heap is still untouched *)
  Alcotest.(check bool) "real heap untouched" true
    (Vm.Heap.get_field (Vm.Interp.heap interp) box 0 = Vm.Value.Int 0)

let ctor_in_loop_source =
  {|
class Pt { int[] coords; Pt(int x) { coords = new int[6]; coords[0] = x; } }
class K {
  static int build(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      Pt p = new Pt(i);
      acc = acc + p.coords[0];
    }
    return acc;
  }
  static void main() { print(K.build(3)); }
}
|}

let test_interproc_constructor_in_loop () =
  let program = Helpers.compile ctor_in_loop_source in
  let interp = Helpers.run_program ~hot_threshold:1_000_000 program in
  let meth = Option.get (C.find_method program "K.build") in
  let args = [| Vm.Value.Int 1000 |] in
  (* flat: the constructor is skipped, p.coords is unknown -> the
     getfield through p records shadow addresses but coords loads miss *)
  let flat = inspect_with opts interp meth args in
  let flat_sites =
    Array.to_list flat.per_site |> List.filter (fun r -> r <> []) |> List.length
  in
  let inter = inspect_with interproc_opts interp meth args in
  let inter_sites =
    Array.to_list inter.per_site
    |> List.filter (fun r -> r <> [])
    |> List.length
  in
  Alcotest.(check bool) "inter-procedural records more sites" true
    (inter_sites > flat_sites);
  (* the freshly allocated objects live in the shadow bump allocator, so
     their loads show constant strides -- discoverable intra/inter
     patterns for allocation-in-loop code *)
  let strided =
    Array.to_list inter.per_site
    |> List.filter_map (fun records -> SP.Stride.inter ~opts records)
    |> List.filter (fun (p : SP.Stride.pattern) ->
           not (SP.Stride.is_invariant p))
  in
  Alcotest.(check bool) "shadow-heap strides discovered" true (strided <> []);
  Alcotest.(check bool) "no real allocation happened" true
    (Vm.Interp.gc_count interp = 0)

let recursion_source =
  {|
class K {
  static int deep(int n) {
    if (n <= 0) { return 0; }
    return 1 + K.deep(n - 1);
  }
  static int drive(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + K.deep(1000); }
    return acc;
  }
  static void main() { print(K.drive(2)); }
}
|}

let test_interproc_recursion_bounded () =
  let program = Helpers.compile recursion_source in
  let interp = Helpers.run_program ~hot_threshold:1_000_000 program in
  let meth = Option.get (C.find_method program "K.drive") in
  let result =
    inspect_with interproc_opts interp meth [| Vm.Value.Int 1000 |]
  in
  (* recursion depth is clamped by max_call_depth and the step budget;
     inspection must terminate and stay within budget *)
  Alcotest.(check bool) "terminates within budget" true
    (result.steps <= interproc_opts.max_inspect_steps + 1)

let interproc_suite =
  [
    ("inspection: callee effects visible inter-procedurally", `Quick,
     test_interproc_callee_effects_visible);
    ("inspection: constructor interpreted in shadow heap", `Quick,
     test_interproc_constructor_in_loop);
    ("inspection: recursion bounded", `Quick, test_interproc_recursion_bounded);
  ]

let suite = suite @ interproc_suite

(* --- phased multiple-stride extension (Wu) ------------------------------- *)

let phased_opts = { opts with SP.Options.enable_phased = true }

let test_phased_detection () =
  (* alternating strides 112 / 272, neither dominant alone *)
  let addrs =
    let rec build addr n acc =
      if n = 0 then List.rev acc
      else
        let step = if n mod 2 = 0 then 112 else 272 in
        build (addr + step) (n - 1) ((20 - n, addr) :: acc)
    in
    build 4096 16 []
  in
  Alcotest.(check bool) "no single pattern" true
    (SP.Stride.inter ~opts addrs = None);
  match SP.Stride.phased ~opts:phased_opts addrs with
  | [ a; b ] ->
      let strides = List.sort compare [ a.SP.Stride.stride; b.SP.Stride.stride ] in
      Alcotest.(check (list int)) "both phases found" [ 112; 272 ] strides
  | l -> Alcotest.failf "expected 2 phases, got %d" (List.length l)

let test_phased_rejects_single_and_noise () =
  let regular = List.init 12 (fun i -> (i, 1000 + (i * 60))) in
  Alcotest.(check bool) "single-stride load is not phased" true
    (SP.Stride.phased ~opts:phased_opts regular = []);
  let noise = List.mapi (fun i a -> (i, a)) [ 3; 999; 17; 40000; 2; 777; 31; 5 ] in
  Alcotest.(check bool) "noise is not phased" true
    (SP.Stride.phased ~opts:phased_opts noise = [])

let phased_workload_source =
  {|
class Obj { int v; int pad0; int pad1; Obj(int x) { v = x; pad0 = 0; pad1 = 0; } }
class K {
  static int scan(Obj[] objs) {
    int acc = 0;
    for (int i = 0; i < objs.length; i = i + 1) {
      acc = acc + objs[i].v;
    }
    return acc;
  }
  static void main() {
    Obj[] objs = new Obj[600];
    for (int i = 0; i < 600; i = i + 1) {
      objs[i] = new Obj(i);
      /* alternating-size garbage between objects: the scan's getfield
         strides alternate between two constants */
      if (i % 2 == 0) { int[] g = new int[20]; g[0] = i; }
      else { int[] g = new int[60]; g[0] = i; }
    }
    int acc = 0;
    for (int r = 0; r < 4; r = r + 1) { acc = (acc + K.scan(objs)) % 65536; }
    print(acc);
  }
}
|}

let run_phased enable =
  let program = Helpers.compile phased_workload_source in
  let o =
    { phased_opts with SP.Options.enable_phased = enable }
  in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  let pipeline =
    Jit.Pipeline.create
      (Jit.Pipeline.standard_passes ()
      @ [ SP.Pass.make_pass ~opts:o ~interp () ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  (Vm.Interp.output interp, program)

let test_phased_end_to_end () =
  let out_off, program_off = run_phased false in
  let out_on, program_on = run_phased true in
  Alcotest.(check string) "outputs agree" out_off out_on;
  let has_dynamic program =
    let m = Option.get (C.find_method program "K.scan") in
    Array.exists
      (function B.Prefetch_dynamic _ -> true | _ -> false)
      m.C.code
  in
  Alcotest.(check bool) "no dynamic prefetch when disabled" false
    (has_dynamic program_off);
  Alcotest.(check bool) "dynamic prefetch generated when enabled" true
    (has_dynamic program_on)

let phased_suite =
  [
    ("stride: phased multiple-stride detection", `Quick, test_phased_detection);
    ("stride: phased rejects single-stride and noise", `Quick,
     test_phased_rejects_single_and_noise);
    ("pass: phased dynamic prefetch end-to-end", `Quick, test_phased_end_to_end);
  ]

let suite = suite @ phased_suite

(* --- stride properties: majority boundary, min_samples gate, constant and
   negative traces, phased fraction edges (fuzzing-oracle satellites) ----- *)

let prop_dominant_exact_majority_boundary =
  (* for any sample count, exactly ceil(majority * n) matches is accepted
     and one fewer is rejected *)
  QCheck.Test.make ~name:"75% boundary holds for every sample count"
    ~count:60
    QCheck.(8 -- 64)
    (fun n ->
      let k = int_of_float (ceil (0.75 *. float_of_int n)) in
      let trace matches =
        List.init n (fun i -> if i < matches then 48 else 1000 + (977 * i))
      in
      let at = SP.Stride.dominant ~opts (trace k) in
      let under = SP.Stride.dominant ~opts (trace (k - 1)) in
      (match at with Some p -> p.stride = 48 && p.matched = k | None -> false)
      && under = None)

let test_dominant_min_samples_gate () =
  (* default min_samples is 4: four identical strides pass, three do not *)
  Alcotest.(check int) "default gate" 4 opts.min_samples;
  (match SP.Stride.dominant ~opts [ 24; 24; 24; 24 ] with
  | Some p ->
      Alcotest.(check int) "stride" 24 p.stride;
      Alcotest.(check int) "samples" 4 p.samples
  | None -> Alcotest.fail "min_samples exactly met must be accepted");
  Alcotest.(check bool) "one below the gate rejected" true
    (SP.Stride.dominant ~opts [ 24; 24; 24 ] = None);
  Alcotest.(check bool) "raised gate rejects" true
    (SP.Stride.dominant
       ~opts:{ opts with SP.Options.min_samples = 5 }
       [ 24; 24; 24; 24 ]
    = None)

let prop_inter_constant_address_is_invariant =
  QCheck.Test.make ~name:"constant-address trace -> stride-0 invariant"
    ~count:50
    QCheck.(pair (6 -- 30) (int_bound 100_000))
    (fun (n, addr) ->
      let records = List.init n (fun i -> (i, addr)) in
      match SP.Stride.inter ~opts records with
      | Some p -> p.stride = 0 && SP.Stride.is_invariant p
      | None -> false)

let prop_inter_negative_stride_detected =
  QCheck.Test.make ~name:"descending trace -> negative stride" ~count:50
    QCheck.(pair (6 -- 30) (1 -- 512))
    (fun (n, step) ->
      let top = 1_000_000 in
      let records = List.init n (fun i -> (i, top - (i * step))) in
      match SP.Stride.inter ~opts records with
      | Some p -> p.stride = -step && not (SP.Stride.is_invariant p)
      | None -> false)

let test_phased_fraction_boundary () =
  (* two phases at 70% / 20%: the 20% phase sits exactly on
     phased_min_fraction and must be kept; shaving it below the fraction
     kills the whole phased pattern (a lone 70% phase cannot reach the
     75% joint-majority requirement) *)
  Alcotest.(check (float 1e-9)) "default fraction" 0.2
    phased_opts.SP.Options.phased_min_fraction;
  let build strides =
    let _, rev =
      List.fold_left
        (fun (addr, acc) s -> (addr + s, (List.length acc, addr) :: acc))
        (4096, []) strides
    in
    List.rev rev
  in
  let strides_at =
    (* 20 strides: 14 x 112 (70%), 4 x 272 (20%), 2 unique noise *)
    List.init 14 (fun _ -> 112)
    @ List.init 4 (fun _ -> 272)
    @ [ 997; 1379 ]
  in
  (match SP.Stride.phased ~opts:phased_opts (build strides_at) with
  | [ _; _ ] as phases ->
      let ss =
        List.sort compare
          (List.map (fun (p : SP.Stride.pattern) -> p.stride) phases)
      in
      Alcotest.(check (list int)) "phases at the boundary" [ 112; 272 ] ss
  | l -> Alcotest.failf "expected 2 phases, got %d" (List.length l));
  let strides_under =
    (* 21 strides: the 272 phase drops to 4/21 < 20% *)
    List.init 15 (fun _ -> 112)
    @ List.init 4 (fun _ -> 272)
    @ [ 997; 1379 ]
  in
  Alcotest.(check bool) "under-fraction phase kills the pattern" true
    (SP.Stride.phased ~opts:phased_opts (build strides_under) = [])

(* --- LDG on handcrafted bytecode: chain, diamond, invariant base, pinned
   node/edge sets (fuzzing-oracle satellites) ----------------------------- *)

(* p.a.b.c: the three-level chain L0 -> L1 -> L2 *)
let chain_infos () =
  let code =
    [|
      B.Aload 0;
      B.Getfield { site = 0; offset = 8; name = "a"; is_ref = true };
      B.Getfield { site = 1; offset = 12; name = "b"; is_ref = true };
      B.Getfield { site = 2; offset = 16; name = "c"; is_ref = false };
      B.Ireturn;
    |]
  in
  Jit.Stack_model.analyze code ~arity:1
    ~callee_arity:(fun _ -> 0)
    ~callee_returns:(fun _ -> false)

let test_ldg_three_level_chain () =
  let ldg = SP.Ldg.build (chain_infos ()) ~sites:[ 0; 1; 2 ] in
  Alcotest.(check (list int)) "pinned node set" [ 0; 1; 2 ] (SP.Ldg.sites ldg);
  Alcotest.(check (list int)) "L0 -> L1" [ 1 ] (SP.Ldg.succs ldg 0);
  Alcotest.(check (list int)) "L1 -> L2" [ 2 ] (SP.Ldg.succs ldg 1);
  Alcotest.(check (list int)) "chain end" [] (SP.Ldg.succs ldg 2);
  Alcotest.(check (list int)) "L2's pred" [ 1 ] (SP.Ldg.preds ldg 2);
  Alcotest.(check (list int)) "root has no pred" [] (SP.Ldg.preds ldg 0);
  Alcotest.(check int) "exactly two edges" 2 (SP.Ldg.n_edges ldg);
  (* transitive intra reachability spans the whole chain *)
  Alcotest.(check (list int)) "chain reachable" [ 1; 2 ]
    (List.sort compare (SP.Ldg.reachable_by_intra ldg ~from:0 (fun _ -> true)))

(* h = p.h; a = h.a; b = h.b; c = b.c: one producer shared by two loads
   (the diamond), one of which continues the chain *)
let diamond_infos () =
  let code =
    [|
      B.Aload 0;
      B.Getfield { site = 0; offset = 8; name = "h"; is_ref = true };
      B.Dup;
      B.Getfield { site = 1; offset = 12; name = "a"; is_ref = true };
      B.Astore 1;
      B.Getfield { site = 2; offset = 16; name = "b"; is_ref = true };
      B.Getfield { site = 3; offset = 20; name = "c"; is_ref = false };
      B.Ireturn;
    |]
  in
  Jit.Stack_model.analyze code ~arity:1
    ~callee_arity:(fun _ -> 0)
    ~callee_returns:(fun _ -> false)

let test_ldg_diamond_sharing () =
  let ldg = SP.Ldg.build (diamond_infos ()) ~sites:[ 0; 1; 2; 3 ] in
  Alcotest.(check (list int)) "pinned node set" [ 0; 1; 2; 3 ]
    (SP.Ldg.sites ldg);
  Alcotest.(check (list int)) "shared producer fans out" [ 1; 2 ]
    (List.sort compare (SP.Ldg.succs ldg 0));
  Alcotest.(check (list int)) "left arm stops" [] (SP.Ldg.succs ldg 1);
  Alcotest.(check (list int)) "right arm continues" [ 3 ]
    (SP.Ldg.succs ldg 2);
  Alcotest.(check int) "exactly three edges" 3 (SP.Ldg.n_edges ldg);
  (* blocking the right arm keeps its continuation unreachable *)
  Alcotest.(check (list int)) "selective reachability" [ 1 ]
    (SP.Ldg.reachable_by_intra ldg ~from:0 (fun s -> s <> 2))

(* two loads through loop-invariant bases (distinct parameters): no edge
   may appear between them *)
let invariant_base_infos () =
  let code =
    [|
      B.Aload 0;
      B.Getfield { site = 0; offset = 8; name = "x"; is_ref = false };
      B.Aload 1;
      B.Getfield { site = 1; offset = 8; name = "y"; is_ref = false };
      B.Iadd;
      B.Ireturn;
    |]
  in
  Jit.Stack_model.analyze code ~arity:2
    ~callee_arity:(fun _ -> 0)
    ~callee_returns:(fun _ -> false)

let test_ldg_invariant_base_no_edge () =
  let ldg = SP.Ldg.build (invariant_base_infos ()) ~sites:[ 0; 1 ] in
  Alcotest.(check (list int)) "pinned node set" [ 0; 1 ] (SP.Ldg.sites ldg);
  Alcotest.(check int) "no edges at all" 0 (SP.Ldg.n_edges ldg);
  Alcotest.(check (list int)) "L0 isolated" [] (SP.Ldg.succs ldg 0);
  Alcotest.(check (list int)) "L1 isolated" [] (SP.Ldg.preds ldg 1)

let satellite_suite =
  [
    Helpers.qtest prop_dominant_exact_majority_boundary;
    ("stride: min_samples gate", `Quick, test_dominant_min_samples_gate);
    Helpers.qtest prop_inter_constant_address_is_invariant;
    Helpers.qtest prop_inter_negative_stride_detected;
    ("stride: phased fraction boundary", `Quick, test_phased_fraction_boundary);
    ("ldg: three-level chain pinned", `Quick, test_ldg_three_level_chain);
    ("ldg: diamond sharing pinned", `Quick, test_ldg_diamond_sharing);
    ("ldg: invariant bases stay isolated", `Quick,
     test_ldg_invariant_base_no_edge);
  ]

let suite = suite @ satellite_suite
