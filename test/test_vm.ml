(* Unit and property tests for the mini-JVM: heap, GC, frames, bytecode,
   interpreter. *)

module B = Vm.Bytecode
module C = Vm.Classfile
module V = Vm.Value
module H = Vm.Heap

let point_class =
  C.make_class ~class_id:0 ~class_name:"Point"
    ~field_specs:[ ("x", false); ("y", false); ("next", true) ]

(* --- heap ---------------------------------------------------------------- *)

let test_heap_layout () =
  let h = H.create () in
  let id = H.alloc_object h point_class in
  Alcotest.(check int) "base at heap start" C.heap_base (H.base_of h id);
  Alcotest.(check int) "object size" (8 + (3 * 4)) (H.size_of h id);
  Alcotest.(check int) "field 0 addr" (C.heap_base + 8) (H.field_addr h id 0);
  Alcotest.(check int) "field 2 addr" (C.heap_base + 16) (H.field_addr h id 2);
  let arr = H.alloc_int_array h 5 in
  Alcotest.(check int) "array after object" (C.heap_base + 20) (H.base_of h arr);
  Alcotest.(check int) "length addr"
    (H.base_of h arr + 8)
    (H.length_addr h arr);
  Alcotest.(check int) "elem 0 addr"
    (H.base_of h arr + 12)
    (H.elem_addr h arr 0);
  Alcotest.(check int) "length" 5 (H.array_length h arr)

let test_heap_field_rw () =
  let h = H.create () in
  let id = H.alloc_object h point_class in
  Alcotest.(check bool) "zero-init" true (H.get_field h id 0 = V.Null);
  H.set_field h id 0 (V.Int 42);
  H.set_field h id 2 (V.Ref id);
  Alcotest.(check bool) "int field" true (H.get_field h id 0 = V.Int 42);
  Alcotest.(check bool) "ref field" true (H.get_field h id 2 = V.Ref id)

let test_heap_array_rw () =
  let h = H.create () in
  let a = H.alloc_int_array h 3 in
  H.set_elem h a 1 (V.Int 7);
  Alcotest.(check bool) "int elem" true (H.get_elem h a 1 = V.Int 7);
  let r = H.alloc_ref_array h 2 in
  H.set_elem h r 0 (V.Ref a);
  Alcotest.(check bool) "ref elem" true (H.get_elem h r 0 = V.Ref a);
  Alcotest.(check bool) "type confusion rejected" true
    (try
       H.set_elem h a 0 (V.Ref r);
       false
     with Invalid_argument _ -> true)

let test_heap_value_at () =
  let h = H.create () in
  let id = H.alloc_object h point_class in
  H.set_field h id 1 (V.Int 99);
  Alcotest.(check bool) "field readback" true
    (H.value_at h (H.field_addr h id 1) = Some (V.Int 99));
  Alcotest.(check bool) "header is opaque" true
    (H.value_at h (H.base_of h id) = None);
  Alcotest.(check bool) "unmapped address" true
    (H.value_at h (C.heap_base + 1_000_000) = None);
  let a = H.alloc_int_array h 4 in
  H.set_elem h a 2 (V.Int 5);
  Alcotest.(check bool) "array length via address" true
    (H.value_at h (H.length_addr h a) = Some (V.Int 4));
  Alcotest.(check bool) "array elem via address" true
    (H.value_at h (H.elem_addr h a 2) = Some (V.Int 5));
  Alcotest.(check bool) "misaligned is opaque" true
    (H.value_at h (H.elem_addr h a 2 + 1) = None)

let test_heap_out_of_memory () =
  let h = H.create ~limit_bytes:40 () in
  ignore (H.alloc_object h point_class);
  ignore (H.alloc_object h point_class);
  Alcotest.check_raises "third allocation fails" H.Out_of_memory (fun () ->
      ignore (H.alloc_object h point_class))

let test_heap_compact_slides_in_order () =
  let h = H.create () in
  let a = H.alloc_object h point_class in
  let b = H.alloc_object h point_class in
  let c = H.alloc_object h point_class in
  let size = H.size_of h a in
  (* drop b; a and c survive and slide together *)
  let result = Helpers.collect h [ V.Ref a; V.Ref c ] in
  Alcotest.(check int) "one removed" 1 result.collected;
  Alcotest.(check bool) "b gone" false (H.exists h b);
  Alcotest.(check int) "a stays at base" C.heap_base (H.base_of h a);
  Alcotest.(check int) "c slides next to a" (C.heap_base + size)
    (H.base_of h c);
  Alcotest.(check int) "two live" 2 (H.live_objects h)

let prop_heap_addresses_ascending =
  QCheck.Test.make ~name:"heap: allocation order = address order" ~count:50
    QCheck.(list_of_size Gen.(1 -- 30) (QCheck.int_range 0 20))
    (fun sizes ->
      let h = H.create () in
      let ids = List.map (fun n -> H.alloc_int_array h n) sizes in
      let bases = List.map (H.base_of h) ids in
      List.sort compare bases = bases
      && List.length (List.sort_uniq compare bases) = List.length bases)

let prop_value_at_roundtrip =
  QCheck.Test.make ~name:"heap: value_at agrees with get_elem" ~count:100
    QCheck.(pair (QCheck.int_range 1 20) QCheck.small_int)
    (fun (len, v) ->
      let h = H.create () in
      let a = H.alloc_int_array h len in
      let i = abs v mod len in
      H.set_elem h a i (V.Int v);
      H.value_at h (H.elem_addr h a i) = Some (V.Int v))

(* --- gc ------------------------------------------------------------------ *)

let test_gc_reclaims_garbage () =
  let h = H.create () in
  let keep = H.alloc_object h point_class in
  let dead = H.alloc_object h point_class in
  let child = H.alloc_int_array h 4 in
  H.set_field h keep 2 (V.Ref child);
  let result = Helpers.collect h [ V.Ref keep ] in
  Alcotest.(check int) "collected" 1 result.collected;
  Alcotest.(check int) "live" 2 result.live;
  Alcotest.(check bool) "keep survives" true (H.exists h keep);
  Alcotest.(check bool) "child survives (transitively)" true
    (H.exists h child);
  Alcotest.(check bool) "dead reclaimed" false (H.exists h dead)

let test_gc_handles_cycles () =
  let h = H.create () in
  let a = H.alloc_object h point_class in
  let b = H.alloc_object h point_class in
  H.set_field h a 2 (V.Ref b);
  H.set_field h b 2 (V.Ref a);
  (* the cycle is garbage *)
  let result = Helpers.collect h [] in
  Alcotest.(check int) "cycle collected" 2 result.collected

let test_gc_preserves_strides () =
  (* The paper's GC property: sliding compaction preserves the relative
     order, so constant strides among surviving neighbours persist. *)
  let h = H.create () in
  let objs = Array.init 10 (fun _ -> H.alloc_object h point_class) in
  (* keep every second object *)
  let roots =
    Array.to_list objs
    |> List.filteri (fun i _ -> i mod 2 = 0)
    |> List.map (fun id -> V.Ref id)
  in
  ignore (Helpers.collect h roots);
  let survivors =
    Array.to_list objs |> List.filter (H.exists h) |> List.map (H.base_of h)
  in
  let rec strides = function
    | a :: (b :: _ as rest) -> (b - a) :: strides rest
    | [ _ ] | [] -> []
  in
  let ss = strides survivors in
  Alcotest.(check bool) "constant stride among survivors" true
    (ss <> [] && List.for_all (fun s -> s = List.hd ss) ss)

(* --- frame --------------------------------------------------------------- *)

let dummy_method code =
  C.make_method ~method_id:0 ~method_name:"T.m" ~arity:2 ~returns_value:false
    ~max_locals:4 ~code

(* The operand-stack primitives live in [Engine], shared by both loops. *)
let test_frame_push_pop () =
  let f =
    Vm.Frame.create (dummy_method [| B.Return |]) ~args:[| V.Int 1; V.Null |]
  in
  Vm.Engine.push f (V.Int 5);
  Vm.Engine.push f (V.Ref 0);
  Alcotest.(check bool) "peek" true (Vm.Engine.peek f = V.Ref 0);
  Alcotest.(check bool) "pop" true (Vm.Engine.pop f = V.Ref 0);
  Alcotest.(check int) "pop_int" 5 (Vm.Engine.pop_int f);
  Alcotest.check_raises "underflow"
    (Vm.Frame.Stack_error "operand stack underflow in T.m") (fun () ->
      ignore (Vm.Engine.pop f))

(* Each raising path must raise the same error on either engine, at the
   same instruction: the rows cover every [Stack_error] and every
   [Vm_error] an instruction body raises, including underflow on a
   consumer entered with the closure engine's top-of-stack cache empty
   and overflow on [Dup] with the top cached at [max_stack - 1]. *)
let test_frame_stack_errors_agree () =
  let stack_error engine code =
    let program = Helpers.program_of_code code in
    let machine = Memsim.Config.pentium4 in
    let options = { (Vm.Interp.default_options machine) with engine } in
    match Vm.Interp.run (Vm.Interp.create ~options machine program) with
    | _ -> Alcotest.failf "%s: no stack error" (Vm.Interp.engine_name engine)
    | exception Vm.Frame.Stack_error msg -> msg
    | exception Vm.Interp.Vm_error msg -> msg
  in
  let getfield = B.Getfield { site = 0; offset = 8; name = "f"; is_ref = false } in
  let cases =
    [
      ("underflow on pop", [| B.Pop; B.Return |], "operand stack underflow in T.main");
      ("underflow on dup", [| B.Dup; B.Return |], "operand stack underflow in T.main");
      ( "ref where an int is expected",
        [| B.Iconst 1; B.Newarray B.Int_array; B.Iconst 1; B.Iadd; B.Return |],
        "expected int on stack in T.main, got " );
      ( "push past max_stack",
        Array.append
          (Array.make (Vm.Frame.max_stack + 1) (B.Iconst 0))
          [| B.Return |],
        "operand stack overflow in T.main" );
      ( "division by zero",
        [| B.Iconst 1; B.Iconst 0; B.Idiv; B.Return |],
        "division by zero in T.main" );
      ( "remainder by zero",
        [| B.Iconst 1; B.Iconst 0; B.Irem; B.Return |],
        "division by zero in T.main" );
      ( "null dereference",
        [| B.Aconst_null; getfield; B.Return |],
        "null pointer dereference in T.main" );
      ( "int used as a reference",
        [| B.Iconst 3; getfield; B.Return |],
        "integer used as reference in T.main" );
      ( "array index out of bounds",
        [|
          B.Iconst 2; B.Newarray B.Int_array; B.Iconst 5;
          B.Iaload { len_site = 0; elem_site = 1 }; B.Return;
        |],
        "array index 5 out of bounds [0,2) in T.main" );
      ( "negative array size",
        [| B.Iconst (-1); B.Newarray B.Int_array; B.Return |],
        "negative array size in T.main" );
      ( "underflow on a consumer entered with the cache empty",
        [| B.Goto 1; B.Iadd; B.Return |],
        "operand stack underflow in T.main" );
      ( "overflow on dup with the top cached at max_stack - 1",
        Array.append
          (Array.make Vm.Frame.max_stack (B.Iconst 0))
          [| B.Dup; B.Return |],
        "operand stack overflow in T.main" );
    ]
  in
  List.iter
    (fun (label, code, prefix) ->
      let switch = stack_error Vm.Interp.Switch code
      and closure = stack_error Vm.Interp.Closure code in
      Alcotest.(check bool)
        (label ^ ": " ^ switch) true
        (String.starts_with ~prefix switch);
      Alcotest.(check string) (label ^ ": closure = switch") switch closure)
    cases

let test_frame_args_in_locals () =
  let f =
    Vm.Frame.create (dummy_method [| B.Return |]) ~args:[| V.Int 7; V.Ref 3 |]
  in
  Alcotest.(check bool) "arg 0" true (f.Vm.Frame.locals.(0) = V.Int 7);
  Alcotest.(check bool) "arg 1" true (f.Vm.Frame.locals.(1) = V.Ref 3);
  let roots = ref [] in
  Vm.Frame.iter_roots f (fun v -> roots := v :: !roots);
  Alcotest.(check bool) "roots include args" true (List.mem (V.Ref 3) !roots)

(* --- bytecode ------------------------------------------------------------ *)

let test_bytecode_sites () =
  let gf = B.Getfield { site = 3; offset = 8; name = "f"; is_ref = true } in
  Alcotest.(check bool) "getfield site" true (B.site_of gf = Some 3);
  let aa = B.Aaload { len_site = 1; elem_site = 2 } in
  Alcotest.(check bool) "aaload sites" true (B.all_sites aa = [ 1; 2 ]);
  Alcotest.(check bool) "iadd no site" true (B.site_of B.Iadd = None)

let test_bytecode_branch_helpers () =
  Alcotest.(check bool) "goto target" true (B.branch_target (B.Goto 7) = Some 7);
  Alcotest.(check bool) "terminator" true (B.is_terminator (B.Goto 7));
  Alcotest.(check bool) "conditional not terminator" false
    (B.is_terminator (B.If (B.Eq, 3)));
  Alcotest.(check bool) "return" true (B.is_return B.Ireturn)

let test_bytecode_printer_total () =
  Helpers.check_every_instr_complete ();
  List.iter
    (fun i -> Alcotest.(check bool) "nonempty" true (B.to_string i <> ""))
    (B.Newarray B.Ref_array :: Helpers.every_instr)

(* --- interpreter --------------------------------------------------------- *)

let run_code ?(max_locals = 8) code =
  Helpers.run_program (Helpers.program_of_code ~max_locals code)

let test_interp_arith () =
  let interp =
    run_code [| B.Iconst 6; B.Iconst 7; B.Imul; B.Print; B.Return |]
  in
  Alcotest.(check string) "6*7" "42\n" (Vm.Interp.output interp)

let test_interp_division_by_zero () =
  Alcotest.check_raises "div by zero"
    (Vm.Interp.Vm_error "division by zero in T.main") (fun () ->
      ignore (run_code [| B.Iconst 1; B.Iconst 0; B.Idiv; B.Return |]))

let test_interp_branches () =
  (* if (3 < 5) print 1 else print 0 *)
  let code =
    [|
      B.Iconst 3; B.Iconst 5; B.If_icmp (B.Lt, 5); B.Iconst 0; B.Goto 6;
      B.Iconst 1; B.Print; B.Return;
    |]
  in
  Alcotest.(check string) "taken" "1\n" (Vm.Interp.output (run_code code))

let test_interp_arrays_and_bounds () =
  let code =
    [|
      B.Iconst 3; B.Newarray B.Int_array; B.Astore 0;
      B.Aload 0; B.Iconst 1; B.Iconst 9; B.Iastore { len_site = 0 };
      B.Aload 0; B.Iconst 1; B.Iaload { len_site = 1; elem_site = 2 };
      B.Print; B.Return;
    |]
  in
  Alcotest.(check string) "store/load" "9\n" (Vm.Interp.output (run_code code));
  let oob =
    [|
      B.Iconst 2; B.Newarray B.Int_array; B.Iconst 5;
      B.Iaload { len_site = 0; elem_site = 1 }; B.Return;
    |]
  in
  Alcotest.check_raises "bounds"
    (Vm.Interp.Vm_error "array index 5 out of bounds [0,2) in T.main")
    (fun () -> ignore (run_code oob))

let test_interp_null_deref () =
  let code =
    [|
      B.Aconst_null;
      B.Getfield { site = 0; offset = 8; name = "f"; is_ref = false };
      B.Return;
    |]
  in
  Alcotest.check_raises "null"
    (Vm.Interp.Vm_error "null pointer dereference in T.main") (fun () ->
      ignore (run_code code))

let test_interp_gc_triggered () =
  let source =
    {|
class A {
  int x;
  A(int v) { x = v; }
  static void main() {
    int acc = 0;
    for (int i = 0; i < 5000; i = i + 1) {
      A a = new A(i);
      acc = (acc + a.x) % 1000;
    }
    print(acc);
  }
}
|}
  in
  let program = Helpers.compile source in
  let machine = Memsim.Config.pentium4 in
  let options =
    {
      (Vm.Interp.default_options machine) with
      Vm.Interp.heap_limit_bytes = 8192;
    }
  in
  let interp = Vm.Interp.create ~options machine program in
  ignore (Vm.Interp.run interp);
  Alcotest.(check bool) "collected at least once" true
    (Vm.Interp.gc_count interp > 0);
  (* sum of 0..4999 mod 1000, folded stepwise *)
  Alcotest.(check bool) "produced a result" true
    (Vm.Interp.output interp <> "")

let test_interp_site_addresses_recorded () =
  let seen = ref [] in
  let source =
    {|
class P {
  int v;
  P(int x) { v = x; }
  static void main() {
    P p = new P(3);
    print(p.v);
  }
}
|}
  in
  let program = Helpers.compile source in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  Vm.Interp.set_load_observer interp (fun ~method_id ~site ~addr ->
      seen := (method_id, site, addr) :: !seen);
  ignore (Vm.Interp.run interp);
  Alcotest.(check bool) "observed at least one load" true (!seen <> [])

let test_interp_prefetch_instructions () =
  let code =
    [|
      B.Iconst 4; B.Newarray B.Int_array; B.Astore 0;
      B.Aload 0; B.Iconst 0; B.Iaload { len_site = 0; elem_site = 1 }; B.Pop;
      B.Prefetch_inter { site = 1; distance = 64 };
      B.Spec_load { site = 1; distance = 0; reg = 0 };
      B.Prefetch_indirect { reg = 0; offset = 8; guarded = true };
      B.Return;
    |]
  in
  let program = Helpers.program_of_code code in
  program.methods.(0).C.n_pref_regs <- 1;
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  ignore (Vm.Interp.run interp);
  let stats = Vm.Interp.stats interp in
  Alcotest.(check int) "one sw prefetch" 1 stats.Memsim.Stats.sw_prefetches;
  (* spec_load counts as a guarded load; its result is an Int (a[0] = 0),
     so the indirect prefetch through it is skipped *)
  Alcotest.(check int) "one guarded load" 1 stats.Memsim.Stats.guarded_loads

let test_interp_spec_load_reads_pointer () =
  let code =
    [|
      B.New 0; B.Astore 0;
      B.Iconst 1; B.Newarray B.Ref_array; B.Astore 1;
      B.Aload 1; B.Iconst 0; B.Aload 0; B.Aastore { len_site = 0 };
      B.Aload 1; B.Iconst 0; B.Aaload { len_site = 1; elem_site = 2 }; B.Pop;
      B.Spec_load { site = 2; distance = 0; reg = 0 };
      B.Prefetch_indirect { reg = 0; offset = 8; guarded = true };
      B.Return;
    |]
  in
  let m =
    C.make_method ~method_id:0 ~method_name:"T.main" ~arity:0
      ~returns_value:false ~max_locals:4 ~code
  in
  m.C.n_pref_regs <- 1;
  let program =
    {
      C.classes = [| point_class |];
      methods = [| m |];
      statics = [||];
      entry = 0;
    }
  in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  ignore (Vm.Interp.run interp);
  let stats = Vm.Interp.stats interp in
  (* the spec_load returned Ref point, so the indirect guarded prefetch
     also executed: two guarded loads in total *)
  Alcotest.(check int) "spec_load + indirect guarded" 2
    stats.Memsim.Stats.guarded_loads

let test_interp_statics () =
  let source =
    {|
class G {
  static int counter;
  static void main() {
    G.counter = 5;
    G.counter = G.counter + 2;
    print(G.counter);
  }
}
|}
  in
  Alcotest.(check string) "statics" "7\n" (Helpers.output_of source)

let test_interp_compile_hook_receives_args () =
  let captured = ref None in
  let source =
    {|
class K {
  static int twice(int x) { return x + x; }
  static void main() {
    int acc = 0;
    for (int i = 0; i < 5; i = i + 1) { acc = acc + K.twice(21); }
    print(acc);
  }
}
|}
  in
  let program = Helpers.compile source in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      if m.C.method_name = "K.twice" then captured := Some (Array.copy args));
  ignore (Vm.Interp.run interp);
  match !captured with
  | Some [| V.Int 21 |] -> ()
  | Some args ->
      Alcotest.failf "unexpected args: %s"
        (String.concat "," (Array.to_list args |> List.map V.to_string))
  | None -> Alcotest.fail "hook never fired for K.twice"

let test_classfile_reset () =
  let program =
    Helpers.compile "class A { static void main() { print(1); } }"
  in
  let m = program.C.methods.(program.C.entry) in
  m.C.compiled <- true;
  m.C.invocations <- 10;
  let original_len = Array.length m.C.code in
  m.C.code <- [| B.Return |];
  C.reset_program program;
  Alcotest.(check bool) "not compiled" false m.C.compiled;
  Alcotest.(check int) "invocations zeroed" 0 m.C.invocations;
  Alcotest.(check int) "code restored" original_len (Array.length m.C.code)

let suite =
  [
    ("heap: 2003-style layout", `Quick, test_heap_layout);
    ("heap: field read/write", `Quick, test_heap_field_rw);
    ("heap: array read/write", `Quick, test_heap_array_rw);
    ("heap: value_at address map", `Quick, test_heap_value_at);
    ("heap: out of memory", `Quick, test_heap_out_of_memory);
    ("heap: compaction slides in order", `Quick,
     test_heap_compact_slides_in_order);
    Helpers.qtest prop_heap_addresses_ascending;
    Helpers.qtest prop_value_at_roundtrip;
    ("gc: reclaims garbage, keeps reachable", `Quick, test_gc_reclaims_garbage);
    ("gc: collects cycles", `Quick, test_gc_handles_cycles);
    ("gc: compaction preserves strides", `Quick, test_gc_preserves_strides);
    ("frame: push/pop/underflow", `Quick, test_frame_push_pop);
    ("frame: stack errors match on both engines", `Quick,
      test_frame_stack_errors_agree);
    ("frame: arguments land in locals", `Quick, test_frame_args_in_locals);
    ("bytecode: load sites", `Quick, test_bytecode_sites);
    ("bytecode: branch helpers", `Quick, test_bytecode_branch_helpers);
    ("bytecode: printer is total", `Quick, test_bytecode_printer_total);
    ("interp: arithmetic", `Quick, test_interp_arith);
    ("interp: division by zero", `Quick, test_interp_division_by_zero);
    ("interp: branches", `Quick, test_interp_branches);
    ("interp: arrays and bounds checks", `Quick, test_interp_arrays_and_bounds);
    ("interp: null dereference", `Quick, test_interp_null_deref);
    ("interp: GC triggered under pressure", `Quick, test_interp_gc_triggered);
    ("interp: load sites observed", `Quick, test_interp_site_addresses_recorded);
    ("interp: prefetch pseudo-instructions", `Quick,
     test_interp_prefetch_instructions);
    ("interp: spec_load reads the future pointer", `Quick,
     test_interp_spec_load_reads_pointer);
    ("interp: statics", `Quick, test_interp_statics);
    ("interp: compile hook gets actual arguments", `Quick,
     test_interp_compile_hook_receives_args);
    ("classfile: reset_program", `Quick, test_classfile_reset);
  ]

(* --- model-based property tests: GC reachability -------------------------- *)

(* Two reference fields, so an object can have several out-edges. *)
let pair_class =
  C.make_class ~class_id:1 ~class_name:"Pair"
    ~field_specs:[ ("a", true); ("b", true) ]

let classes = [| point_class; pair_class |]

(* Every field or element of a heap object, as values. *)
let slots h id =
  match H.class_id_of h id with
  | Some c -> List.init (Array.length classes.(c).C.fields) (H.get_field h id)
  | None -> List.init (H.array_length h id) (H.get_elem h id)

type prediction = {
  bases : (int * int) list;  (** surviving id, base after compaction *)
  collected : int;
  live_bytes : int;
}

(* Test-only reference collector: a Hashtbl mark set and a list worklist.
   Read from the heap before a collection, it predicts the survivors and
   their bases (sliding in address order), [collected] and [live_bytes]. *)
let reference_collect h roots =
  let marked = Hashtbl.create 64 and stack = ref [] in
  let push = function
    | V.Ref id when H.exists h id && not (Hashtbl.mem marked id) ->
        Hashtbl.replace marked id ();
        stack := id :: !stack
    | V.Ref _ | V.Int _ | V.Null -> ()
  in
  List.iter push roots;
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        List.iter push (slots h id);
        drain ()
  in
  drain ();
  let order = ref [] in
  H.iter_ids_in_address_order h (fun id -> order := id :: !order);
  let cursor = ref C.heap_base and bases = ref [] and dead = ref 0 in
  List.iter
    (fun id ->
      if Hashtbl.mem marked id then begin
        bases := (id, !cursor) :: !bases;
        cursor := !cursor + H.size_of h id
      end
      else incr dead)
    (List.rev !order);
  {
    bases = List.rev !bases;
    collected = !dead;
    live_bytes = !cursor - C.heap_base;
  }

(* The ids in [ids] still alive, each with its base. *)
let survivors h ids =
  List.filter (H.exists h) ids |> List.map (fun id -> (id, H.base_of h id))

(* A random graph: object shapes (kind, length), edges (source, slot,
   target) and root picks (kind, index). *)
let graph_gen =
  QCheck.(
    triple
      (list_of_size Gen.(1 -- 40) (pair (int_range 0 3) (int_range 0 4)))
      (list_of_size Gen.(0 -- 120) (triple small_nat small_nat small_nat))
      (list_of_size Gen.(0 -- 8) (pair (int_range 0 7) small_nat)))

(* Build a graph in a fresh heap whose first three ids are already swept:
   points (one ref field), pairs (two), ref arrays and int arrays, wired
   by the edges, self-loops included. Returns the heap, the graph's ids
   and the swept ids. *)
let build_graph (shapes, edges, _) =
  let h = H.create () in
  let swept = List.init 3 (fun _ -> H.alloc_object h point_class) in
  ignore (Helpers.collect h []);
  let objs =
    Array.of_list
      (List.mapi
         (fun i (kind, len) ->
           match kind with
           | 0 ->
               let id = H.alloc_object h point_class in
               H.set_field h id 0 (V.Int i);
               id
           | 1 -> H.alloc_object h pair_class
           | 2 -> H.alloc_ref_array h len
           | _ ->
               let id = H.alloc_int_array h (len + 1) in
               H.set_elem h id 0 (V.Int i);
               id)
         shapes)
  in
  let n = Array.length objs in
  List.iter
    (fun (src, slot, dst) ->
      let src = objs.(src mod n) and v = V.Ref objs.(dst mod n) in
      match H.class_id_of h src with
      | Some 0 -> H.set_field h src 2 v
      | Some _ -> H.set_field h src (slot mod 2) v
      | None when H.is_ref_array h src && H.array_length h src > 0 ->
          H.set_elem h src (slot mod H.array_length h src) v
      | None -> ())
    edges;
  (h, objs, swept)

(* Roots: mostly graph objects, plus ints (which may equal a live id),
   null, already-swept ids and ids never allocated. *)
let roots_of objs swept picks =
  List.map
    (fun (kind, i) ->
      match kind with
      | 1 -> V.Int i
      | 2 -> V.Null
      | 3 -> V.Ref (List.nth swept (i mod List.length swept))
      | 4 -> V.Ref (1_000_000 + i)
      | _ -> V.Ref objs.(i mod Array.length objs))
    picks

(* Collect a random graph and check it against the reference collector:
   same survivors at the same bases, same counts, contents intact. *)
let prop_gc_exact_reachability =
  QCheck.Test.make ~name:"gc keeps exactly the reachable objects" ~count:200
    graph_gen (fun ((_, _, picks) as g) ->
      let h, objs, swept = build_graph g in
      let roots = roots_of objs swept picks in
      let ids = swept @ Array.to_list objs in
      let contents =
        List.filter (H.exists h) ids |> List.map (fun id -> (id, slots h id))
      in
      let expected = reference_collect h roots in
      let result = Helpers.collect h roots in
      let kept = survivors h ids in
      kept = expected.bases
      && result.collected = expected.collected
      && result.live_bytes = expected.live_bytes
      && result.live = List.length kept
      && List.for_all (fun (id, _) -> slots h id = List.assoc id contents) kept)

let prop_gc_root_order_irrelevant =
  QCheck.Test.make ~name:"gc: root order does not matter" ~count:100
    QCheck.(pair graph_gen int)
    (fun (((_, _, picks) as g), seed) ->
      let st = Random.State.make [| seed |] in
      let permute l =
        List.map (fun r -> (Random.State.bits st, r)) l
        |> List.sort compare |> List.map snd
      in
      let run order =
        let h, objs, swept = build_graph g in
        let result = Helpers.collect h (order (roots_of objs swept picks)) in
        (survivors h (swept @ Array.to_list objs), result.collected)
      in
      let given = run Fun.id in
      given = run permute && given = run List.rev)

(* --- mark-table lifecycle ------------------------------------------------ *)

(* [n] points linked through [next], head first. *)
let chain h n =
  let ids = Array.init n (fun _ -> H.alloc_object h point_class) in
  for i = 0 to n - 2 do
    H.set_field h ids.(i) 2 (V.Ref ids.(i + 1))
  done;
  ids

let test_gc_second_collect_noop () =
  let h = H.create () in
  let kept = Array.to_list (chain h 50) in
  ignore (chain h 20);
  let root = [ V.Ref (List.hd kept) ] in
  Alcotest.(check int) "first collects the garbage" 20
    (Helpers.collect h root).collected;
  let bases () = List.map (H.base_of h) kept in
  let after_first = bases () in
  Alcotest.(check int) "second collects nothing" 0
    (Helpers.collect h root).collected;
  Alcotest.(check (list int)) "bases unchanged" after_first (bases ());
  (* A mark left set by either collection would keep the chain alive. *)
  Alcotest.(check int) "unrooted chain dies" 50 (Helpers.collect h []).collected;
  Alcotest.(check int) "heap empty" 0 (H.live_objects h)

let test_gc_marks_grow_between_collections () =
  let h = H.create () in
  let old = chain h 10 in
  ignore (Helpers.collect h [ V.Ref old.(0) ]);
  (* Thousands of ids past the first collection's mark table, rooted only
     through the newest object: a ref array wide enough to grow the mark
     stack too. *)
  let young = chain h 3_000 in
  ignore (chain h 1_000);
  H.set_field h young.(2_999) 2 (V.Ref old.(0));
  let wide = H.alloc_ref_array h 3_000 in
  Array.iteri (fun i id -> H.set_elem h wide i (V.Ref id)) young;
  let roots = [ V.Ref wide ] in
  let expected = reference_collect h roots in
  let result = Helpers.collect h roots in
  Alcotest.(check int) "garbage chain collected" 1_000 result.collected;
  Alcotest.(check int) "collected as predicted" expected.collected
    result.collected;
  let ids = Array.to_list old @ Array.to_list young @ [ wide ] in
  Alcotest.(check bool) "survivors and bases as predicted" true
    (survivors h ids = expected.bases)

let test_gc_deep_list_explicit_stack () =
  let h = H.create () in
  let ids = chain h 200_000 in
  ignore (H.alloc_int_array h 8);
  (* 64 Ki words of host stack: far too little for a marker that recursed
     once per link. *)
  let limit = (Gc.get ()).stack_limit in
  Gc.set { (Gc.get ()) with stack_limit = 65_536 };
  let result =
    Fun.protect
      ~finally:(fun () -> Gc.set { (Gc.get ()) with stack_limit = limit })
      (fun () -> Helpers.collect h [ V.Ref ids.(0) ])
  in
  Alcotest.(check int) "whole list survives" 200_000 result.live;
  Alcotest.(check int) "only the array dies" 1 result.collected

let suite =
  suite
  @ [
      Helpers.qtest prop_gc_exact_reachability;
      Helpers.qtest prop_gc_root_order_irrelevant;
      ("gc: second collect is a no-op", `Quick, test_gc_second_collect_noop);
      ("gc: mark table grows between collections", `Quick,
       test_gc_marks_grow_between_collections);
      ("gc: 200k-node list marks on an explicit stack", `Quick,
       test_gc_deep_list_explicit_stack);
    ]
