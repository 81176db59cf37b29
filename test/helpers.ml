(* Shared test utilities. *)

let compile source = Minijava.Compile.program_of_source_exn source

(* Run a program on a machine (default Pentium 4), with the full JIT
   pipeline incl. stride prefetching at [mode]; returns the interpreter
   after execution. *)
let run_program ?(machine = Memsim.Config.pentium4)
    ?(mode = Strideprefetch.Options.Off) ?(hot_threshold = 2) program =
  let opts = Strideprefetch.Options.(with_mode mode default) in
  let interp_options =
    { (Vm.Interp.default_options machine) with Vm.Interp.hot_threshold }
  in
  let interp = Vm.Interp.create ~options:interp_options machine program in
  let passes =
    Jit.Pipeline.standard_passes ()
    @
    match mode with
    | Strideprefetch.Options.Off -> []
    | _ -> [ Strideprefetch.Pass.make_pass ~opts ~interp () ]
  in
  let pipeline = Jit.Pipeline.create passes in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  interp

let run_source ?machine ?mode ?hot_threshold source =
  run_program ?machine ?mode ?hot_threshold (compile source)

let output_of ?machine ?mode ?hot_threshold source =
  Vm.Interp.output (run_source ?machine ?mode ?hot_threshold source)

(* A bare program with one static method named T.main built from raw
   bytecode (for VM-level tests that bypass the frontend). *)
let program_of_code ?(max_locals = 8) code =
  let m =
    Vm.Classfile.make_method ~method_id:0 ~method_name:"T.main" ~arity:0
      ~returns_value:false ~max_locals ~code
  in
  {
    Vm.Classfile.classes = [||];
    methods = [| m |];
    statics = [||];
    entry = 0;
  }

let qtest = QCheck_alcotest.to_alcotest

(* Collect [heap] from a list of root values, then fail the test unless
   every heap invariant holds afterwards. *)
let collect heap roots =
  let result =
    Vm.Gc_compact.collect heap ~roots:(fun visit -> List.iter visit roots)
  in
  (match Vm.Heap.check_invariants heap with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "heap invariant broken after GC: %s" msg);
  result

(* Substring test (OCaml's stdlib has none). *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* One instruction of each [Vm.Bytecode.instr] constructor, for tests that
   must cover the whole instruction set. [constructor_index] matches
   every constructor with no wildcard, so a new constructor stops the
   build there: give it the next index and add a sample here. The tests
   that iterate over [every_instr] check that its indices are exactly
   0 .. n-1. *)
let constructor_index : Vm.Bytecode.instr -> int = function
  | Iconst _ -> 0
  | Aconst_null -> 1
  | Iload _ -> 2
  | Istore _ -> 3
  | Aload _ -> 4
  | Astore _ -> 5
  | Dup -> 6
  | Pop -> 7
  | Iadd -> 8
  | Isub -> 9
  | Imul -> 10
  | Idiv -> 11
  | Irem -> 12
  | Ineg -> 13
  | Iand -> 14
  | Ior -> 15
  | Ixor -> 16
  | Ishl -> 17
  | Ishr -> 18
  | Goto _ -> 19
  | If_icmp _ -> 20
  | If _ -> 21
  | If_acmpeq _ -> 22
  | If_acmpne _ -> 23
  | Ifnull _ -> 24
  | Ifnonnull _ -> 25
  | Getfield _ -> 26
  | Putfield _ -> 27
  | Getstatic _ -> 28
  | Putstatic _ -> 29
  | Aaload _ -> 30
  | Iaload _ -> 31
  | Aastore _ -> 32
  | Iastore _ -> 33
  | Arraylength _ -> 34
  | New _ -> 35
  | Newarray _ -> 36
  | Invoke _ -> 37
  | Return -> 38
  | Ireturn -> 39
  | Areturn -> 40
  | Print -> 41
  | Prefetch_inter _ -> 42
  | Spec_load _ -> 43
  | Prefetch_indirect _ -> 44
  | Prefetch_dynamic _ -> 45

let every_instr =
  Vm.Bytecode.
    [
      Iconst 1; Aconst_null; Iload 0; Istore 0; Aload 0; Astore 0; Dup; Pop;
      Iadd; Isub; Imul; Idiv; Irem; Ineg; Iand; Ior; Ixor; Ishl; Ishr; Goto 0;
      If_icmp (Lt, 0); If (Eq, 0); If_acmpeq 0; If_acmpne 0; Ifnull 0;
      Ifnonnull 0; Getfield { site = 0; offset = 8; name = "f"; is_ref = false };
      Putfield { offset = 8; name = "f" };
      Getstatic { site = 0; index = 0; name = "s"; is_ref = false };
      Putstatic { index = 0; name = "s" }; Aaload { len_site = 0; elem_site = 1 };
      Iaload { len_site = 0; elem_site = 1 }; Aastore { len_site = 0 };
      Iastore { len_site = 0 }; Arraylength { site = 0 }; New 0;
      Newarray Int_array; Invoke 0; Return; Ireturn; Areturn; Print;
      Prefetch_inter { site = 0; distance = 64 };
      Spec_load { site = 0; distance = 64; reg = 0 };
      Prefetch_indirect { reg = 0; offset = 8; guarded = true };
      Prefetch_dynamic { site = 0; times = 2 };
    ]

let check_every_instr_complete () =
  Alcotest.(check (list int))
    "one sample per instruction constructor"
    (List.init (List.length every_instr) Fun.id)
    (List.sort compare (List.map constructor_index every_instr))
