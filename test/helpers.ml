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
