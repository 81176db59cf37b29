(* Cross-engine bit-identity tests (DESIGN.md section 10).

   The switch engine (the reference fetch/decode loop) and the closure
   engine (direct-threaded, pre-compiled) implement one semantics; their
   contract is bit-identity in every observable — program output, cycle
   count, the full core stats vector, the interpreted/compiled split, GC
   activity. The closure engine batches step/cycle commits per basic
   block and caches the top of stack in a register, so these tests pin
   exactly the places where such batching could drift: the hand-off to
   the reference loop when an observer is installed, GC compaction in
   mid-loop, and budget exhaustion (where the batched prologue must fall
   back to per-instruction accounting to die on precisely the same
   step). *)

module W = Workloads.Workload
module H = Workloads.Harness

let all_workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all

let workload name =
  match List.find_opt (fun (w : W.t) -> w.name = name) all_workloads with
  | Some w -> w
  | None -> Alcotest.failf "no workload named %s" name

(* One run of [w] on [engine], with the observers given. *)
let run_on ?(observers = H.no_observers) ~engine ~mode ~machine w =
  H.execute
    {
      (H.request w) with
      config = { Workloads.Run_config.default with engine; mode; machine };
      observers;
    }

(* What bit-identity compares: the program output, then every counter a
   run reports, VM-side books first. *)
let books ~output ~interpreted ~compiled ~gc_count ~methods_compiled
    ~faulting ~guard_trips (stats : Memsim.Stats.t) =
  ( output,
    ("cycles", stats.cycles)
    :: ("interpreted_cycles", interpreted)
    :: ("compiled_cycles", compiled)
    :: ("gc_count", gc_count)
    :: ("methods_compiled", methods_compiled)
    :: ("faulting_prefetches", faulting)
    :: ("spec_guard_trips", guard_trips)
    :: Memsim.Stats.core_alist stats )

let books_of_run (r : H.run_result) =
  books ~output:r.output ~interpreted:r.interpreted_cycles
    ~compiled:r.compiled_cycles ~gc_count:r.gc_count
    ~methods_compiled:r.methods_compiled ~faulting:r.faulting_prefetches
    ~guard_trips:r.spec_guard_trips r.stats

let check_same_books ~ctx (out_a, a) (out_b, b) =
  Alcotest.(check string) (ctx ^ ": output") out_a out_b;
  List.iter2
    (fun (name_a, x) (name_b, y) ->
      Alcotest.(check string) (ctx ^ ": key order") name_a name_b;
      Alcotest.(check int) (ctx ^ ": " ^ name_a) x y)
    a b

let check_same_run ~ctx a b =
  check_same_books ~ctx (books_of_run a) (books_of_run b)

(* Full matrix over two representative workloads (MonteCarlo exercises
   the JIT + prefetch path heavily, Euler is array/loop dense), both
   machines, prefetching off and fully on. *)
let test_bit_identity_matrix () =
  List.iter
    (fun name ->
      let w = workload name in
      List.iter
        (fun machine ->
          List.iter
            (fun mode ->
              let run engine = run_on ~engine ~mode ~machine w in
              let ctx =
                Printf.sprintf "%s/%s" name machine.Memsim.Config.name
              in
              check_same_run ~ctx (run Vm.Interp.Switch)
                (run Vm.Interp.Closure))
            [ Strideprefetch.Options.Off; Strideprefetch.Options.Inter_intra ])
        [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ])
    [ "MonteCarlo"; "Euler" ]

(* The benchmark's fuzz corpus (400 programs, seeds 2026 + i at size 6)
   at every cell of [Fuzz.Oracle.default_cells], on both engines. The
   oracle's engine row runs only the headline cell, and the matrix above
   only two workloads, so a closure-compiler change that moves one cycle
   on one cell fails here alone. A run that raises must raise the same
   error on both engines. The same diff must catch an injected desync on
   one cell of a program with a loop. *)
let corpus_request i =
  let g = Fuzz.Gen.generate ~seed:(2026 + i) ~max_size:6 in
  let source = Fuzz.Gen.source g in
  H.request
    ~program:(Minijava.Compile.program_of_source_exn source)
    (Workloads.Workload.of_source ~name:"fuzz"
       ~description:"generated program (fuzzer)"
       ~heap_limit_bytes:g.heap_limit_bytes source)

let on_cell (c : Fuzz.Oracle.cell) engine (req : H.request) =
  {
    req with
    config =
      {
        Workloads.Run_config.default with
        mode = c.mode;
        passes = c.standard_passes;
        machine = c.machine;
        engine;
      };
  }

let test_fuzz_corpus_cells () =
  let outcome req =
    match H.execute req with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  for i = 0 to 399 do
    let req = corpus_request i in
    List.iter
      (fun cell ->
        let ctx =
          Printf.sprintf "seed %d %s" (2026 + i) (Fuzz.Oracle.cell_name cell)
        in
        match
          ( outcome (on_cell cell Vm.Interp.Switch req),
            outcome (on_cell cell Vm.Interp.Closure req) )
        with
        | Ok a, Ok b -> check_same_run ~ctx a b
        | Error a, Error b -> Alcotest.(check string) (ctx ^ ": error") a b
        | Ok _, Error e | Error e, Ok _ ->
            Alcotest.failf "%s: one engine raised %s" ctx e)
      Fuzz.Oracle.default_cells
  done;
  let req = corpus_request 0 in
  let loops (m : Vm.Classfile.method_info) =
    Array.exists (function Vm.Bytecode.Goto _ -> true | _ -> false) m.code
  in
  Alcotest.(check bool)
    "seed 2026 has a loop" true
    (Array.exists loops req.program.methods);
  let cell = List.hd Fuzz.Oracle.default_cells in
  let desync =
    { (on_cell cell Vm.Interp.Closure req) with faults = [ Vm.Fault.Engine_desync ] }
  in
  Alcotest.(check bool)
    "an injected engine desync shows in the diff" false
    (books_of_run (H.execute (on_cell cell Vm.Interp.Switch req))
    = books_of_run (H.execute desync))

(* [Harness.execute] has no load observer, so this run repeats its
   plain wiring (standard passes, then the prefetch pass at [mode]) and
   installs [Interp.set_load_observer]. It returns the run's books and
   the observed (method, site, addr) stream as a count and a hash. *)
let run_observing_loads ~engine ~mode ~machine (w : W.t) =
  let program = W.compile w in
  let options =
    {
      (Vm.Interp.default_options machine) with
      Vm.Interp.heap_limit_bytes = w.heap_limit_bytes;
      engine;
    }
  in
  let interp = Vm.Interp.create ~options machine program in
  let opts = Strideprefetch.Options.(with_mode mode default) in
  let pipeline =
    Jit.Pipeline.create ~on_mutate:(Vm.Interp.precompile_method interp)
      (Jit.Pipeline.standard_passes ()
      @ [ Strideprefetch.Pass.make_pass ~opts ~interp () ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  let count = ref 0 and hash = ref 0 in
  let mix h x = (h * 1_000_003) lxor x in
  Vm.Interp.set_load_observer interp (fun ~method_id ~site ~addr ->
      incr count;
      hash := mix (mix (mix !hash method_id) site) addr);
  ignore (Vm.Interp.run interp);
  ( books ~output:(Vm.Interp.output interp)
      ~interpreted:(Vm.Interp.interpreted_cycles interp)
      ~compiled:(Vm.Interp.compiled_cycles interp)
      ~gc_count:(Vm.Interp.gc_count interp)
      ~methods_compiled:(Jit.Pipeline.methods_compiled pipeline)
      ~faulting:(Vm.Interp.faulting_prefetches interp)
      ~guard_trips:(Vm.Interp.spec_guard_trips interp)
      (Vm.Interp.stats interp),
    (!count, !hash) )

(* Every observation entry point, on both engines: an observed run
   executes on the reference loop whichever engine it names, and must
   charge exactly what the plain closure run charges — observation is
   free. Profile+monitor is the benchmark's observed unit. The load
   observer must also be handed the same stream by both engines. *)
let test_observer_twins () =
  let w = workload "MonteCarlo" in
  let machine = Memsim.Config.athlon_mp in
  let mode = Strideprefetch.Options.Inter_intra in
  let window = Monitor.Collector.default_window_cycles in
  let harness ?(telemetry = false) ?(profile = false) ?monitor engine =
    let observers = { H.no_observers with telemetry; profile; monitor } in
    books_of_run (run_on ~observers ~engine ~mode ~machine w)
  in
  let plain = harness Vm.Interp.Closure in
  let streams = ref [] in
  let rows =
    [
      ("telemetry", fun e -> harness ~telemetry:true e);
      ("telemetry+profile", fun e -> harness ~telemetry:true ~profile:true e);
      ("monitor", fun e -> harness ~monitor:window e);
      ("profile+monitor", fun e -> harness ~profile:true ~monitor:window e);
      ( "load observer",
        fun engine ->
          let books, stream = run_observing_loads ~engine ~mode ~machine w in
          streams := stream :: !streams;
          books );
    ]
  in
  List.iter
    (fun (label, run) ->
      List.iter
        (fun engine ->
          let ctx =
            Printf.sprintf "%s on %s" label (Vm.Interp.engine_name engine)
          in
          check_same_books ~ctx plain (run engine))
        [ Vm.Interp.Closure; Vm.Interp.Switch ])
    rows;
  match !streams with
  | [ (count_sw, hash_sw); (count_cl, hash_cl) ] ->
      Alcotest.(check bool) "loads observed" true (count_cl > 0);
      Alcotest.(check int) "load stream length" count_cl count_sw;
      Alcotest.(check int) "load stream hash" hash_cl hash_sw
  | l -> Alcotest.failf "expected 2 load streams, got %d" (List.length l)

(* A workload sized to overflow its heap limit repeatedly while the hot
   loop is executing: compaction rewrites every simulated address (and
   flushes caches and DTLB) between two iterations of a closure-compiled
   block. The engines must agree on when collections happen and on every
   cycle before and after. *)
let gc_churn =
  {
    W.name = "gc_churn";
    suite = `Specjvm;
    description = "engine test fixture: compaction under a running loop";
    paper_note = "";
    heap_limit_bytes = 24 * 1024;
    source =
      {|
class Node { int v; Node next; Node(int x) { v = x; next = null; } }
class T {
  static int churn(int n) {
    int acc = 0;
    Node keep = new Node(7);
    for (int i = 0; i < n; i = i + 1) {
      Node t = new Node(i);
      t.next = keep;
      acc = (acc + t.v + t.next.v) % 9973;
    }
    return acc;
  }
  static void main() {
    int acc = 0;
    for (int r = 0; r < 6; r = r + 1) { acc = (acc + T.churn(800)) % 9973; }
    print(acc);
  }
}
|};
  }

let test_gc_compaction_mid_loop () =
  let machine = Memsim.Config.athlon_mp in
  let mode = Strideprefetch.Options.Inter_intra in
  let run engine = run_on ~engine ~mode ~machine gc_churn in
  let sw = run Vm.Interp.Switch in
  let cl = run Vm.Interp.Closure in
  Alcotest.(check bool)
    "collections actually happened" true (sw.gc_count > 0);
  check_same_run ~ctx:"gc churn" sw cl

(* Budget exhaustion must be exact: the closure engine pre-commits a
   whole block's steps at the block head, so a budget that would expire
   inside the block has to be detected up front and the block re-run
   through the per-instruction fallback chain — [Budget_exhausted] then
   fires on precisely the same step as the reference engine. *)
let budget_source =
  {|
class T {
  static void main() {
    int acc = 0;
    for (int i = 0; i > -1; i = i + 1) { acc = (acc + i) % 65536; }
    print(acc);
  }
}
|}

let run_out_of_budget engine max_steps =
  let program = Helpers.compile budget_source in
  let machine = Memsim.Config.pentium4 in
  let options =
    { (Vm.Interp.default_options machine) with Vm.Interp.max_steps; engine }
  in
  let interp = Vm.Interp.create ~options machine program in
  match Vm.Interp.run interp with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Vm.Interp.Budget_exhausted budget ->
      (budget, Vm.Interp.steps interp, Vm.Interp.stats interp)

let test_budget_exhaustion_is_engine_invariant () =
  (* Several budgets so expiry lands at different offsets inside the
     loop's basic block. *)
  List.iter
    (fun max_steps ->
      let b_sw, steps_sw, stats_sw =
        run_out_of_budget Vm.Interp.Switch max_steps
      in
      let b_cl, steps_cl, stats_cl =
        run_out_of_budget Vm.Interp.Closure max_steps
      in
      let ctx = Printf.sprintf "max_steps=%d" max_steps in
      Alcotest.(check int) (ctx ^ ": payload") max_steps b_sw;
      Alcotest.(check int) (ctx ^ ": payloads agree") b_sw b_cl;
      Alcotest.(check int) (ctx ^ ": steps at raise") steps_sw steps_cl;
      Alcotest.(check int)
        (ctx ^ ": retired at raise")
        stats_sw.Memsim.Stats.retired_instructions
        stats_cl.Memsim.Stats.retired_instructions)
    [ 1000; 1001; 1002; 1003; 1004; 1005; 1006 ]

(* Two closure runs of the same cell from fresh states: the artifact
   compiler and the simulation must be fully deterministic. *)
let test_rerun_determinism () =
  let w = workload "MonteCarlo" in
  let machine = Memsim.Config.pentium4 in
  let mode = Strideprefetch.Options.Inter_intra in
  let a = run_on ~engine:Vm.Interp.Closure ~mode ~machine w in
  let b = run_on ~engine:Vm.Interp.Closure ~mode ~machine w in
  check_same_run ~ctx:"rerun" a b

(* The closure engine's hot path allocates nothing on the host: values
   are unboxed (payload, tag) pairs wherever they are stored, so no int
   is boxed, however large, and no load builds a tuple. Each row is a
   loop run for two trip counts on fresh interpreters, which must then
   allocate exactly the same words: the array path (the bounds-check
   load and the element access), ints past 1023, a field and a static
   stored and loaded, and a call returning a value. *)
let alloc_rows =
  [
    ( "array",
      (fun n ->
        Printf.sprintf
          {|
class T {
  static void main() {
    int[] a = new int[64];
    T[] r = new T[64];
    int s = 0;
    for (int i = 0; i < %d; i = i + 1) {
      a[i %% 64] = s %% 100;
      s = a[(i + 1) %% 64] + 1;
      T t = r[i %% 64];
    }
    print(s);
  }
}
|}
          n),
      fun n ->
        let a = Array.make 64 0 and s = ref 0 in
        for i = 0 to n - 1 do
          a.(i mod 64) <- !s mod 100;
          s := a.((i + 1) mod 64) + 1
        done;
        !s );
    ( "ints past 1023",
      (fun n ->
        Printf.sprintf
          {|
class T {
  static void main() {
    int s = 0;
    for (int i = 0; i < %d; i = i + 1) { s = s + 1000003 * i; }
    print(s);
  }
}
|}
          n),
      fun n -> 1000003 * (n * (n - 1) / 2) );
    ( "field and static",
      (fun n ->
        Printf.sprintf
          {|
class T {
  int f;
  static int g;
  static void main() {
    T t = new T();
    t.f = 5000;
    T.g = 7000;
    for (int i = 0; i < %d; i = i + 1) {
      t.f = t.f + T.g + i;
      T.g = t.f %% 100000 + 2000;
    }
    print(t.f + T.g);
  }
}
|}
          n),
      fun n ->
        let f = ref 5000 and g = ref 7000 in
        for i = 0 to n - 1 do
          f := !f + !g + i;
          g := (!f mod 100000) + 2000
        done;
        !f + !g );
    ( "call returning a value",
      (fun n ->
        Printf.sprintf
          {|
class T {
  static int step(int x, int i) { return (x * 3 + i) %% 1000000 + 5000; }
  static void main() {
    int s = 1;
    for (int i = 0; i < %d; i = i + 1) { s = T.step(s, i); }
    print(s);
  }
}
|}
          n),
      fun n ->
        let s = ref 1 in
        for i = 0 to n - 1 do
          s := (((!s * 3) + i) mod 1000000) + 5000
        done;
        !s );
  ]

let test_array_path_allocates_nothing () =
  let run source n =
    let program = Helpers.compile (source n) in
    let machine = Memsim.Config.pentium4 in
    let options =
      { (Vm.Interp.default_options machine) with engine = Vm.Interp.Closure }
    in
    let interp = Vm.Interp.create ~options machine program in
    let before = Gc.minor_words () in
    ignore (Vm.Interp.run interp);
    let words = Gc.minor_words () -. before in
    (Vm.Interp.output interp, words)
  in
  List.iter
    (fun (name, source, expected) ->
      let out_short, words_short = run source 200 in
      let out_long, words_long = run source 900 in
      let out n = Printf.sprintf "%d\n" (expected n) in
      Alcotest.(check string) (name ^ ": N=200 output") (out 200) out_short;
      Alcotest.(check string) (name ^ ": N=900 output") (out 900) out_long;
      Alcotest.(check (float 0.))
        (name ^ ": minor words independent of N")
        words_short words_long)
    alloc_rows

(* A recursion deeper than the 64-frame pool builds a fresh frame per
   extra level. The operand stack starts small and grows on demand, so
   such a frame costs about 51 words (the record, two locals' slots, a
   16-slot stack, the site and prefetch registers), not the 280 a
   [max_stack]-slot stack cost. Checked on both engines. *)
let recursion_source n =
  Printf.sprintf
    {|
class T {
  static int down(int n) {
    int r = 0;
    if (n > 0) { r = T.down(n - 1) + 1; }
    return r;
  }
  static void main() { print(T.down(%d)); }
}
|}
    n

let test_recursion_words_per_level () =
  let run engine n =
    let program = Helpers.compile (recursion_source n) in
    let machine = Memsim.Config.pentium4 in
    let options = { (Vm.Interp.default_options machine) with engine } in
    let interp = Vm.Interp.create ~options machine program in
    let before = Gc.minor_words () in
    ignore (Vm.Interp.run interp);
    let words = Gc.minor_words () -. before in
    Alcotest.(check string)
      (Printf.sprintf "down(%d) output" n)
      (Printf.sprintf "%d\n" n) (Vm.Interp.output interp);
    words
  in
  List.iter
    (fun engine ->
      let per_level = (run engine 4000 -. run engine 2000) /. 2000. in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per level <= 64"
           (Vm.Interp.engine_name engine) per_level)
        true (per_level <= 64.))
    [ Vm.Interp.Switch; Vm.Interp.Closure ]

(* ---- every instruction in every entry state ----

   The closure engine compiles each instruction against the statically
   tracked top-of-stack cache: a consumer entered with the cache empty
   runs behind a pop adapter, an instruction that does not consume a
   cached top runs behind a spill adapter, and a budget that runs out
   inside a block re-runs it through the per-instruction fallback chain.
   Each case below runs one instruction three ways on both engines:
   first in its block (entered empty, after a [Goto] to it), right after
   a producer in the same block (entered with the top cached), and under
   every step budget that runs out after the prelude. Output, the
   returned value and the books must match; an aborted run compares its
   error and output only (no counter is read after an abort).

   A case's [pushes] (local loads and constants) sit right before the
   instruction in both layouts, so the closure engine folds them into it
   as deferred operands, entered empty or on a cached top; every consumer
   also keeps a row whose top comes from a producer that is never
   deferred ([Getstatic], [Dup]). The edges: a ref or null local fed to
   an int consumer, an out-of-range local (never deferred), and a
   deferred push past the operand stack's 256 slots. *)

module B = Vm.Bytecode

(* A tiny assembler: labels name the pc of the next instruction. *)
type asm = I of B.instr | L of string | J of string * (int -> B.instr)

let assemble items =
  let labels = Hashtbl.create 8 in
  ignore
    (List.fold_left
       (fun pc -> function
         | L l ->
             Hashtbl.replace labels l pc;
             pc
         | I _ | J _ -> pc + 1)
       0 items);
  Array.of_list
    (List.filter_map
       (function
         | I i -> Some i
         | J (l, f) -> Some (f (Hashtbl.find labels l))
         | L _ -> None)
       items)

let is = List.map (fun i -> I i)

let point =
  Vm.Classfile.make_class ~class_id:0 ~class_name:"P"
    ~field_specs:[ ("x", false); ("next", true) ]

let get_x site = B.Getfield { site; offset = 8; name = "x"; is_ref = false }
let get_next site = B.Getfield { site; offset = 12; name = "next"; is_ref = true }
let put_x = B.Putfield { offset = 8; name = "x" }
let put_next = B.Putfield { offset = 12; name = "next" }
let get_s0 site = B.Getstatic { site; index = 0; name = "s0"; is_ref = false }
let get_s1 site = B.Getstatic { site; index = 1; name = "s1"; is_ref = true }
let put_s0 = B.Putstatic { index = 0; name = "s0" }
let put_s1 = B.Putstatic { index = 1; name = "s1" }

(* Locals: 0 an int[4] with a[1] = 77, 1 a ref[3] with r[2] = the object,
   2 a P object with x = 9 and next = itself, 3 the int 100003, 4 the int
   1. Statics: s0 = 11, s1 = the object. Site 9 is never loaded. *)
let prelude =
  is
    [
      B.Iconst 4; B.Newarray B.Int_array; B.Astore 0;
      B.Iconst 3; B.Newarray B.Ref_array; B.Astore 1;
      B.New 0; B.Astore 2;
      B.Iconst 100003; B.Istore 3;
      B.Iconst 1; B.Istore 4;
      B.Aload 0; B.Iconst 1; B.Iconst 77; B.Iastore { len_site = 10 };
      B.Aload 1; B.Iconst 2; B.Aload 2; B.Aastore { len_site = 10 };
      B.Aload 2; B.Iconst 9; put_x;
      B.Aload 2; B.Aload 2; put_next;
      B.Iconst 11; put_s0;
      B.Aload 2; put_s1;
    ]

(* Callees: 1 [T.sub] (a, b) -> a - b; 2 [T.seven] () -> 7; 3 [T.show]
   (a) prints a; 4 [T.same] (r) -> r. *)
let matrix_program code =
  let p = Helpers.program_of_code ~max_locals:5 code in
  let main = p.methods.(0) in
  main.n_sites <- 16;
  main.n_pref_regs <- 2;
  let callee method_id method_name ~arity ~returns_value code =
    Vm.Classfile.make_method ~method_id ~method_name ~arity ~returns_value
      ~max_locals:arity ~code
  in
  {
    p with
    Vm.Classfile.classes = [| point |];
    statics =
      [|
        { Vm.Classfile.static_name = "s0"; static_index = 0 };
        { Vm.Classfile.static_name = "s1"; static_index = 1 };
      |];
    methods =
      [|
        main;
        callee 1 "T.sub" ~arity:2 ~returns_value:true
          [| B.Iload 0; B.Iload 1; B.Isub; B.Ireturn |];
        callee 2 "T.seven" ~arity:0 ~returns_value:true
          [| B.Iconst 7; B.Ireturn |];
        callee 3 "T.show" ~arity:1 ~returns_value:false
          [| B.Iload 0; B.Print; B.Return |];
        callee 4 "T.same" ~arity:1 ~returns_value:true
          [| B.Aload 0; B.Areturn |];
      |];
  }

(* Prints 0 for a null top of stack, 1 otherwise. *)
let print_nullness tag =
  [
    J (tag ^ "-null", fun t -> B.Ifnull t);
    I (B.Iconst 1); I B.Print;
    J (tag ^ "-done", fun t -> B.Goto t);
    L (tag ^ "-null");
    I (B.Iconst 0); I B.Print;
    L (tag ^ "-done");
  ]

(* One case: [setup] ends with a producer, so that in the same block the
   instruction is entered with the top cached; [pushes] come right before
   the instruction; [rest] makes its result observable. *)
type case = {
  name : string;
  setup : asm list;
  pushes : asm list;
  instr : asm;
  rest : asm list;
}

let case name setup instr rest = { name; setup; pushes = []; instr; rest }

(* [c] with [pushes] deferred into its instruction. *)
let fed name pushes c = { c with name = c.name ^ name; pushes }

(* A conditional branch: prints 1 when taken, 0 when not. *)
let branch name setup make =
  case name setup
    (J ("taken", make))
    [
      I (B.Iconst 0); I B.Print;
      J ("join", fun t -> B.Goto t);
      L "taken";
      I (B.Iconst 1); I B.Print;
      L "join";
    ]

let one = I (B.Iconst 1)
let ints = List.map (fun k -> I (B.Iconst k))

(* A setup that leaves [depth] values on the operand stack: one more
   push overflows it at 256. *)
let stack_of depth = ints (List.init depth (fun _ -> 0))

(* Local 3 set to null, below a cached 1. *)
let null_in_3 = is [ B.Aconst_null; B.Astore 3 ] @ [ one ]

(* Rows that feed a binary int consumer [c] (its case on a given setup)
   deferred operands: a local on a cached top, then two pushes. *)
let int_operand_rows c =
  [
    fed " local on top" (is [ B.Iload 4 ]) (c (ints [ 100003 ]));
    fed " local local" (is [ B.Iload 3; B.Iload 4 ]) (c [ one ]);
    fed " local local, reversed" (is [ B.Iload 4; B.Iload 3 ]) (c [ one ]);
    fed " local const" (is [ B.Iload 3; B.Iconst 7 ]) (c [ one ]);
  ]

(* Its error edges: a ref or null local (the right operand is tested
   first), an out-of-range local. *)
let int_operand_edges c =
  [
    fed " ref local on top" (is [ B.Iload 2 ]) (c (ints [ 100003 ]));
    fed " null local on top" (is [ B.Iload 3 ]) (c null_in_3);
    fed " out-of-range local on top" (is [ B.Iload 7 ]) (c (ints [ 100003 ]));
    fed " ref local, null local" (is [ B.Iload 2; B.Iload 3 ]) (c null_in_3);
    fed " null local, const" (is [ B.Iload 3; B.Iconst 7 ]) (c null_in_3);
    fed " local, out-of-range local" (is [ B.Iload 3; B.Iload 7 ]) (c [ one ]);
  ]

(* And the pushes that reach, or pass, the stack's 256 slots. *)
let int_operand_overflows c =
  [
    fed " local past 256 slots" (is [ B.Iload 4 ]) (c (stack_of 256));
    fed " local const past 256 slots" (is [ B.Iload 3; B.Iconst 7 ]) (c (stack_of 255));
    fed " local const at 256 slots" (is [ B.Iload 3; B.Iconst 7 ]) (c (stack_of 254));
  ]
let cmps = B.[ Eq; Ne; Lt; Ge; Gt; Le ]
let array_elem = B.Iaload { len_site = 5; elem_site = 6 }
let ref_elem = B.Aaload { len_site = 5; elem_site = 6 }

(* Every case of one constructor. No wildcard: a new constructor stops
   the build here. *)
let cases_of (instr : B.instr) =
  let show_int = is [ B.Print ] and show_ref tag = print_nullness tag in
  match instr with
  | Iconst _ ->
      List.map
        (fun k -> case (string_of_int k) [ one ] (I (B.Iconst k)) (is [ B.Print; B.Print ]))
        [ 42; 100000; -5 ]
  | Aconst_null -> [ case "" [ one ] (I B.Aconst_null) (show_ref "a" @ show_int) ]
  | Iload _ ->
      [
        case "in range" [ one ] (I (B.Iload 3)) (is [ B.Print; B.Print ]);
        case "out of range" [ one ] (I (B.Iload 7)) (is [ B.Print; B.Print ]);
      ]
  | Istore _ ->
      let shown = is [ B.Iload 3; B.Print; B.Print ] in
      let store = case "" [ one ] (I (B.Istore 3)) shown in
      [
        case "in range" (ints [ 100000 ]) (I (B.Istore 3)) (is [ B.Iload 3; B.Print ]);
        case "out of range" (ints [ 5 ]) (I (B.Istore 7)) [];
        case "static top" (is [ get_s0 3 ]) (I (B.Istore 3)) (is [ B.Iload 3; B.Print ]);
        fed "const" (ints [ 5 ]) store;
        fed "local" (is [ B.Iload 4 ]) store;
        fed "const, out-of-range target" (ints [ 5 ]) (case "" [ one ] (I (B.Istore 7)) []);
        fed "const past 256 slots" (ints [ 5 ]) { store with setup = stack_of 256 };
      ]
  | Aload _ -> [ case "" [ one ] (I (B.Aload 2)) (show_ref "a" @ show_int) ]
  | Astore _ ->
      [
        case "" (is [ B.Aconst_null ]) (I (B.Astore 2)) (I (B.Aload 2) :: show_ref "a");
        fed "local" (is [ B.Aload 1 ])
          (case "" [ one ] (I (B.Astore 2)) (is [ B.Aload 2; B.Arraylength { site = 0 }; B.Print; B.Print ]));
      ]
  | Dup -> [ case "" (ints [ 3 ]) (I B.Dup) (is [ B.Iadd; B.Print ]) ]
  | Pop -> [ case "" (ints [ 1; 2 ]) (I B.Pop) show_int ]
  | (Iadd | Isub | Imul | Idiv | Irem | Iand | Ior | Ixor | Ishl | Ishr) as op ->
      List.map
        (fun (a, b) -> case (Printf.sprintf "%d %d" a b) (ints [ a; b ]) (I op) show_int)
        [ (100003, 7); (-7, 2); (3, 65) ]
      @
      let c setup = case "" setup (I op) show_int in
      case "100003 static" (ints [ 100003 ] @ [ I (get_s0 3) ]) (I op) show_int
      :: int_operand_rows c
      @ int_operand_edges c
      @ if op = B.Iadd then int_operand_overflows c else []
  | Ineg ->
      List.map (fun a -> case (string_of_int a) (ints [ a ]) (I B.Ineg) show_int) [ 100003; -4 ]
  | Goto _ ->
      [
        case "forward, then backward" [ one ]
          (J ("fwd", fun t -> B.Goto t))
          [
            L "back"; I (B.Iconst 5); I B.Print;
            J ("end", fun t -> B.Goto t);
            L "fwd"; J ("back", fun t -> B.Goto t);
            L "end"; I B.Print;
          ];
      ]
  | If_icmp _ ->
      (* Each pair's outcome, with the operands moved so that the
         static, the local (1) or the constant takes [b]'s place. *)
      List.concat_map
        (fun c ->
          let name = B.string_of_cmp c and make t = B.If_icmp (c, t) in
          let on setup = branch name setup make in
          List.concat_map
            (fun (a, b) ->
              let named = Printf.sprintf "%s %d %d" name a b in
              [
                branch named (ints [ a; b ]) make;
                branch (named ^ " static") (ints [ 11 + a - b ] @ [ I (get_s0 3) ]) make;
                fed " local on top" (is [ B.Iload 4 ]) (branch named (ints [ 1 + a - b ]) make);
                fed " local const" (is [ B.Iload 4 ] @ ints [ 1 + b - a ]) (branch named [ one ] make);
              ])
            [ (1, 2); (2, 1); (1, 1) ]
          @ List.map
              (fun (x, y) ->
                fed (Printf.sprintf " local %d local %d" x y) (is [ B.Iload x; B.Iload y ]) (on [ one ]))
              [ (3, 4); (4, 3); (4, 4) ]
          @ if c = B.Lt then int_operand_edges on @ int_operand_overflows on else [])
        cmps
  | If _ ->
      List.concat_map
        (fun c ->
          List.map
            (fun a ->
              branch
                (Printf.sprintf "%s %d" (B.string_of_cmp c) a)
                (ints [ a ])
                (fun t -> B.If (c, t)))
            [ -1; 0; 1 ])
        cmps
  | If_acmpeq _ | If_acmpne _ ->
      let make t =
        match instr with B.If_acmpeq _ -> B.If_acmpeq t | _ -> B.If_acmpne t
      in
      List.map
        (fun (name, setup) -> branch name (is setup) make)
        [
          ("same", [ B.Aload 2; B.Aload 2 ]);
          ("different", [ B.Aload 2; B.Aload 1 ]);
          ("ref null", [ B.Aload 2; B.Aconst_null ]);
          ("null null", [ B.Aconst_null; B.Aconst_null ]);
        ]
  | Ifnull _ | Ifnonnull _ ->
      let make t =
        match instr with B.Ifnull _ -> B.Ifnull t | _ -> B.Ifnonnull t
      in
      [ branch "null" (is [ B.Aconst_null ]) make; branch "ref" (is [ B.Aload 2 ]) make ]
  | Getfield _ ->
      let int_field setup = case "int" setup (I (get_x 0)) (show_int @ show_int) in
      [
        case "int" (is [ B.Aload 2 ]) (I (get_x 0)) show_int;
        case "ref" (is [ B.Aload 2 ]) (I (get_next 1)) (show_ref "f");
        case "static top" (is [ get_s1 3 ]) (I (get_x 0)) show_int;
        fed " local" (is [ B.Aload 2 ]) (int_field [ one ]);
        fed " ref local" (is [ B.Aload 2 ]) (case "ref" [ one ] (I (get_next 1)) (show_ref "f" @ show_int));
        fed " null local" (is [ B.Aload 3 ]) (int_field null_in_3);
        fed " int local" (is [ B.Aload 3 ]) (int_field [ one ]);
        fed " out-of-range local" (is [ B.Aload 7 ]) (int_field [ one ]);
        fed " local past 256 slots" (is [ B.Aload 2 ]) (int_field (stack_of 256));
      ]
  | Putfield _ ->
      [
        case "int" (is [ B.Aload 2; B.Iconst 123 ]) (I put_x)
          (is [ B.Aload 2; get_x 2; B.Print ]);
        case "ref" (is [ B.Aload 2; B.Aconst_null ]) (I put_next)
          (I (B.Aload 2) :: I (get_next 2) :: show_ref "f");
      ]
  | Getstatic _ ->
      [
        case "int" [ one ] (I (get_s0 3)) (is [ B.Print; B.Print ]);
        case "ref" [ one ] (I (get_s1 3)) (show_ref "s" @ show_int);
      ]
  | Putstatic _ ->
      [ case "" (ints [ 31 ]) (I put_s0) (is [ get_s0 4; B.Print ]) ]
  | Aaload _ ->
      [
        case "ref" (is [ B.Aload 1; B.Iconst 2 ]) (I ref_elem) (show_ref "e");
        case "null" (is [ B.Aload 1; B.Iconst 0 ]) (I ref_elem) (show_ref "e");
        fed " local index on top" (is [ B.Iload 4 ])
          (case "null" (is [ B.Aload 1; B.Dup ]) (I ref_elem) (show_ref "e"));
        fed " local local" (is [ B.Aload 1; B.Iload 4 ])
          (case "null" [ one ] (I ref_elem) (show_ref "e" @ show_int));
      ]
  | Iaload _ ->
      let elem setup = case "" setup (I array_elem) (show_int @ show_int) in
      [
        case "" (is [ B.Aload 0; B.Iconst 1 ]) (I array_elem) show_int;
        fed "local index on top" (is [ B.Iload 4 ]) (elem (is [ B.Aload 0; B.Dup ]));
        fed "ref index on top" (is [ B.Iload 2 ]) (elem (is [ B.Aload 0; B.Dup ]));
        fed "out-of-bounds index on top" (is [ B.Iload 3 ]) (elem (is [ B.Aload 0; B.Dup ]));
        fed "local local" (is [ B.Aload 0; B.Iload 4 ]) (elem [ one ]);
        fed "null array, local" (is [ B.Aload 3; B.Iload 4 ]) (elem null_in_3);
        fed "local, ref index" (is [ B.Aload 0; B.Iload 2 ]) (elem [ one ]);
        fed "local, out-of-range local" (is [ B.Aload 0; B.Iload 7 ]) (elem [ one ]);
        fed "local index past 256 slots" (is [ B.Iload 4 ])
          (elem (stack_of 254 @ is [ B.Aload 0; B.Dup ]));
        fed "local local past 256 slots" (is [ B.Aload 0; B.Iload 4 ]) (elem (stack_of 255));
      ]
  | Aastore _ ->
      [
        case "" (is [ B.Aload 1; B.Iconst 0; B.Aload 2 ]) (I (B.Aastore { len_site = 5 }))
          (is [ B.Aload 1; B.Iconst 0; B.Aaload { len_site = 7; elem_site = 8 } ]
          @ show_ref "e");
      ]
  | Iastore _ ->
      [
        case "" (is [ B.Aload 0; B.Iconst 3; B.Iconst 100007 ])
          (I (B.Iastore { len_site = 5 }))
          (is [ B.Aload 0; B.Iconst 3; B.Iaload { len_site = 7; elem_site = 8 }; B.Print ]);
      ]
  | Arraylength _ ->
      let length setup = case "" setup (I (B.Arraylength { site = 0 })) (show_int @ show_int) in
      List.map
        (fun l -> case (string_of_int l) (is [ B.Aload l ]) (I (B.Arraylength { site = 0 })) show_int)
        [ 0; 1 ]
      @ [
          fed "local" (is [ B.Aload 0 ]) (length [ one ]);
          fed "null local" (is [ B.Aload 3 ]) (length null_in_3);
          fed "local past 256 slots" (is [ B.Aload 0 ]) (length (stack_of 256));
        ]
  | New _ -> [ case "" [ one ] (I (B.New 0)) (is [ get_x 0; B.Print; B.Print ]) ]
  | Newarray _ ->
      List.concat_map
        (fun kind ->
          List.map
            (fun len ->
              case (string_of_int len) (ints [ len ]) (I (B.Newarray kind))
                (is [ B.Arraylength { site = 0 }; B.Print ]))
            [ 5; 0 ])
        B.[ Int_array; Ref_array ]
  | Invoke _ ->
      [
        case "two arguments" (ints [ 10; 3 ]) (I (B.Invoke 1)) show_int;
        case "no argument" [ one ] (I (B.Invoke 2)) (is [ B.Print; B.Print ]);
        case "void" (ints [ 1; 8 ]) (I (B.Invoke 3)) show_int;
        case "ref" (is [ B.Aload 2 ]) (I (B.Invoke 4)) (show_ref "r");
      ]
  | Return -> [ case "" (ints [ 3 ] @ [ I B.Print; one ]) (I B.Return) [] ]
  | Ireturn ->
      [
        case "" (ints [ 100003 ]) (I B.Ireturn) [];
        case "static top" (is [ get_s0 3 ]) (I B.Ireturn) [];
        fed "const" (ints [ 100003 ]) (case "" [ one ] (I B.Ireturn) []);
      ]
  | Areturn -> [ case "" (is [ B.Aload 2 ]) (I B.Areturn) [] ]
  | Print -> [ case "" (ints [ 100003 ]) (I B.Print) [] ]
  | Prefetch_inter _ ->
      List.map
        (fun site ->
          case (string_of_int site)
            (is [ B.Aload 0; B.Iconst 1; array_elem; B.Pop; B.Iconst 1 ])
            (I (B.Prefetch_inter { site; distance = 64 }))
            show_int)
        [ 6; 9 ]
  | Spec_load _ ->
      List.map
        (fun (site, distance) ->
          case
            (Printf.sprintf "%d %d" site distance)
            (is [ B.Aload 1; B.Iconst 2; ref_elem; B.Pop; B.Iconst 1 ])
            (I (B.Spec_load { site; distance; reg = 0 }))
            (is [ B.Prefetch_indirect { reg = 0; offset = 8; guarded = true }; B.Print ]))
        [ (6, 0); (6, -100000); (6, -2000000); (9, 0) ]
  | Prefetch_indirect _ ->
      List.map
        (fun (reg, guarded) ->
          case
            (Printf.sprintf "p%d %b" reg guarded)
            (is
               [
                 B.Aload 1; B.Iconst 2; ref_elem; B.Pop;
                 B.Spec_load { site = 6; distance = 0; reg = 1 }; B.Iconst 1;
               ])
            (I (B.Prefetch_indirect { reg; offset = 8; guarded }))
            show_int)
        [ (1, true); (1, false); (0, false) ]
  | Prefetch_dynamic _ ->
      List.map
        (fun site ->
          case (string_of_int site)
            (is
               [
                 B.Aload 0; B.Iconst 1; array_elem; B.Pop;
                 B.Aload 0; B.Iconst 2; array_elem; B.Pop; B.Iconst 1;
               ])
            (I (B.Prefetch_dynamic { site; times = 2 }))
            show_int)
        [ 6; 9 ]

(* One run's result: how it ended, then (for a run that ended normally
   or on its step budget) its books. *)
let matrix_run engine ?(max_steps = max_int) code =
  let machine = Memsim.Config.pentium4 in
  let options =
    { (Vm.Interp.default_options machine) with Vm.Interp.max_steps; engine }
  in
  let interp = Vm.Interp.create ~options machine (matrix_program code) in
  let ended, complete =
    match Vm.Interp.run interp with
    | None -> ("returned nothing", true)
    | Some v -> ("returned " ^ Vm.Value.to_string v, true)
    | exception Vm.Interp.Budget_exhausted _ -> ("budget exhausted", true)
    | exception Vm.Interp.Vm_error msg -> ("vm error: " ^ msg, false)
    | exception Vm.Frame.Stack_error msg -> ("stack error: " ^ msg, false)
    | exception Invalid_argument msg -> ("invalid argument: " ^ msg, false)
  in
  let output = ended ^ "\n" ^ Vm.Interp.output interp in
  let books =
    if complete then
      books ~output ~interpreted:(Vm.Interp.interpreted_cycles interp)
        ~compiled:(Vm.Interp.compiled_cycles interp)
        ~gc_count:(Vm.Interp.gc_count interp) ~methods_compiled:0
        ~faulting:(Vm.Interp.faulting_prefetches interp)
        ~guard_trips:(Vm.Interp.spec_guard_trips interp)
        (Vm.Interp.stats interp)
    else (output, [])
  in
  (books, Vm.Interp.steps interp)

let test_every_instruction_every_entry () =
  Helpers.check_every_instr_complete ();
  let first = List.length prelude in
  List.iter
    (fun instr ->
      List.iter
        (fun c ->
          let entered_empty =
            c.setup @ [ J ("enter", fun t -> B.Goto t); L "enter" ] @ c.pushes @ [ c.instr ]
          in
          List.iter
            (fun (entry, body) ->
              let code = assemble (prelude @ body @ c.rest @ [ I B.Return ]) in
              let ctx =
                Printf.sprintf "%s %s (%s)" (B.to_string instr) c.name entry
              in
              let sw, steps = matrix_run Vm.Interp.Switch code in
              let cl, _ = matrix_run Vm.Interp.Closure code in
              check_same_books ~ctx sw cl;
              for max_steps = first to steps - 1 do
                let ctx = Printf.sprintf "%s, max_steps %d" ctx max_steps in
                check_same_books ~ctx
                  (fst (matrix_run Vm.Interp.Switch ~max_steps code))
                  (fst (matrix_run Vm.Interp.Closure ~max_steps code))
              done)
            [ ("entered empty", entered_empty); ("top cached", c.setup @ c.pushes @ [ c.instr ]) ])
        (cases_of instr))
    Helpers.every_instr

(* ---- values through every container ----

   Each value is routed through every place the VM stores one: the
   operand stack, a local, an object field, a static, a call argument
   and a return value, an int or ref array element, and [main]'s result.
   The pair encoding's edges are in the list: the extreme 63-bit ints,
   the ints just outside the old shared-box range, a reference and null.
   A field, ref element and int element never written read null, null
   and 0. The output is pinned and must be the same on both engines. *)
let through_containers push ~int =
  (push :: is [ B.Istore 3; B.Aload 2; B.Iload 3; put_next ])
  @ is [ B.Aload 2; get_next 0; put_s1; get_s1 1; B.Invoke 4; B.Istore 3 ]
  @ (if int then
       is
         [
           B.Aload 0; B.Iconst 2; B.Iload 3; B.Iastore { len_site = 2 };
           B.Aload 0; B.Iconst 2; B.Iaload { len_site = 3; elem_site = 4 };
           B.Istore 3; B.Iload 3; B.Print;
         ]
     else
       is
         [
           B.Aload 1; B.Iconst 0; B.Iload 3; B.Aastore { len_site = 2 };
           B.Aload 1; B.Iconst 0; B.Aaload { len_site = 3; elem_site = 4 };
           B.Istore 3;
         ])
  @ is [ B.Iload 3; B.Areturn ]

let container_cases =
  List.map
    (fun k ->
      ( string_of_int k,
        through_containers (I (B.Iconst k)) ~int:true,
        Printf.sprintf "returned %d\n%d\n" k k ))
    [ max_int; min_int; -129; 1024 ]
  @ [
      ("ref", through_containers (I (B.Aload 2)) ~int:false, "returned ref#2\n");
      ("null", through_containers (I B.Aconst_null) ~int:false, "returned null\n");
      ("unwritten field", is [ B.New 0; get_next 5; B.Areturn ], "returned null\n");
      ( "unwritten ref element",
        is [ B.Aload 1; B.Iconst 1; B.Aaload { len_site = 5; elem_site = 6 }; B.Areturn ],
        "returned null\n" );
      ( "unwritten int element",
        is [ B.Aload 0; B.Iconst 3; B.Iaload { len_site = 5; elem_site = 6 }; B.Areturn ],
        "returned 0\n" );
    ]

let test_values_survive_containers () =
  List.iter
    (fun (name, body, expected) ->
      let code = assemble (prelude @ body) in
      let sw, _ = matrix_run Vm.Interp.Switch code in
      let cl, _ = matrix_run Vm.Interp.Closure code in
      check_same_books ~ctx:name sw cl;
      Alcotest.(check string) (name ^ ": output") expected (fst sw))
    container_cases

let suite =
  [
    Alcotest.test_case "bit-identity: workload x machine x mode" `Slow
      test_bit_identity_matrix;
    Alcotest.test_case "bit-identity: fuzz corpus x oracle cells" `Slow
      test_fuzz_corpus_cells;
    Alcotest.test_case "observer twins on both engines" `Slow
      test_observer_twins;
    Alcotest.test_case "GC compaction mid-loop" `Quick
      test_gc_compaction_mid_loop;
    Alcotest.test_case "budget exhaustion is engine-invariant" `Quick
      test_budget_exhaustion_is_engine_invariant;
    Alcotest.test_case "re-run determinism" `Quick test_rerun_determinism;
    Alcotest.test_case "array path allocates nothing" `Quick
      test_array_path_allocates_nothing;
    Alcotest.test_case "recursion past the frame pool: words per level"
      `Quick test_recursion_words_per_level;
    Alcotest.test_case "every instruction in every entry state" `Quick
      test_every_instruction_every_entry;
    Alcotest.test_case "values survive every container" `Quick
      test_values_survive_containers;
  ]
