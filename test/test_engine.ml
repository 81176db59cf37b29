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
              let run engine = H.run ~engine ~mode ~machine w in
              let ctx =
                Printf.sprintf "%s/%s" name machine.Memsim.Config.name
              in
              check_same_run ~ctx (run Vm.Interp.Switch)
                (run Vm.Interp.Closure))
            [ Strideprefetch.Options.Off; Strideprefetch.Options.Inter_intra ])
        [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ])
    [ "MonteCarlo"; "Euler" ]

(* [Harness.run] has no load-observer flag, so this run repeats its
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
  let harness ?telemetry ?profile ?monitor engine =
    books_of_run (H.run ~engine ?telemetry ?profile ?monitor ~mode ~machine w)
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
  let run engine = H.run ~engine ~mode ~machine gc_churn in
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
  let a = H.run ~engine:Vm.Interp.Closure ~mode ~machine w in
  let b = H.run ~engine:Vm.Interp.Closure ~mode ~machine w in
  check_same_run ~ctx:"rerun" a b

(* The closure engine's array path allocates nothing on the host: an int
   element loads as a shared small-int block, and neither the bounds-check
   load nor the element access builds a tuple. Two trip counts on fresh
   interpreters must then allocate exactly the same words. *)
let array_loop_source n =
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
    n

let test_array_path_allocates_nothing () =
  let run n =
    let program = Helpers.compile (array_loop_source n) in
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
  let expected n =
    let a = Array.make 64 0 and s = ref 0 in
    for i = 0 to n - 1 do
      a.(i mod 64) <- !s mod 100;
      s := a.((i + 1) mod 64) + 1
    done;
    Printf.sprintf "%d\n" !s
  in
  let out_short, words_short = run 200 in
  let out_long, words_long = run 900 in
  Alcotest.(check string) "N=200 output" (expected 200) out_short;
  Alcotest.(check string) "N=900 output" (expected 900) out_long;
  Alcotest.(check (float 0.)) "minor words independent of N" words_short
    words_long

let suite =
  [
    Alcotest.test_case "bit-identity: workload x machine x mode" `Slow
      test_bit_identity_matrix;
    Alcotest.test_case "observer twins on both engines" `Slow
      test_observer_twins;
    Alcotest.test_case "GC compaction mid-loop" `Quick
      test_gc_compaction_mid_loop;
    Alcotest.test_case "budget exhaustion is engine-invariant" `Quick
      test_budget_exhaustion_is_engine_invariant;
    Alcotest.test_case "re-run determinism" `Quick test_rerun_determinism;
    Alcotest.test_case "array path allocates nothing" `Quick
      test_array_path_allocates_nothing;
  ]
