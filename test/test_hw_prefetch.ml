(* The RPT hardware-prefetcher suite: the Chen/Baer state machine unit
   by unit (transitions, degree/distance geometry, page clipping,
   aliasing, reset determinism), then the co-simulation golden laws at
   hierarchy level — hw=none is bit-identical to a zero-stream unit, and
   the RPT's pc indexing is engine-invariant (the switch and closure
   engines must feed it identical pcs, or cycle counts drift). *)

module Hw = Memsim.Hw_prefetch
module C = Memsim.Config
module W = Workloads.Workload
module H = Workloads.Harness

let rpt ?(table = 64) ?(degree = 1) ?(distance = 4) () =
  Hw.create
    ~model:(C.Hw_rpt { table_size = table; degree; distance })
    ~line_bytes:64 ~page_bytes:4096

let state t pc = Option.value ~default:"-" (Hw.rpt_state_name t ~pc)

let check_targets = Alcotest.(check (list int))
let check_state = Alcotest.(check string)

(* Initial --match--> Steady, --mismatch--> Transient;
   Transient --match--> Steady, --mismatch--> No_pred;
   Steady --mismatch--> Initial (stride kept);
   No_pred --match--> Transient. *)
let test_state_machine () =
  let t = rpt () in
  let pc = 5 in
  check_targets "first touch allocates, no prefetch" []
    (Hw.observe_miss t ~pc ~addr:0);
  check_state "fresh tracker starts Initial" "initial" (state t pc);
  check_targets "Initial mismatch trains the stride" []
    (Hw.observe_miss t ~pc ~addr:8);
  check_state "Initial -> Transient on mismatch" "transient" (state t pc);
  (* Stride 8 repeats: Transient -> Steady, and the first prefetch fires
     at addr + stride*distance = 16 + 32 = 48, line-aligned to 0. *)
  check_targets "Transient match prefetches" [ 0 ]
    (Hw.observe_miss t ~pc ~addr:16);
  check_state "Transient -> Steady on match" "steady" (state t pc);
  check_targets "Steady match keeps prefetching" [ 0 ]
    (Hw.observe_miss t ~pc ~addr:24);
  check_state "Steady stays Steady on match" "steady" (state t pc);
  (* A broken stride demotes Steady to Initial but keeps the old stride:
     one confirming miss re-promotes straight to Steady. *)
  check_targets "Steady mismatch stops prefetching" []
    (Hw.observe_miss t ~pc ~addr:100);
  check_state "Steady -> Initial on mismatch" "initial" (state t pc);
  check_targets "kept stride reconfirms in one miss" [ 128 ]
    (Hw.observe_miss t ~pc ~addr:108);
  check_state "Initial -> Steady on match" "steady" (state t pc);
  (* The NoPred arm: two consecutive mismatches park the tracker, and it
     needs two matches to climb back to Steady. *)
  let pc = 6 in
  ignore (Hw.observe_miss t ~pc ~addr:0);
  ignore (Hw.observe_miss t ~pc ~addr:8);
  check_targets "second mismatch parks the tracker" []
    (Hw.observe_miss t ~pc ~addr:24);
  check_state "Transient -> No_pred on mismatch" "nopred" (state t pc);
  check_targets "No_pred match does not prefetch yet" []
    (Hw.observe_miss t ~pc ~addr:40);
  check_state "No_pred -> Transient on match" "transient" (state t pc);
  check_targets "second match resumes prefetching" [ 64 ]
    (Hw.observe_miss t ~pc ~addr:56);
  check_state "Transient -> Steady" "steady" (state t pc)

let train t ~pc ~start ~stride =
  ignore (Hw.observe_miss t ~pc ~addr:start);
  ignore (Hw.observe_miss t ~pc ~addr:(start + stride))

let test_degree_and_distance () =
  let t = rpt ~degree:3 ~distance:2 () in
  let pc = 1 in
  train t ~pc ~start:0 ~stride:64;
  (* Steady at 128: degree 3 targets at stride*(distance+d), nearest
     first — 256, 320, 384, all line-aligned, all within the page. *)
  check_targets "degree>1 issues nearest-first" [ 256; 320; 384 ]
    (Hw.observe_miss t ~pc ~addr:128);
  (* Zero stride must never prefetch even from Steady. *)
  let pc = 2 in
  ignore (Hw.observe_miss t ~pc ~addr:512);
  ignore (Hw.observe_miss t ~pc ~addr:512);
  check_targets "zero stride is never prefetched" []
    (Hw.observe_miss t ~pc ~addr:512);
  check_state "zero-stride tracker still reaches Steady" "steady"
    (state t pc)

let test_page_clipping () =
  (* All targets beyond the 4 KiB page of the triggering miss: dropped. *)
  let t = rpt ~degree:2 ~distance:4 () in
  let pc = 1 in
  train t ~pc ~start:1024 ~stride:512;
  check_targets "whole window past the page boundary" []
    (Hw.observe_miss t ~pc ~addr:2048);
  (* Partial clipping: first target in-page, second out. *)
  let t = rpt ~degree:2 ~distance:1 () in
  let pc = 1 in
  train t ~pc ~start:2048 ~stride:512;
  check_targets "clipped to the triggering page" [ 3584 ]
    (Hw.observe_miss t ~pc ~addr:3072);
  (* Negative strides clip at address zero (page 0's lower edge). *)
  let t = rpt ~degree:1 ~distance:4 () in
  let pc = 1 in
  train t ~pc ~start:192 ~stride:(-64);
  check_targets "negative stride clips below zero" []
    (Hw.observe_miss t ~pc ~addr:128)

let test_aliasing_eviction () =
  (* Direct-mapped table of 4: pcs 3 and 7 collide on slot 3, and a miss
     from the aliasing pc evicts the trained tracker (tag replacement),
     losing its Steady state. *)
  let t = rpt ~table:4 () in
  train t ~pc:3 ~start:0 ~stride:64;
  check_targets "trained tracker prefetches" [ 384 ]
    (Hw.observe_miss t ~pc:3 ~addr:128);
  check_targets "aliasing pc evicts, no prefetch" []
    (Hw.observe_miss t ~pc:7 ~addr:8192);
  Alcotest.(check (option string))
    "evicted tracker no longer tagged" None
    (Hw.rpt_state_name t ~pc:3);
  check_state "usurper starts Initial" "initial" (state t 7);
  check_targets "evicted pc restarts cold" []
    (Hw.observe_miss t ~pc:3 ~addr:192)

let test_reset_determinism () =
  (* The same miss sequence must produce the same suggestion sequence
     before and after a reset — GC compaction relies on reset restoring
     the power-on state exactly. *)
  let t = rpt ~table:8 ~degree:2 ~distance:3 () in
  let misses =
    [ (1, 0); (1, 64); (1, 128); (2, 4096); (9, 8192); (1, 192); (2, 4160) ]
  in
  let feed () =
    List.map (fun (pc, addr) -> Hw.observe_miss t ~pc ~addr) misses
  in
  let first = feed () in
  Hw.reset t;
  Alcotest.(check (option string))
    "reset clears the tags" None
    (Hw.rpt_state_name t ~pc:1);
  let second = feed () in
  Alcotest.(check (list (list int)))
    "replay after reset is bit-identical" first second

(* ---- co-simulation golden laws (hierarchy level) ---- *)

let stride_workload =
  {
    W.name = "hwpf-fixture";
    suite = `Specjvm;
    description = "strided field walk (hw-prefetch test fixture)";
    paper_note = "";
    heap_limit_bytes = 8 * 1024 * 1024;
    source =
      {|
class Node { int v; Node(int x) { v = x; } }
class T {
  static int walk(Node[] ns) {
    int acc = 0;
    for (int i = 0; i < ns.length; i = i + 1) { acc = acc + ns[i].v; }
    return acc;
  }
  static void main() {
    Node[] ns = new Node[4000];
    for (int i = 0; i < 4000; i = i + 1) { ns[i] = new Node(i); }
    int acc = 0;
    for (int r = 0; r < 6; r = r + 1) { acc = (acc + T.walk(ns)) % 9973; }
    print(acc);
  }
}
|};
  }

let with_hw hw = { C.pentium4 with C.hw_prefetch = hw }

let check_same_run label (a : H.run_result) (b : H.run_result) =
  Alcotest.(check string) (label ^ ": output") a.output b.output;
  Alcotest.(check int) (label ^ ": cycles") a.cycles b.cycles;
  List.iter2
    (fun (k, va) (k', vb) ->
      Alcotest.(check string) (label ^ ": counter name") k k';
      Alcotest.(check int) (label ^ ": " ^ k) va vb)
    (Memsim.Stats.core_alist a.stats)
    (Memsim.Stats.core_alist b.stats)

let test_none_equals_zero_streams () =
  (* hw=none and a zero-stream unit must be the same machine, bit for
     bit: Hw_stream {streams=0} collapses to Disabled at creation. *)
  let run hw =
    H.run ~mode:Strideprefetch.Options.Inter_intra ~machine:(with_hw hw)
      stride_workload
  in
  check_same_run "none vs stream:0" (run C.Hw_none)
    (run (C.Hw_stream { streams = 0 }))

let test_rpt_engine_invariance () =
  (* The RPT is indexed by the packed pc of the missing instruction, and
     the two engines compute that pc differently (runtime frame.pc vs
     compile-time constant): if they ever disagree, RPT lookups diverge
     and so do cycle counts. This is the sharpest consumer of the
     engines' bit-identity contract. *)
  let req = H.request stride_workload in
  let run engine =
    H.execute
      {
        req with
        config =
          {
            Workloads.Run_config.default with
            machine = with_hw C.default_rpt;
            engine;
          };
      }
  in
  check_same_run "switch vs closure under rpt" (run Vm.Interp.Switch)
    (run Vm.Interp.Closure)

let test_hw_models_move_cycles_only () =
  (* The three models must agree on program output (the architectural
     surface) while being free to move cycles. *)
  let run hw =
    H.run ~mode:Strideprefetch.Options.Inter_intra ~machine:(with_hw hw)
      stride_workload
  in
  let none = run C.Hw_none in
  let stream = run C.default_stream in
  let rpt = run C.default_rpt in
  Alcotest.(check string) "stream output" none.output stream.output;
  Alcotest.(check string) "rpt output" none.output rpt.output;
  Alcotest.(check bool) "rpt actually prefetches" true
    Memsim.Stats.(rpt.H.stats.hw_prefetches > 0)

let suite =
  [
    ("rpt: state machine transitions", `Quick, test_state_machine);
    ("rpt: degree and distance geometry", `Quick, test_degree_and_distance);
    ("rpt: page clipping", `Quick, test_page_clipping);
    ("rpt: direct-mapped aliasing eviction", `Quick, test_aliasing_eviction);
    ("rpt: reset determinism", `Quick, test_reset_determinism);
    ("cosim: hw=none == stream:0 (bit-identical)", `Quick,
     test_none_equals_zero_streams);
    ("cosim: rpt pc indexing is engine-invariant", `Quick,
     test_rpt_engine_invariance);
    ("cosim: models move cycles only", `Quick,
     test_hw_models_move_cycles_only);
  ]
