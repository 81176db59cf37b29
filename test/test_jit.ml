(* Tests for the dynamic-compiler infrastructure: CFG, dominators, loop
   forest, abstract stack model, optimizer, pipeline. *)

module B = Vm.Bytecode

(* A hand-built doubly nested counting loop:
     0: iconst 0          ; i = 0
     1: istore 0
     2: iload 0           ; outer header
     3: iconst 10
     4: if_icmpge 16
     5: iconst 0          ; j = 0
     6: istore 1
     7: iload 1           ; inner header
     8: iconst 3
     9: if_icmpge 12
    10: ... inner body (iinc j) spread over 10..11
    12: iload 0           ; i++
    ...
    16: return *)
let nested_loop_code =
  [|
    B.Iconst 0; B.Istore 0;                                   (* 0 1 *)
    B.Iload 0; B.Iconst 10; B.If_icmp (B.Ge, 16);             (* 2 3 4 *)
    B.Iconst 0; B.Istore 1;                                   (* 5 6 *)
    B.Iload 1; B.Iconst 3; B.If_icmp (B.Ge, 12);              (* 7 8 9 *)
    B.Iload 1; B.Iconst 1;                                    (* 10 11 *)
    B.Iadd; B.Istore 1;                                       (* 12 13 — careful *)
    B.Goto 7;                                                 (* 14 *)
    B.Goto 2;                                                 (* 15 *)
    B.Return;                                                 (* 16 *)
  |]

(* The indices above drifted while writing; rebuild simply: *)
let nested_loop_code =
  ignore nested_loop_code;
  [|
    (* 0 *) B.Iconst 0;
    (* 1 *) B.Istore 0;
    (* outer header *)
    (* 2 *) B.Iload 0;
    (* 3 *) B.Iconst 10;
    (* 4 *) B.If_icmp (B.Ge, 18);
    (* 5 *) B.Iconst 0;
    (* 6 *) B.Istore 1;
    (* inner header *)
    (* 7 *) B.Iload 1;
    (* 8 *) B.Iconst 3;
    (* 9 *) B.If_icmp (B.Ge, 14);
    (* 10 *) B.Iload 1;
    (* 11 *) B.Iconst 1;
    (* 12 *) B.Iadd;
    (* 13 *) B.Goto 7;  (* oops: forgot istore — fine for CFG shape tests *)
    (* 14 *) B.Iload 0;
    (* 15 *) B.Iconst 1;
    (* 16 *) B.Iadd;
    (* 17 *) B.Goto 2;  (* missing istore as well; CFG-only fixture *)
    (* 18 *) B.Return;
  |]

(* --- cfg ----------------------------------------------------------------- *)

let test_cfg_blocks () =
  let cfg = Jit.Cfg.build nested_loop_code in
  (* leaders: 0, 2 (target), 5 (after branch), 7 (target), 10 (after
     branch), 14 (target), 18 (target) — and 14 is also after goto *)
  Alcotest.(check int) "block count" 7 (Jit.Cfg.n_blocks cfg);
  let entry = Jit.Cfg.block cfg 0 in
  Alcotest.(check (list int)) "entry succ" [ 1 ] entry.succs;
  let outer_header = Jit.Cfg.block cfg 1 in
  Alcotest.(check int) "outer header start" 2 outer_header.start_pc;
  Alcotest.(check (list int)) "outer header succs" [ 2; 6 ] outer_header.succs

let test_cfg_preds_match_succs () =
  let cfg = Jit.Cfg.build nested_loop_code in
  for b = 0 to Jit.Cfg.n_blocks cfg - 1 do
    List.iter
      (fun s ->
        if not (List.mem b (Jit.Cfg.block cfg s).preds) then
          Alcotest.failf "edge %d->%d missing reverse" b s)
      (Jit.Cfg.block cfg b).succs
  done

let test_cfg_rejects_bad_target () =
  Alcotest.(check bool) "out-of-range target rejected" true
    (try
       ignore (Jit.Cfg.build [| B.Goto 99 |]);
       false
     with Invalid_argument _ -> true)

(* --- dominators ---------------------------------------------------------- *)

let diamond =
  [|
    (* 0 *) B.Iconst 1;
    (* 1 *) B.If (B.Eq, 4);
    (* 2 *) B.Iconst 2;
    (* 3 *) B.Goto 5;
    (* 4 *) B.Iconst 3;
    (* 5 *) B.Return;
  |]

let test_dominators_diamond () =
  let cfg = Jit.Cfg.build diamond in
  let idom = Jit.Dominators.compute cfg in
  (* blocks: 0=[0,2) 1=[2,4) 2=[4,5) 3=[5,6) *)
  Alcotest.(check int) "idom entry" 0 idom.(0);
  Alcotest.(check int) "idom then" 0 idom.(1);
  Alcotest.(check int) "idom else" 0 idom.(2);
  Alcotest.(check int) "idom join" 0 idom.(3);
  Alcotest.(check bool) "entry dominates join" true
    (Jit.Dominators.dominates ~idom 0 3);
  Alcotest.(check bool) "then does not dominate join" false
    (Jit.Dominators.dominates ~idom 1 3)

let test_dominators_loop () =
  let cfg = Jit.Cfg.build nested_loop_code in
  let idom = Jit.Dominators.compute cfg in
  (* the outer header (block 1) dominates everything below it *)
  for b = 2 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "header dominates B%d" b)
      true
      (Jit.Dominators.dominates ~idom 1 b)
  done

let test_dominance_frontier_diamond () =
  let cfg = Jit.Cfg.build diamond in
  let idom = Jit.Dominators.compute cfg in
  let df = Jit.Dominators.dominance_frontier cfg ~idom in
  Alcotest.(check (list int)) "then's frontier is the join" [ 3 ] df.(1);
  Alcotest.(check (list int)) "else's frontier is the join" [ 3 ] df.(2)

(* --- loops --------------------------------------------------------------- *)

let test_loop_forest_nesting () =
  let cfg = Jit.Cfg.build nested_loop_code in
  let forest = Jit.Loops.analyze cfg in
  Alcotest.(check int) "two loops" 2 (Array.length forest.all);
  Alcotest.(check int) "one root" 1 (List.length forest.roots);
  let outer = List.hd forest.roots in
  Alcotest.(check int) "outer depth" 1 outer.depth;
  Alcotest.(check int) "one child" 1 (List.length outer.children);
  let inner = List.hd outer.children in
  Alcotest.(check int) "inner depth" 2 inner.depth;
  Alcotest.(check bool) "inner blocks inside outer" true
    (Jit.Loops.Int_set.subset inner.blocks outer.blocks)

let test_loop_postorder_inner_first () =
  let cfg = Jit.Cfg.build nested_loop_code in
  let forest = Jit.Loops.analyze cfg in
  match Jit.Loops.postorder forest with
  | [ first; second ] ->
      Alcotest.(check int) "inner first" 2 first.depth;
      Alcotest.(check int) "outer second" 1 second.depth
  | l -> Alcotest.failf "expected 2 loops, got %d" (List.length l)

let test_loop_of_pc () =
  let cfg = Jit.Cfg.build nested_loop_code in
  let forest = Jit.Loops.analyze cfg in
  (match Jit.Loops.loop_of_pc cfg forest 10 with
  | Some l -> Alcotest.(check int) "pc 10 in inner loop" 2 l.depth
  | None -> Alcotest.fail "pc 10 should be in a loop");
  (match Jit.Loops.loop_of_pc cfg forest 15 with
  | Some l -> Alcotest.(check int) "pc 15 in outer loop" 1 l.depth
  | None -> Alcotest.fail "pc 15 should be in a loop");
  Alcotest.(check bool) "pc 0 in no loop" true
    (Jit.Loops.loop_of_pc cfg forest 0 = None)

let test_no_loops () =
  let cfg = Jit.Cfg.build diamond in
  let forest = Jit.Loops.analyze cfg in
  Alcotest.(check int) "no loops" 0 (Array.length forest.all)

(* --- stack model --------------------------------------------------------- *)

(* tv.v[i] chasing: aload0 (param); getfield v; iload1; aaload; getfield f *)
let chase_code =
  [|
    (* 0 *) B.Aload 0;
    (* 1 *) B.Getfield { site = 0; offset = 8; name = "v"; is_ref = true };
    (* 2 *) B.Iload 1;
    (* 3 *) B.Aaload { len_site = 1; elem_site = 2 };
    (* 4 *) B.Getfield { site = 3; offset = 12; name = "f"; is_ref = false };
    (* 5 *) B.Ireturn;
  |]

let analyze code ~arity =
  Jit.Stack_model.analyze code ~arity
    ~callee_arity:(fun _ -> 0)
    ~callee_returns:(fun _ -> false)

let test_stack_model_chasing () =
  let infos = analyze chase_code ~arity:2 in
  let open Jit.Stack_model in
  Alcotest.(check bool) "site 0 base is param 0" true
    (infos.(0).base = Param 0);
  Alcotest.(check bool) "len site base is load 0" true
    (infos.(1).base = Load 0);
  Alcotest.(check bool) "elem site base is load 0" true
    (infos.(2).base = Load 0);
  Alcotest.(check bool) "site 3 base is the element load" true
    (infos.(3).base = Load 2);
  Alcotest.(check bool) "site 3 yields int" false infos.(3).yields_ref;
  Alcotest.(check bool) "site 0 yields ref" true infos.(0).yields_ref

let test_stack_model_through_local () =
  (* tmp = p.f; use tmp.g: dependence flows through the local *)
  let code =
    [|
      B.Aload 0;
      B.Getfield { site = 0; offset = 8; name = "f"; is_ref = true };
      B.Astore 1;
      B.Aload 1;
      B.Getfield { site = 1; offset = 12; name = "g"; is_ref = false };
      B.Ireturn;
    |]
  in
  let infos = analyze code ~arity:1 in
  Alcotest.(check bool) "through-local dependence" true
    (infos.(1).Jit.Stack_model.base = Jit.Stack_model.Load 0)

let test_stack_model_const_index_offset () =
  let code =
    [|
      B.Aload 0;
      B.Iconst 3;
      B.Aaload { len_site = 0; elem_site = 1 };
      B.Pop;
      B.Return;
    |]
  in
  let infos = analyze code ~arity:1 in
  Alcotest.(check bool) "elem offset for constant index" true
    (Jit.Stack_model.address_offset_of infos.(1) = Some (12 + (3 * 4)));
  Alcotest.(check bool) "length offset" true
    (Jit.Stack_model.address_offset_of infos.(0) = Some 8)

let test_stack_model_join_to_unknown () =
  (* two paths store different loads into the same local *)
  let code =
    [|
      (* 0 *) B.Iload 1;
      (* 1 *) B.If (B.Eq, 5);
      (* 2 *) B.Aload 0;
      (* 3 *) B.Getfield { site = 0; offset = 8; name = "a"; is_ref = true };
      (* 4 *) B.Goto 7;
      (* 5 *) B.Aload 0;
      (* 6 *) B.Getfield { site = 1; offset = 12; name = "b"; is_ref = true };
      (* 7 *) B.Astore 2;
      (* 8 *) B.Aload 2;
      (* 9 *) B.Getfield { site = 2; offset = 16; name = "c"; is_ref = false };
      (* 10 *) B.Ireturn;
    |]
  in
  let infos = analyze code ~arity:2 in
  Alcotest.(check bool) "join of two loads is unknown" true
    (infos.(2).Jit.Stack_model.base = Jit.Stack_model.Unknown)

(* --- optimizer ----------------------------------------------------------- *)

let test_fold_constants () =
  let code =
    [| B.Iconst 6; B.Iconst 7; B.Imul; B.Print; B.Return |]
  in
  let folded = Jit.Optimize.fold_constants code in
  Alcotest.(check int) "shorter" 3 (Array.length folded);
  Alcotest.(check bool) "folded to 42" true (folded.(0) = B.Iconst 42)

let test_fold_identities () =
  let code = [| B.Iload 0; B.Iconst 0; B.Iadd; B.Print; B.Return |] in
  let folded = Jit.Optimize.fold_constants code in
  Alcotest.(check int) "identity removed" 3 (Array.length folded)

let test_fold_preserves_targets () =
  (* goto over a foldable pair: the target must follow the fold *)
  let code =
    [|
      (* 0 *) B.Goto 3;
      (* 1 *) B.Iconst 1;
      (* 2 *) B.Print;
      (* 3 *) B.Iconst 2; (* target *)
      (* 4 *) B.Iconst 3;
      (* 5 *) B.Iadd;
      (* 6 *) B.Print;
      (* 7 *) B.Return;
    |]
  in
  let folded = Jit.Optimize.fold_constants code in
  (match folded.(0) with
  | B.Goto t ->
      Alcotest.(check bool) "target lands on folded iconst" true
        (folded.(t) = B.Iconst 5)
  | _ -> Alcotest.fail "expected goto");
  (* and running it prints only 5 *)
  let interp = Helpers.run_program (Helpers.program_of_code folded) in
  Alcotest.(check string) "behaviour" "5\n" (Vm.Interp.output interp)

let test_remove_unreachable () =
  let code =
    [|
      (* 0 *) B.Goto 3;
      (* 1 *) B.Iconst 9;
      (* 2 *) B.Print;
      (* 3 *) B.Return;
    |]
  in
  let out = Jit.Optimize.remove_unreachable code in
  Alcotest.(check int) "dead code dropped" 2 (Array.length out)

let test_peephole () =
  let code = [| B.Iconst 1; B.Dup; B.Pop; B.Print; B.Return |] in
  let out = Jit.Optimize.peephole code in
  Alcotest.(check int) "dup;pop removed" 3 (Array.length out);
  let goto_next = [| B.Goto 1; B.Return |] in
  Alcotest.(check int) "goto-to-next removed" 1
    (Array.length (Jit.Optimize.peephole goto_next))

let test_simplify_preserves_semantics () =
  (* run a real program both with the method bodies simplified and not *)
  let source =
    {|
class S {
  static int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + i * (3 + 4) + (0 + i);
      if (acc > 100) { acc = acc - 100; }
    }
    return acc;
  }
  static void main() {
    print(S.f(17));
    print(S.f(0));
  }
}
|}
  in
  let plain = Helpers.compile source in
  let expected =
    Vm.Interp.output (Helpers.run_program ~hot_threshold:1000 plain)
  in
  let optimized = Helpers.compile source in
  Array.iter
    (fun (m : Vm.Classfile.method_info) ->
      m.code <- Jit.Optimize.simplify m.code)
    optimized.methods;
  let got =
    Vm.Interp.output (Helpers.run_program ~hot_threshold:1000 optimized)
  in
  Alcotest.(check string) "same output" expected got

let prop_compact_identity =
  QCheck.Test.make ~name:"compact of all-Some is the identity" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 100))
    (fun ints ->
      let code =
        Array.of_list (List.map (fun n -> B.Iconst n) ints @ [ B.Return ])
      in
      Jit.Optimize.compact (Array.map Option.some code) = code)

(* --- pipeline ------------------------------------------------------------ *)

let test_pipeline_timings () =
  let program =
    Helpers.compile
      {|
class P {
  static int f(int x) {
    int acc = 0;
    for (int i = 0; i < x; i = i + 1) { acc = acc + i; }
    return acc;
  }
  static void main() { print(P.f(3) + P.f(4) + P.f(5)); }
}
|}
  in
  let pipeline = Jit.Pipeline.create (Jit.Pipeline.standard_passes ()) in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  Alcotest.(check int) "one method compiled" 1
    (Jit.Pipeline.methods_compiled pipeline);
  Alcotest.(check bool) "timings recorded" true
    (Jit.Pipeline.total_seconds pipeline > 0.0);
  Alcotest.(check (list string))
    "pass names" [ "analysis"; "simplify"; "dse" ]
    (Jit.Pipeline.pass_names pipeline);
  Alcotest.(check string) "program still correct" "19\n"
    (Vm.Interp.output interp)

let suite =
  [
    ("cfg: block structure", `Quick, test_cfg_blocks);
    ("cfg: preds match succs", `Quick, test_cfg_preds_match_succs);
    ("cfg: rejects bad branch target", `Quick, test_cfg_rejects_bad_target);
    ("dominators: diamond", `Quick, test_dominators_diamond);
    ("dominators: loop header dominates body", `Quick, test_dominators_loop);
    ("dominators: dominance frontier", `Quick, test_dominance_frontier_diamond);
    ("loops: nesting forest", `Quick, test_loop_forest_nesting);
    ("loops: postorder inner-first", `Quick, test_loop_postorder_inner_first);
    ("loops: loop_of_pc", `Quick, test_loop_of_pc);
    ("loops: acyclic code has none", `Quick, test_no_loops);
    ("stack model: reference chasing", `Quick, test_stack_model_chasing);
    ("stack model: dependence through locals", `Quick,
     test_stack_model_through_local);
    ("stack model: constant-index element offset", `Quick,
     test_stack_model_const_index_offset);
    ("stack model: joins lose precision safely", `Quick,
     test_stack_model_join_to_unknown);
    ("optimize: constant folding", `Quick, test_fold_constants);
    ("optimize: arithmetic identities", `Quick, test_fold_identities);
    ("optimize: folding preserves branch targets", `Quick,
     test_fold_preserves_targets);
    ("optimize: unreachable code elimination", `Quick, test_remove_unreachable);
    ("optimize: peephole", `Quick, test_peephole);
    ("optimize: simplify preserves semantics", `Quick,
     test_simplify_preserves_semantics);
    Helpers.qtest prop_compact_identity;
    ("pipeline: timings and correctness", `Quick, test_pipeline_timings);
  ]

(* --- inliner ------------------------------------------------------------- *)

let inline_source =
  {|
class Vec3 {
  int x; int y; int z;
  Vec3(int a, int b, int c) { x = a; y = b; z = c; }
  int norm1() { return x + y + z; }
  int scaled(int k) { return (x + y + z) * k; }
}
class K {
  static int sum(Vec3[] vs) {
    int acc = 0;
    for (int i = 0; i < vs.length; i = i + 1) {
      acc = acc + vs[i].norm1() + vs[i].scaled(2);
    }
    return acc;
  }
  static void main() {
    Vec3[] vs = new Vec3[200];
    for (int i = 0; i < 200; i = i + 1) { vs[i] = new Vec3(i, i + 1, i + 2); }
    print(K.sum(vs));
    print(K.sum(vs));
  }
}
|}

let expand_all program =
  Array.iter
    (fun (m : Vm.Classfile.method_info) ->
      ignore (Jit.Inline.expand ~program m))
    program.Vm.Classfile.methods

let test_inline_preserves_semantics () =
  let plain = Helpers.compile inline_source in
  let expected =
    Vm.Interp.output (Helpers.run_program ~hot_threshold:1_000_000 plain)
  in
  let inlined = Helpers.compile inline_source in
  expand_all inlined;
  let got =
    Vm.Interp.output (Helpers.run_program ~hot_threshold:1_000_000 inlined)
  in
  Alcotest.(check string) "output preserved" expected got

let test_inline_removes_calls () =
  let program = Helpers.compile inline_source in
  let m = Option.get (Vm.Classfile.find_method program "K.sum") in
  let count_invokes code =
    Array.fold_left
      (fun acc i ->
        match i with Vm.Bytecode.Invoke _ -> acc + 1 | _ -> acc)
      0 code
  in
  Alcotest.(check int) "two call sites before" 2 (count_invokes m.code);
  Alcotest.(check bool) "something inlined" true
    (Jit.Inline.expand ~program m);
  Alcotest.(check int) "no call sites after" 0 (count_invokes m.code);
  (* site ids must remain unique and dense enough for count_sites *)
  let sites =
    Array.to_list m.code |> List.concat_map Vm.Bytecode.all_sites
  in
  Alcotest.(check int) "sites unique"
    (List.length sites)
    (List.length (List.sort_uniq compare sites));
  Alcotest.(check bool) "n_sites covers all" true
    (List.for_all (fun s -> s < m.n_sites) sites)

let test_inline_skips_recursive_and_allocating () =
  let source =
    {|
class K {
  static int fact(int n) { if (n <= 1) { return 1; } return n * K.fact(n - 1); }
  static int[] make(int n) { return new int[n]; }
  static int drive() {
    int acc = 0;
    for (int i = 1; i < 5; i = i + 1) {
      acc = acc + K.fact(i) + K.make(i).length;
    }
    return acc;
  }
  static void main() { print(K.drive()); }
}
|}
  in
  let program = Helpers.compile source in
  let m = Option.get (Vm.Classfile.find_method program "K.drive") in
  Alcotest.(check bool) "nothing eligible" false
    (Jit.Inline.expand ~program m)

let test_inline_enables_prefetching () =
  (* the loop's loads hide behind the getter: without inlining the prefetch
     pass sees only an invoke; with inlining it finds the strides *)
  let source =
    {|
class Cell {
  int v; int p0; int p1; int p2; int p3; int p4;
  int p5; int p6; int p7; int p8; int p9; int pa;
  int pb; int pc; int pd; int pe; int pf; int pg;
  Cell(int x) { v = x;
    p0 = 0; p1 = 0; p2 = 0; p3 = 0; p4 = 0; p5 = 0; p6 = 0; p7 = 0;
    p8 = 0; p9 = 0; pa = 0; pb = 0; pc = 0; pd = 0; pe = 0; pf = 0; pg = 0; }
  int get() { return v; }
}
class K {
  static int sum(Cell[] cs) {
    int acc = 0;
    for (int i = 0; i < cs.length; i = i + 1) {
      acc = acc + cs[i].get();
    }
    return acc;
  }
  static void main() {
    Cell[] cs = new Cell[400];
    for (int i = 0; i < 400; i = i + 1) { cs[i] = new Cell(i); }
    int acc = 0;
    for (int r = 0; r < 4; r = r + 1) { acc = (acc + K.sum(cs)) % 65536; }
    print(acc);
  }
}
|}
  in
  let run ~with_inline =
    let program = Helpers.compile source in
    let opts = Strideprefetch.Options.default in
    let interp = Vm.Interp.create Memsim.Config.pentium4 program in
    let passes =
      (if with_inline then [ Jit.Inline.pass ~program () ] else [])
      @ Jit.Pipeline.standard_passes ()
      @ [ Strideprefetch.Pass.make_pass ~opts ~interp () ]
    in
    let pipeline = Jit.Pipeline.create passes in
    Vm.Interp.set_compile_hook interp (fun _ m args ->
        Jit.Pipeline.compile pipeline m args);
    ignore (Vm.Interp.run interp);
    let m = Option.get (Vm.Classfile.find_method program "K.sum") in
    let prefetches =
      Array.fold_left
        (fun acc i ->
          match i with
          | Vm.Bytecode.Prefetch_inter _ | Vm.Bytecode.Spec_load _
          | Vm.Bytecode.Prefetch_indirect _ ->
              acc + 1
          | _ -> acc)
        0 m.code
    in
    (Vm.Interp.output interp, prefetches)
  in
  let out_plain, prefetches_plain = run ~with_inline:false in
  let out_inlined, prefetches_inlined = run ~with_inline:true in
  Alcotest.(check string) "outputs agree" out_plain out_inlined;
  Alcotest.(check int) "no prefetch without inlining" 0 prefetches_plain;
  Alcotest.(check bool) "prefetch appears after inlining" true
    (prefetches_inlined > 0)

let inline_suite =
  [
    ("inline: preserves semantics", `Quick, test_inline_preserves_semantics);
    ("inline: removes call sites, renumbers sites", `Quick,
     test_inline_removes_calls);
    ("inline: skips recursive and allocating callees", `Quick,
     test_inline_skips_recursive_and_allocating);
    ("inline: exposes loads to the prefetch pass", `Quick,
     test_inline_enables_prefetching);
  ]

let suite = suite @ inline_suite

(* --- liveness ------------------------------------------------------------ *)

let test_liveness_straightline () =
  let code =
    [|
      (* 0 *) B.Iconst 1;
      (* 1 *) B.Istore 0;
      (* 2 *) B.Iload 0;
      (* 3 *) B.Print;
      (* 4 *) B.Return;
    |]
  in
  let l = Jit.Liveness.analyze code in
  Alcotest.(check bool) "local 0 live after the store" true
    (Jit.Liveness.Int_set.mem 0 (Jit.Liveness.live_out l 1));
  Alcotest.(check bool) "local 0 dead after its last use" false
    (Jit.Liveness.Int_set.mem 0 (Jit.Liveness.live_out l 2))

let test_liveness_loop_carried () =
  (* i is read at the loop head after being written at the bottom: it must
     be live across the back edge *)
  let code =
    [|
      (* 0 *) B.Iconst 0;
      (* 1 *) B.Istore 0;
      (* 2 *) B.Iload 0;
      (* 3 *) B.Iconst 10;
      (* 4 *) B.If_icmp (B.Ge, 10);
      (* 5 *) B.Iload 0;
      (* 6 *) B.Iconst 1;
      (* 7 *) B.Iadd;
      (* 8 *) B.Istore 0;
      (* 9 *) B.Goto 2;
      (* 10 *) B.Return;
    |]
  in
  let l = Jit.Liveness.analyze code in
  Alcotest.(check bool) "live across the back edge" true
    (Jit.Liveness.Int_set.mem 0 (Jit.Liveness.live_out l 8))

let test_dead_store_elimination () =
  let code =
    [|
      (* 0 *) B.Iconst 7;
      (* 1 *) B.Istore 3;  (* never read again: dead *)
      (* 2 *) B.Iconst 1;
      (* 3 *) B.Print;
      (* 4 *) B.Return;
    |]
  in
  let out = Jit.Liveness.eliminate_dead_stores code in
  Alcotest.(check bool) "dead store became pop" true (out.(1) = B.Pop);
  let interp = Helpers.run_program (Helpers.program_of_code out) in
  Alcotest.(check string) "still behaves" "1\n" (Vm.Interp.output interp)

let test_dse_preserves_semantics () =
  let source =
    {|
class S {
  static int f(int n) {
    int waste = n * 3;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      int tmp = acc + i;
      acc = tmp;
      waste = tmp * 2;
    }
    return acc;
  }
  static void main() { print(S.f(10)); print(S.f(0)); }
}
|}
  in
  let plain = Helpers.compile source in
  let expected =
    Vm.Interp.output (Helpers.run_program ~hot_threshold:1000 plain)
  in
  let optimized = Helpers.compile source in
  Array.iter
    (fun (m : Vm.Classfile.method_info) ->
      m.code <- Jit.Liveness.eliminate_dead_stores m.code)
    optimized.methods;
  let got =
    Vm.Interp.output (Helpers.run_program ~hot_threshold:1000 optimized)
  in
  Alcotest.(check string) "same output" expected got

let liveness_suite =
  [
    ("liveness: straight-line", `Quick, test_liveness_straightline);
    ("liveness: loop-carried", `Quick, test_liveness_loop_carried);
    ("liveness: dead store elimination", `Quick, test_dead_store_elimination);
    ("liveness: DSE preserves semantics", `Quick, test_dse_preserves_semantics);
  ]

let suite = suite @ liveness_suite

(* --- verifier ------------------------------------------------------------ *)

(* The type-state verifier ([Analysis.Typestate]) accepts every method
   of [program]. *)
let verifies ~program =
  Array.iter (fun (m : Vm.Classfile.method_info) ->
      match Analysis.Typestate.check ~program m with
      | [] -> ()
      | d :: _ -> Alcotest.fail (Analysis.Diag.render ~meth:m d))
    program.Vm.Classfile.methods

let verify_program source =
  let program = Helpers.compile source in
  verifies ~program;
  program

let test_verify_accepts_frontend_output () =
  (* everything the frontend emits must verify, before and after the
     whole optimization stack *)
  let program = verify_program Test_strideprefetch.quickstart_source in
  let opts = Strideprefetch.Options.default in
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  let pipeline =
    Jit.Pipeline.create
      ([ Jit.Inline.pass ~program () ]
      @ Jit.Pipeline.standard_passes ()
      @ [ Strideprefetch.Pass.make_pass ~opts ~interp () ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  verifies ~program

let test_verify_rejects_malformed () =
  let program = Helpers.compile "class A { static void main() { print(1); } }" in
  let expect_error code =
    let m =
      Vm.Classfile.make_method ~method_id:0 ~method_name:"T.bad" ~arity:0
        ~returns_value:false ~max_locals:2 ~code
    in
    if Analysis.Typestate.check ~program m = [] then
      Alcotest.failf "malformed body accepted"
  in
  (* branch out of range *)
  expect_error [| B.Goto 99 |];
  (* stack underflow *)
  expect_error [| B.Iadd; B.Return |];
  (* falls off the end *)
  expect_error [| B.Iconst 1; B.Pop |];
  (* inconsistent join: one path pushes, the other does not *)
  expect_error
    [|
      (* 0 *) B.Iconst 0;
      (* 1 *) B.If (B.Eq, 3);
      (* 2 *) B.Iconst 5;
      (* 3 *) B.Return;
    |];
  (* local out of bounds *)
  expect_error [| B.Iload 7; B.Pop; B.Return |];
  (* prefetch register out of bounds *)
  expect_error
    [| B.Prefetch_indirect { reg = 0; offset = 8; guarded = false }; B.Return |]

let test_verify_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let program = Workloads.Workload.compile w in
      verifies ~program)
    (Workloads.Specjvm.all @ Workloads.Javagrande.all)

let verify_suite =
  [
    ("verify: accepts frontend + optimized output", `Quick,
     test_verify_accepts_frontend_output);
    ("verify: rejects malformed bodies", `Quick, test_verify_rejects_malformed);
    ("verify: all workloads verify", `Quick, test_verify_all_workloads);
  ]

let suite = suite @ verify_suite
