type pass = {
  pass_name : string;
  apply : Vm.Classfile.method_info -> Vm.Value.t array -> unit;
}

exception
  Verification_failed of {
    pass_name : string;
    method_name : string;
    message : string;
  }

type t = {
  passes : pass list;
  verifier : (Vm.Classfile.method_info -> (unit, string) result) option;
  span : name:string -> meth:string -> (unit -> unit) -> unit;
      (** telemetry hook wrapping the whole compilation and each pass;
          the default just runs the thunk *)
  on_mutate : Vm.Classfile.method_info -> unit;
      (** execution-engine recompilation hook, run after each pass (and
          its verification): a pass may have swapped [method_info.code],
          staling the closure engine's compiled artifact *)
  timings : (string, float) Hashtbl.t;
  mutable compiled : int;
}

let no_span ~name:_ ~meth:_ f = f ()

let create ?verifier ?(span = no_span) ?(on_mutate = fun _ -> ()) passes =
  { passes; verifier; span; on_mutate; timings = Hashtbl.create 8; compiled = 0 }

let analysis_pass (m : Vm.Classfile.method_info) (_args : Vm.Value.t array) =
  let cfg = Cfg.build m.code in
  let idom = Dominators.compute cfg in
  let _forest = Loops.analyze cfg in
  let _frontier = Dominators.dominance_frontier cfg ~idom in
  ()

let simplify_pass (m : Vm.Classfile.method_info) (_args : Vm.Value.t array) =
  m.code <- Optimize.simplify m.code

let dead_store_pass (m : Vm.Classfile.method_info) (_args : Vm.Value.t array) =
  m.code <- Liveness.eliminate_dead_stores m.code

let standard_passes () =
  [
    { pass_name = "analysis"; apply = analysis_pass };
    { pass_name = "simplify"; apply = simplify_pass };
    { pass_name = "dse"; apply = dead_store_pass };
  ]

let now_seconds () = Unix.gettimeofday ()

let check_after_pass t pass_name (m : Vm.Classfile.method_info) =
  match t.verifier with
  | None -> ()
  | Some verify -> (
      match verify m with
      | Ok () -> ()
      | Error message ->
          raise
            (Verification_failed
               { pass_name; method_name = m.method_name; message }))

let compile t (m : Vm.Classfile.method_info) args =
  t.span ~name:"compile" ~meth:m.method_name (fun () ->
      let start_method = now_seconds () in
      List.iter
        (fun pass ->
          t.span ~name:("pass:" ^ pass.pass_name) ~meth:m.method_name
            (fun () ->
              let start = now_seconds () in
              pass.apply m args;
              let elapsed = now_seconds () -. start in
              let prior =
                Option.value ~default:0.0
                  (Hashtbl.find_opt t.timings pass.pass_name)
              in
              Hashtbl.replace t.timings pass.pass_name (prior +. elapsed);
              check_after_pass t pass.pass_name m;
              t.on_mutate m))
        t.passes;
      m.compile_seconds <-
        m.compile_seconds +. (now_seconds () -. start_method);
      t.compiled <- t.compiled + 1)

let seconds_of_pass t name =
  Option.value ~default:0.0 (Hashtbl.find_opt t.timings name)

let total_seconds t = Hashtbl.fold (fun _ s acc -> acc +. s) t.timings 0.0
let pass_names t = List.map (fun p -> p.pass_name) t.passes
let methods_compiled t = t.compiled
