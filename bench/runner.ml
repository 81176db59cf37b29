(* Parallel bench-matrix runner.

   The cells of the paper's evaluation are mutually independent: each
   run builds a fresh program, a fresh [Vm.Interp.t] and a fresh
   [Memsim.Hierarchy.t], and no library under [lib/] keeps top-level
   mutable state. That makes the matrix
   embarrassingly parallel, so we farm the cells out to a pool of OCaml 5
   Domains. Simulated cycle counts are a pure function of the cell, so the
   parallel runner is byte-identical to the serial one (asserted by
   test/test_bench_runner.ml); only host wall-clock changes. *)

module W = Workloads.Workload
module H = Workloads.Harness
module R = Workloads.Run_config

type cell = {
  workload : W.t;
  config : R.t;
  telemetry : bool;
  profile : bool;
  monitor : bool;
}

type timed = {
  cell : cell;
  result : H.run_result;
  seconds : float;  (** host wall-clock for this cell *)
}

let cell ?(telemetry = false) ?(profile = false) ?(monitor = false) workload
    config =
  { workload; config; telemetry; profile; monitor }

(* The axes a key names only off their default, with their spelling;
   this order, like the observers' before them, is frozen by the
   committed baselines. *)
let axis_suffixes =
  R.
    [
      (Engine, "/", "-engine");
      (Hw, "/hw=", "");
      (Threshold, "/thr=", "");
      (Prediction, "/pred=", "");
      (Passes, "/passes=", "");
    ]

let key ~workload ~telemetry ~profile ~monitor (c : R.t) =
  let observer on name = if on then "/" ^ name else "" in
  let axis (ax, prefix, suffix) =
    let v = R.axis_value c ax in
    if v = R.axis_value R.default ax then "" else prefix ^ v ^ suffix
  in
  String.concat ""
    ([
       workload; "/"; R.axis_value c R.Machine; "/"; R.axis_value c R.Mode;
       observer telemetry "telemetry"; observer profile "profile";
       observer monitor "monitor";
     ]
    @ List.map axis axis_suffixes)

let cell_key c =
  key ~workload:c.workload.W.name ~telemetry:c.telemetry ~profile:c.profile
    ~monitor:c.monitor c.config

let run_cell c =
  let t0 = Unix.gettimeofday () in
  let monitor =
    if c.monitor then Some Monitor.Collector.default_window_cycles else None
  in
  let result =
    H.run ~opts:(R.opts c.config) ~standard_passes:c.config.passes
      ~engine:c.config.engine ?monitor ~telemetry:c.telemetry
      ~profile:c.profile ~mode:c.config.mode ~machine:(R.machine c.config)
      c.workload
  in
  { cell = c; result; seconds = Unix.gettimeofday () -. t0 }

let default_jobs () = Domain.recommended_domain_count ()

let map ?progress ~jobs f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let results = Array.make n None in
  let jobs = max 1 (min jobs n) in
  let report =
    match progress with
    | None -> fun _ -> ()
    | Some progress ->
        let m = Mutex.create () in
        fun x ->
          Mutex.lock m;
          (try progress x with e -> Mutex.unlock m; raise e);
          Mutex.unlock m
  in
  if jobs = 1 then
    (* Serial fallback: no domains at all, to keep single-core runs and
       debugging sessions free of any runtime-parallelism overhead. *)
    Array.iteri
      (fun i x ->
        report x;
        results.(i) <- Some (f x))
      xs
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let x = xs.(i) in
          report x;
          (* Distinct domains write distinct indices of a boxed-option
             array: no data race, and [Domain.join] publishes the
             writes. *)
          results.(i) <- Some (f x)
        end
      done
    in
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  end;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> invalid_arg "Runner.map: unfilled slot (worker died?)")
       results)

let run_matrix ?progress ~jobs cells = map ?progress ~jobs run_cell cells
