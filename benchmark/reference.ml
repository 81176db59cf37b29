(* Host-speed reference. On a shared host the speed of one core drifts by
   tens of percent within seconds and over minutes, as other tenants load
   the same cores and caches: far more than any change worth detecting.
   So every end-to-end time is scaled by a reference kernel sampled while
   the workload runs: fixed work over a 2 MiB table that shares no code
   with the simulator, so no change under test can move it. A scaled
   second is a second on a host where the kernel takes [seconds].

   An interval timer samples the kernel every [interval] seconds, also in
   the middle of a long cell, and the time each sample takes is removed
   from whatever span it interrupted. Of three kernels tried (this one,
   the same over 16 MiB, and a closure-threaded interpreter loop) this
   one tracked the simulator's drift best. *)

let seconds = 0.01
let interval = 0.2
let table = Array.make (1 lsl 18) 0

let kernel () =
  let t0 = Report.now () in
  let x = ref 12345 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (Array.length table - 1) in
    table.(j) <- table.(j) + (!x land 1)
  done;
  Report.now () -. t0

(* (start time, kernel seconds), newest first; and the host time all
   samples took so far. *)
let samples = ref []
let stolen = ref 0.0

let sample () =
  let t0 = Report.now () in
  let k = kernel () in
  samples := (t0, k) :: !samples;
  stolen := !stolen +. (Report.now () -. t0)

let set_timer v =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

(* Run [f] with the kernel sampled before it, from the timer while it
   runs, and after it. *)
let with_sampling f =
  samples := [];
  stolen := 0.0;
  sample ();
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  set_timer interval;
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.0;
      Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
      sample ())
    f

type span = { t0 : float; t1 : float; stolen : float }

let span f =
  let t0 = Report.now () and s0 = !stolen in
  let r = f () in
  (r, { t0; t1 = Report.now (); stolen = !stolen -. s0 })

(* The span's own time, scaled by the mean kernel time over it: every
   sample taken inside it and the nearest one on each side. Call after
   [with_sampling] returned. *)
let scaled sp =
  let inside = List.filter (fun (t, _) -> t >= sp.t0 && t < sp.t1) !samples in
  let before = List.find_opt (fun (t, _) -> t < sp.t0) !samples in
  let after = List.find_opt (fun (t, _) -> t >= sp.t1) (List.rev !samples) in
  let ks = List.map snd (Option.to_list before @ inside @ Option.to_list after) in
  (sp.t1 -. sp.t0 -. sp.stolen) *. seconds *. float_of_int (List.length ks) /. Report.sum ks

let median_kernel () = Report.median (List.map snd !samples)
