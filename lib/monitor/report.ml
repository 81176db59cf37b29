(* The monitoring run's end product: the closed windows, the verdict
   timeline, and the joined per-loop / per-site context — plus the three
   renderings (terminal dashboard, JSONL time series, latency analysis).
   Built by {!Collector.report}; everything here is pure presentation
   over already-collected data. *)

type site_row = {
  site_label : string;
  site_total : Memsim.Attribution.site_counters;  (** whole-run counters *)
  site_post : Memsim.Attribution.site_counters option;
      (** counters accumulated {e since the first Degraded window} —
          present only when the run degraded; the pre/post contrast is
          the "top degrading sites" signal *)
}

type t = {
  window_cycles : int;
  windows : Window.t array;  (** oldest first; last may be partial *)
  first_degraded : int option;  (** window index *)
  degraded : (int * Detect.reason) list;  (** all Degraded windows, oldest first *)
  method_names : string array;  (** indexed by method id *)
  sites : site_row list;
  total_cycles : int;
  dropped_events : int;  (** telemetry ring drops, 0 when no sink *)
}

let make ~window_cycles ~windows ~first_degraded ~degraded ~method_names
    ~sites ~total_cycles ~dropped_events =
  {
    window_cycles;
    windows;
    first_degraded;
    degraded;
    method_names;
    sites;
    total_cycles;
    dropped_events;
  }

(* ---- detection latency ---- *)

(* The phase workloads print a marker value at the moment of the planted
   shift; [marker_offset] is that marker's byte offset in the final
   program output. The shift window is the first window whose cumulative
   [out_bytes] has passed the marker — i.e. the window during which the
   marker was printed. *)
let window_of_out_offset t offset =
  let n = Array.length t.windows in
  let rec find i =
    if i >= n then None
    else if t.windows.(i).Window.out_bytes > offset then Some i
    else find (i + 1)
  in
  find 0

type latency =
  | No_shift  (** the marker offset lies past every window *)
  | Undetected of int  (** shift located at this window, never flagged *)
  | Detected of { shift : int; degraded : int; latency : int }

let detection_latency t ~marker_offset =
  match window_of_out_offset t marker_offset with
  | None -> No_shift
  | Some shift -> (
      let hit =
        List.find_opt (fun (w, _) -> w >= shift) t.degraded
      in
      match hit with
      | None -> Undetected shift
      | Some (degraded, _) ->
          Detected { shift; degraded; latency = degraded - shift })

(* ---- sparklines ---- *)

let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]
(* U+2581..U+2588, the eight block elements *)

(* Render [f] over the windows as a sparkline of at most [width] glyphs,
   bucket-averaging when there are more windows than columns. Scaled to
   the series' own min/max (a flat series renders as all-low). *)
let sparkline ?(width = 60) t f =
  let n = Array.length t.windows in
  if n = 0 then ""
  else begin
    let cols = min width n in
    let vals =
      Array.init cols (fun c ->
          let lo = c * n / cols and hi = ((c + 1) * n / cols) - 1 in
          let hi = max lo hi in
          let sum = ref 0.0 in
          for i = lo to hi do
            sum := !sum +. f t.windows.(i)
          done;
          !sum /. float_of_int (hi - lo + 1))
    in
    let mn = Array.fold_left min vals.(0) vals in
    let mx = Array.fold_left max vals.(0) vals in
    let span = mx -. mn in
    let buf = Buffer.create (cols * 3) in
    Array.iter
      (fun v ->
        let i =
          if span <= 0.0 then 0
          else
            let x = (v -. mn) /. span *. 7.0 in
            min 7 (max 0 (int_of_float (Float.round x)))
        in
        Buffer.add_string buf spark_glyphs.(i))
      vals;
    Buffer.contents buf
  end

(* One character per column: '.' healthy, '~' drifting, 'D' degraded
   (the worst verdict in the column's bucket). *)
let verdict_strip ?(width = 60) t =
  let n = Array.length t.windows in
  if n = 0 then ""
  else begin
    let cols = min width n in
    let buf = Buffer.create cols in
    for c = 0 to cols - 1 do
      let lo = c * n / cols and hi = max (c * n / cols) (((c + 1) * n / cols) - 1) in
      let worst = ref 0 in
      for i = lo to hi do
        worst :=
          max !worst (Detect.verdict_code t.windows.(i).Window.verdict)
      done;
      Buffer.add_char buf
        (match !worst with 0 -> '.' | 1 -> '~' | _ -> 'D')
    done;
    Buffer.contents buf
  end

(* ---- dashboard ---- *)

let mean_over t f =
  let n = Array.length t.windows in
  if n = 0 then 0.0
  else Array.fold_left (fun a w -> a +. f w) 0.0 t.windows /. float_of_int n

(* Loop rows for the "top degrading loops" table: backedge share of each
   method before vs after the first Degraded window (whole run vs itself
   when the run never degraded, which renders as a flat share). *)
let loop_rows t =
  let n_m = Array.length t.method_names in
  let early = Array.make n_m 0 and late_ = Array.make n_m 0 in
  let split = match t.first_degraded with Some w -> w | None -> Array.length t.windows in
  Array.iteri
    (fun i w ->
      let dst = if i < split then early else late_ in
      Array.iteri
        (fun m be -> if m < n_m then dst.(m) <- dst.(m) + be)
        w.Window.method_backedges)
    t.windows;
  let tot_e = Array.fold_left ( + ) 0 early
  and tot_l = Array.fold_left ( + ) 0 late_ in
  let share tot a m = if tot = 0 then 0.0 else float_of_int a.(m) /. float_of_int tot in
  let rows =
    List.init n_m (fun m ->
        ( t.method_names.(m),
          share tot_e early m,
          share tot_l late_ m,
          early.(m) + late_.(m) ))
  in
  let rows = List.filter (fun (_, _, _, be) -> be > 0) rows in
  List.sort
    (fun (_, e1, l1, _) (_, e2, l2, _) ->
      compare (Float.abs (l2 -. e2)) (Float.abs (l1 -. e1)))
    rows

let site_rows t =
  let open Memsim.Attribution in
  let rate (c : site_counters) =
    let cl = c.useful + c.late + c.useless in
    if cl = 0 then 0.0 else float_of_int c.useful /. float_of_int cl
  in
  let degradation r =
    match r.site_post with
    | Some post -> rate r.site_total -. rate post
    | None -> 0.0
  in
  let rows = List.filter (fun r -> r.site_total.issued > 0) t.sites in
  ( List.sort (fun a b -> compare (degradation b) (degradation a)) rows,
    rate,
    degradation )

let pp_dashboard ?(top = 5) ppf t =
  let open Format in
  let n = Array.length t.windows in
  fprintf ppf "monitor: %d windows x %d cycles (%d total cycles)@."
    n t.window_cycles t.total_cycles;
  if t.dropped_events > 0 then
    fprintf ppf "telemetry: %d ring events dropped@." t.dropped_events;
  if n = 0 then fprintf ppf "(no windows closed)@."
  else begin
    let line label spark last mean =
      fprintf ppf "  %-12s %s  last %s  mean %s@." label spark last mean
    in
    line "useful-rate"
      (sparkline t Window.useful_rate)
      (sprintf "%.2f" (Window.useful_rate t.windows.(n - 1)))
      (sprintf "%.2f" (mean_over t Window.useful_rate));
    line "issued"
      (sparkline t (fun w -> float_of_int w.Window.issued))
      (sprintf "%d" t.windows.(n - 1).Window.issued)
      (sprintf "%.0f" (mean_over t (fun w -> float_of_int w.Window.issued)));
    line "mem-stall"
      (sparkline t (fun w -> float_of_int w.Window.mem))
      (sprintf "%d" t.windows.(n - 1).Window.mem)
      (sprintf "%.0f" (mean_over t (fun w -> float_of_int w.Window.mem)));
    line "allocs"
      (sparkline t (fun w -> float_of_int w.Window.allocs))
      (sprintf "%d" t.windows.(n - 1).Window.allocs)
      (sprintf "%.0f" (mean_over t (fun w -> float_of_int w.Window.allocs)));
    fprintf ppf "  %-12s %s@." "verdicts" (verdict_strip t);
    (match t.first_degraded with
    | Some w ->
        fprintf ppf "  first degraded: window %d at cycle %d@." w
          t.windows.(w).Window.cycles_end
    | None -> fprintf ppf "  no degradation detected@.");
    List.iteri
      (fun i (w, reason) ->
        if i < top then
          fprintf ppf "    w%-4d degraded  %s: %s@." w
            (Detect.reason_name reason)
            (Detect.describe_reason reason))
      t.degraded;
    let loops = loop_rows t in
    if loops <> [] then begin
      fprintf ppf "top loops (backedge share early -> late):@.";
      List.iteri
        (fun i (name, e, l, be) ->
          if i < top then
            fprintf ppf "  %-28s %.2f -> %.2f  (%d backedges)@." name e l be)
        loops
    end;
    let sites, rate, degradation = site_rows t in
    if sites <> [] then begin
      fprintf ppf "top sites:@.";
      List.iteri
        (fun i r ->
          if i < top then begin
            let c = r.site_total in
            fprintf ppf "  %-36s issued %-6d useful %5.1f%%" r.site_label
              c.Memsim.Attribution.issued
              (100.0 *. rate c);
            (match r.site_post with
            | Some post when post.Memsim.Attribution.issued > 0 ->
                fprintf ppf "  (post-shift %5.1f%%, drop %.1f)"
                  (100.0 *. rate post)
                  (100.0 *. degradation r)
            | _ -> ());
            fprintf ppf "@."
          end)
        sites
    end
  end

(* ---- JSONL time-series export ---- *)

let window_json (w : Window.t) =
  let open Telemetry.Json in
  let reason =
    match w.verdict with
    | Detect.Degraded r ->
        Obj
          [
            ("kind", Str (Detect.reason_name r));
            ("detail", Str (Detect.describe_reason r));
          ]
    | _ -> Null
  in
  Obj
    [
      ("window", Int w.index);
      ("boundary", Int w.boundary);
      ("cycles_end", Int w.cycles_end);
      ("cycles", Int (Window.cycles w));
      ("partial", Bool w.partial);
      ("issued", Int w.issued);
      ("cancelled", Int w.cancelled);
      ("redundant", Int w.redundant);
      ("redundant_hw", Int w.redundant_hw);
      ("useful", Int w.useful);
      ("late", Int w.late);
      ("useless", Int w.useless);
      ("useful_rate", Float (Window.useful_rate w));
      ( "stall",
        Obj
          [
            ("tlb", Int w.tlb);
            ("l1", Int w.l1);
            ("l2", Int w.l2);
            ("mem", Int w.mem);
          ] );
      ( "overhead",
        Obj
          [ ("pf", Int w.pf_overhead); ("guard", Int w.guard_overhead) ] );
      ("retire", Int w.retire);
      ( "alloc",
        Obj
          [
            ("count", Int w.allocs);
            ("bytes", Int w.alloc_bytes);
            ("fresh_sites", Int w.fresh_site_allocs);
            ("cycles", Int w.alloc_cycles);
          ] );
      ("gc", Obj [ ("count", Int w.gcs); ("cycles", Int w.gc_cycles) ]);
      ("backedges", Int w.backedges);
      ("invocations", Int w.invocations);
      ("out_bytes", Int w.out_bytes);
      ("verdict", Str (Detect.verdict_name w.verdict));
      ("reason", reason);
    ]

let jsonl_lines t =
  let open Telemetry.Json in
  let per_window =
    Array.to_list (Array.map (fun w -> to_string (window_json w)) t.windows)
  in
  let summary =
    Obj
      [
        ( "summary",
          Obj
            [
              ("windows", Int (Array.length t.windows));
              ("window_cycles", Int t.window_cycles);
              ("total_cycles", Int t.total_cycles);
              ( "first_degraded",
                match t.first_degraded with Some w -> Int w | None -> Null );
              ("degraded_windows", Int (List.length t.degraded));
              ("dropped_events", Int t.dropped_events);
            ] );
      ]
  in
  per_window @ [ to_string summary ]

let write_jsonl t oc =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (jsonl_lines t)
