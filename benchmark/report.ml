(* Metric values, the summary statistics behind them, and the two output
   forms: one [name value unit] line per metric, then the result object
   as the last line of standard output. *)

module J = Telemetry.Json

type metric = { name : string; value : float; unit : string }

let metric name value unit = { name; value; unit }

let now = Unix.gettimeofday

(* Words allocated by this domain so far: minor + major - promoted. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile: with 400 samples, p = 0.975 leaves exactly
   ten samples above the one returned. *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "Report.percentile: no samples"
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Report.median: no samples"
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let print_metrics ms =
  List.iter (fun m -> Printf.printf "%s %.9g %s\n" m.name m.value m.unit) ms

let result_json ~correct ~attempted ~failed ms =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
             ms) );
    ]

(* The metric names BENCHMARK.json declares under [section]
   ("end_to_end" or "per_layer"). *)
let declared ~path section =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  match J.parse text with
  | Error e -> fail e
  | Ok json -> (
      match Option.bind (J.member section json) J.to_list_opt with
      | None -> fail ("no " ^ section ^ " list")
      | Some entries ->
          List.map
            (fun e ->
              match J.member "name" e with
              | Some (J.Str s) -> s
              | _ -> fail ("unnamed metric in " ^ section))
            entries)
