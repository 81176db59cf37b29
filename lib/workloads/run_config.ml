module C = Memsim.Config
module O = Strideprefetch.Options

type t = {
  machine : C.machine;
  hw : C.hw_prefetch_model option;
  mode : O.mode;
  passes : bool;
  engine : Vm.Interp.engine;
  prediction : O.prediction_tier;
  threshold : int option;
}

let default =
  {
    machine = C.pentium4;
    hw = None;
    mode = O.Inter_intra;
    passes = true;
    engine = Vm.Interp.Closure;
    prediction = O.Inspect;
    threshold = None;
  }

let machine c =
  match c.hw with
  | None -> c.machine
  | Some hw -> { c.machine with C.hw_prefetch = hw }

let opts c =
  {
    O.default with
    O.prediction = c.prediction;
    inter_stride_threshold = c.threshold;
  }

type axis = Mode | Machine | Hw | Threshold | Prediction | Passes | Engine

(* Cycle-moving axes first; the engine is simulation-neutral by
   construction (bit-identical cycles on both engines, fuzz-enforced),
   so the bisector probing it last can skip it entirely. *)
let all_axes = [ Mode; Machine; Hw; Threshold; Prediction; Passes; Engine ]

let axis_name = function
  | Mode -> "mode"
  | Machine -> "machine"
  | Hw -> "hw"
  | Threshold -> "threshold"
  | Prediction -> "prediction"
  | Passes -> "passes"
  | Engine -> "engine"

let axis_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "mode" | "p" -> Some Mode
  | "machine" | "m" -> Some Machine
  | "hw" | "hw-prefetch" -> Some Hw
  | "threshold" | "thr" -> Some Threshold
  | "prediction" | "pred" -> Some Prediction
  | "passes" -> Some Passes
  | "engine" -> Some Engine
  | _ -> None

let parse axis v =
  let lower = String.lowercase_ascii (String.trim v) in
  match axis with
  | Mode -> Result.map (fun mode c -> { c with mode }) (O.mode_of_string v)
  | Machine -> (
      match C.machine_of_name (String.trim v) with
      | Some machine -> Ok (fun c -> { c with machine })
      | None ->
          Error
            (Printf.sprintf "unknown machine %S (expected: %s)" v
               (String.concat ", "
                  (List.map (fun (m : C.machine) -> m.name) C.machines))))
  | Hw ->
      Result.map
        (fun hw c -> { c with hw = Some hw })
        (C.hw_prefetch_of_string v)
  | Threshold -> (
      match (lower, int_of_string_opt lower) with
      | "default", _ -> Ok (fun c -> { c with threshold = None })
      | _, Some n -> Ok (fun c -> { c with threshold = Some n })
      | _, None ->
          Error (Printf.sprintf "bad threshold %S (an integer or default)" v))
  | Prediction ->
      Result.map
        (fun prediction c -> { c with prediction })
        (O.prediction_of_string v)
  | Passes -> (
      match lower with
      | "on" | "true" -> Ok (fun c -> { c with passes = true })
      | "off" | "false" -> Ok (fun c -> { c with passes = false })
      | _ -> Error (Printf.sprintf "bad passes value %S (on/off)" v))
  | Engine -> (
      match Vm.Interp.engine_of_string lower with
      | Some engine -> Ok (fun c -> { c with engine })
      | None ->
          Error
            (Printf.sprintf "unknown engine %S (expected closure or switch)"
               v))

let resolved_hw c = (machine c).C.hw_prefetch

let axis_value c = function
  | Mode -> O.mode_name c.mode
  | Machine -> c.machine.C.name
  | Hw -> C.hw_prefetch_to_string (resolved_hw c)
  | Threshold -> (
      match c.threshold with None -> "default" | Some n -> string_of_int n)
  | Prediction -> O.prediction_name c.prediction
  | Passes -> if c.passes then "on" else "off"
  | Engine -> Vm.Interp.engine_name c.engine

let differing ~a ~b =
  List.filter (fun ax -> axis_value a ax <> axis_value b ax) all_axes

let equal a b = differing ~a ~b = []

let transplant ax ~src dst =
  match ax with
  | Mode -> { dst with mode = src.mode }
  | Machine -> { dst with machine = src.machine }
  | Hw -> { dst with hw = Some (resolved_hw src) }
  | Threshold -> { dst with threshold = src.threshold }
  | Prediction -> { dst with prediction = src.prediction }
  | Passes -> { dst with passes = src.passes }
  | Engine -> { dst with engine = src.engine }

let apply_one c kv =
  match String.index_opt kv '=' with
  | None -> Error (Printf.sprintf "override %S is not key=value" kv)
  | Some i -> (
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      match axis_of_name key with
      | Some ax -> Result.map (fun set -> set c) (parse ax v)
      | None ->
          Error
            (Printf.sprintf "unknown axis %S (%s)" key
               (String.concat ", " (List.map axis_name all_axes))))

let apply_overrides c spec =
  match
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty override list"
  | parts ->
      List.fold_left (fun acc kv -> Result.bind acc (fun c -> apply_one c kv))
        (Ok c) parts

let to_string c =
  String.concat ","
    (List.map (fun ax -> axis_name ax ^ "=" ^ axis_value c ax) all_axes)
