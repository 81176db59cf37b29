type t =
  | Unguarded_spec_loads
  | Skip_guard_dominance
  | Engine_desync
  | Hw_desync
  | Prediction_desync
  | Monitor_desync
  | Diff_desync

let all =
  [
    Unguarded_spec_loads;
    Skip_guard_dominance;
    Engine_desync;
    Hw_desync;
    Prediction_desync;
    Monitor_desync;
    Diff_desync;
  ]

let name = function
  | Unguarded_spec_loads -> "unguarded-spec-loads"
  | Skip_guard_dominance -> "skip-guard-dominance"
  | Engine_desync -> "engine-desync"
  | Hw_desync -> "hw-desync"
  | Prediction_desync -> "prediction-desync"
  | Monitor_desync -> "monitor-desync"
  | Diff_desync -> "diff-desync"

let of_string s = List.find_opt (fun f -> name f = s) all
