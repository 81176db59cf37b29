(* Option parsing shared by the spf_* command-line drivers.

   Every binary used to carry its own copy of the machine / mode / engine /
   hw-prefetch / prediction converters, and the copies drifted (spf_prof
   had no --prediction, spf_mon no --hw-prefetch). Each binary now takes
   one [config_term] over the axes it accepts, and every value is parsed
   by Workloads.Run_config — the same parser behind spf_diff --vs and
   the bench cells — so an axis is spelled the same everywhere. *)

let workloads =
  Workloads.Specjvm.all @ Workloads.Javagrande.all @ Workloads.Phase.all

let find_workload name =
  List.find_opt
    (fun (w : Workloads.Workload.t) ->
      String.lowercase_ascii w.name = String.lowercase_ascii name)
    workloads

(* A workload named on the command line. An unknown name is a usage
   error (exit 124, cmdliner's) that lists the known names. *)
let workload_conv =
  let name (w : Workloads.Workload.t) = w.name in
  let parse s =
    match find_workload s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload '%s' (expected: %s)" s
               (String.concat ", " (List.map name workloads))))
  in
  let print ppf w = Format.pp_print_string ppf (name w) in
  Cmdliner.Arg.conv (parse, print)

module R = Workloads.Run_config

(* One axis as a cmdliner argument whose value sets that axis (parsed by
   Run_config); absent, it leaves the default in place. The standard
   passes are the one negative flag, [--no-passes]. *)
let axis_arg axis =
  let open Cmdliner in
  let setter names ~docv ~doc =
    let parse s = Result.map_error (fun e -> `Msg e) (R.parse axis s) in
    let print ppf set =
      Format.pp_print_string ppf (R.axis_value (set R.default) axis)
    in
    Arg.(value & opt (conv (parse, print)) Fun.id & info names ~docv ~doc)
  in
  match axis with
  | R.Machine ->
      setter [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Simulated machine (pentium4 or athlonmp)."
  | R.Mode ->
      setter [ "p"; "mode" ] ~docv:"MODE"
        ~doc:"Prefetching mode: off, inter, or inter+intra."
  | R.Engine ->
      setter [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,closure) (method bodies pre-compiled to \
           direct-threaded closure arrays; the default) or $(b,switch) \
           (the reference fetch/decode loop). Simulated results are \
           bit-identical either way; closure is faster on the host."
  | R.Hw ->
      setter [ "hw-prefetch" ] ~docv:"SPEC"
        ~doc:
          "Override the machine's hardware prefetcher: $(b,none), \
           $(b,stream[:STREAMS]) (the default sequential stream unit), or \
           $(b,rpt[:TABLExDEGREE@DISTANCE]) (a Chen/Baer reference \
           prediction table doing per-PC stride prediction, e.g. \
           $(b,rpt:64x2@4)). The simulated program behaves identically \
           under every model; only cycles and memory counters move."
  | R.Prediction ->
      setter [ "prediction" ] ~docv:"TIER"
        ~doc:
          "Stride-prediction source: $(b,inspect) (the paper's dynamic \
           object inspection; the default), $(b,static) (the \
           address-algebra abstract interpretation alone), or \
           $(b,hybrid) (static $(b,certain) verdicts skip the inspection \
           iterations, $(b,likely) shortens them, $(b,unknown) falls \
           back to full inspection). Program results are identical under \
           every tier; only compile-time work and the generated plans \
           may differ."
  | R.Threshold ->
      setter [ "threshold" ] ~docv:"BYTES"
        ~doc:
          "Inter-stride profitability threshold override (default: the \
           paper's half-line rule)."
  | R.Passes ->
      Term.(
        const (fun off (c : R.t) ->
            if off then { c with passes = false } else c)
        $ Arg.(
            value & flag
            & info [ "no-passes" ] ~doc:"Disable the standard JIT passes."))

(* The configuration term of a binary: exactly the axes it accepts, each
   parsed by Run_config, over [Run_config.default]. *)
let config_term axes =
  List.fold_left
    (fun acc axis -> Cmdliner.Term.(const ( |> ) $ acc $ axis_arg axis))
    (Cmdliner.Term.const R.default) axes

(* The one --inject term over the fault registry, restricted to the
   faults the tool can act on: any other name is a usage error (exit
   124), never a silently clean run. Repeatable. *)
let inject_arg ~doc accepted =
  let parse s =
    match Vm.Fault.of_string s with
    | Some f when List.mem f accepted -> Ok f
    | known ->
        Error
          (`Msg
            (Printf.sprintf "%s fault '%s' (expected: %s)"
               (if known = None then "unknown" else "unsupported")
               s
               (String.concat ", " (List.map Vm.Fault.name accepted))))
  in
  let print ppf f = Format.pp_print_string ppf (Vm.Fault.name f) in
  Cmdliner.Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "inject" ] ~docv:"FAULT"
        ~doc:
          (Printf.sprintf "%s $(docv) is %s." doc
             (String.concat " or "
                (List.map (fun f -> "$(b," ^ Vm.Fault.name f ^ ")") accepted))))
