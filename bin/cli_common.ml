(* Option parsing shared by the spf_* command-line drivers.

   Every binary used to carry its own copy of the machine / mode / engine /
   hw-prefetch / prediction converters, and the copies drifted (spf_prof
   had no --prediction, spf_mon no --hw-prefetch). The single definitions
   here are the only ones: a new axis added to one tool is automatically
   spelled the same everywhere, which the diff engine's --vs override
   parser (Diff.Bisect) relies on. *)

let workloads =
  Workloads.Specjvm.all @ Workloads.Javagrande.all @ Workloads.Phase.all

let find_workload name =
  List.find_opt
    (fun (w : Workloads.Workload.t) ->
      String.lowercase_ascii w.name = String.lowercase_ascii name)
    workloads

let machine_conv =
  let parse s =
    match Memsim.Config.machine_of_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown machine '%s' (expected: %s)" s
               (String.concat ", "
                  (List.map
                     (fun (m : Memsim.Config.machine) -> m.name)
                     Memsim.Config.machines))))
  in
  let print ppf (m : Memsim.Config.machine) = Format.fprintf ppf "%s" m.name in
  Cmdliner.Arg.conv (parse, print)

let mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "off" | "baseline" -> Ok Strideprefetch.Options.Off
    | "inter" -> Ok Strideprefetch.Options.Inter
    | "inter+intra" | "inter_intra" | "interintra" ->
        Ok Strideprefetch.Options.Inter_intra
    | _ -> Error (`Msg "expected one of: off, inter, inter+intra")
  in
  let print ppf m =
    Format.fprintf ppf "%s" (Strideprefetch.Options.mode_name m)
  in
  Cmdliner.Arg.conv (parse, print)

let engine_conv =
  let parse s =
    match Vm.Interp.engine_of_string (String.lowercase_ascii s) with
    | Some e -> Ok e
    | None -> Error (`Msg "expected one of: closure, switch")
  in
  let print ppf e = Format.fprintf ppf "%s" (Vm.Interp.engine_name e) in
  Cmdliner.Arg.conv (parse, print)

let hw_prefetch_conv =
  let parse s =
    match Memsim.Config.hw_prefetch_of_string s with
    | Ok hw -> Ok hw
    | Error e -> Error (`Msg e)
  in
  let print ppf hw =
    Format.fprintf ppf "%s" (Memsim.Config.hw_prefetch_to_string hw)
  in
  Cmdliner.Arg.conv (parse, print)

let prediction_conv =
  let parse s =
    match Strideprefetch.Options.prediction_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print ppf p =
    Format.fprintf ppf "%s" (Strideprefetch.Options.prediction_name p)
  in
  Cmdliner.Arg.conv (parse, print)

let machine_arg =
  Cmdliner.Arg.(
    value
    & opt machine_conv Memsim.Config.pentium4
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Simulated machine (pentium4 or athlonmp).")

let mode_arg =
  Cmdliner.Arg.(
    value
    & opt mode_conv Strideprefetch.Options.Inter_intra
    & info [ "p"; "mode" ] ~docv:"MODE"
        ~doc:"Prefetching mode: off, inter, or inter+intra.")

let engine_arg =
  Cmdliner.Arg.(
    value
    & opt engine_conv Vm.Interp.Closure
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,closure) (method bodies pre-compiled to \
           direct-threaded closure arrays; the default) or $(b,switch) \
           (the reference fetch/decode loop). Simulated results are \
           bit-identical either way; closure is faster on the host.")

let hw_prefetch_arg =
  Cmdliner.Arg.(
    value
    & opt (some hw_prefetch_conv) None
    & info [ "hw-prefetch" ] ~docv:"SPEC"
        ~doc:
          "Override the machine's hardware prefetcher: $(b,none), \
           $(b,stream[:STREAMS]) (the default sequential stream unit), or \
           $(b,rpt[:TABLExDEGREE@DISTANCE]) (a Chen/Baer reference \
           prediction table doing per-PC stride prediction, e.g. \
           $(b,rpt:64x2@4)). The simulated program behaves identically \
           under every model; only cycles and memory counters move.")

let prediction_arg =
  Cmdliner.Arg.(
    value
    & opt prediction_conv Strideprefetch.Options.Inspect
    & info [ "prediction" ] ~docv:"TIER"
        ~doc:
          "Stride-prediction source: $(b,inspect) (the paper's dynamic \
           object inspection; the default), $(b,static) (the \
           address-algebra abstract interpretation alone), or \
           $(b,hybrid) (static $(b,certain) verdicts skip the inspection \
           iterations, $(b,likely) shortens them, $(b,unknown) falls \
           back to full inspection). Program results are identical under \
           every tier; only compile-time work and the generated plans \
           may differ.")

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

let apply_hw_prefetch hw (machine : Memsim.Config.machine) =
  match hw with
  | None -> machine
  | Some hw -> { machine with Memsim.Config.hw_prefetch = hw }
