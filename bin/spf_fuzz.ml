(* Differential fuzzing driver for the stride-prefetching pass.

   Generates seeded random MiniJava programs and checks each one across
   the full configuration matrix (prefetch mode x pipeline x machine);
   see lib/fuzz. Exit status 0 when every program passed, 1 when any
   finding was produced, 124 on a usage error (cmdliner's code, e.g. an
   unknown --inject fault), so the tool slots directly into CI. *)

open Cmdliner

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign seed. Program $(i,i) of the campaign uses derived \
           seed SEED+$(i,i); replay a single finding with $(b,--seed) \
           (SEED+$(i,i)) $(b,--count) 1.")

let count_arg =
  Arg.(
    value & opt int 100
    & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of programs to generate.")

let max_size_arg =
  Arg.(
    value & opt int 8
    & info [ "max-size" ] ~docv:"SIZE"
        ~doc:
          "Size budget: scales class count, structure sizes, kernel count \
           and loop trip counts. 6-10 is a good fuzzing range.")

let shrink_arg =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~docv:"BOOL"
        ~doc:"Minimize failing programs before reporting them.")

let shrink_attempts_arg =
  Arg.(
    value & opt int 400
    & info [ "shrink-attempts" ] ~docv:"N"
        ~doc:"Budget of oracle invocations per shrink.")

let dump_arg =
  Arg.(
    value & flag
    & info [ "dump" ]
        ~doc:
          "Print each generated program instead of checking it (generator \
           debugging).")

let inject_arg =
  Cli_common.inject_arg Vm.Fault.all
    ~doc:
      "Oracle self-test: inject a deliberate fault into every run and \
       confirm the oracle catches it (exit 1, with a replay line naming \
       the fault). EXPERIMENTS.md lists the check each fault proves live."

let quiet_arg =
  Arg.(
    value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary line.")

let run seed count max_size shrink shrink_attempts dump faults quiet =
  if dump then (
    for index = 0 to count - 1 do
      let g = Fuzz.Gen.generate ~seed:(seed + index) ~max_size in
      Printf.printf
        "// seed %d (heap limit %d bytes)\n%s\n"
        (seed + index) g.Fuzz.Gen.heap_limit_bytes (Fuzz.Gen.source g)
    done;
    0)
  else
    let progress ~index ~seed:_ =
      if (not quiet) && index > 0 && index mod 50 = 0 then (
        Printf.printf "  ... %d programs checked\n" index;
        flush stdout)
    in
    let campaign =
      Fuzz.Driver.run ~faults ~shrink ~shrink_attempts ~progress
        ~campaign_seed:seed ~count ~max_size ()
    in
    List.iter
      (fun f ->
        if not quiet then
          Format.printf "%a@.@." Fuzz.Driver.pp_finding f
        else
          Printf.printf "FAIL seed=%d index=%d replay: %s\n" f.Fuzz.Driver.seed
            f.Fuzz.Driver.index (Fuzz.Driver.replay f))
      campaign.Fuzz.Driver.findings;
    let failed = List.length campaign.Fuzz.Driver.findings in
    Printf.printf
      "fuzz: %d program(s), %d cell(s) each, seed %d: %d failure(s)\n"
      campaign.Fuzz.Driver.programs_run
      campaign.Fuzz.Driver.cells_per_program campaign.Fuzz.Driver.campaign_seed
      failed;
    if failed = 0 then 0 else 1

let cmd =
  let info =
    Cmd.info "spf_fuzz" ~version:"1.0"
      ~doc:
        "Differential fuzzing: generated MiniJava programs must behave \
         identically with stride prefetching off and on."
  in
  Cmd.v info
    Term.(
      const run $ seed_arg $ count_arg $ max_size_arg $ shrink_arg
      $ shrink_attempts_arg $ dump_arg $ inject_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
