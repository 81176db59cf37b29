(* Tests for the differential fuzzing subsystem (lib/fuzz): generator
   determinism and well-typedness, pretty-printer round-trips, the
   oracle's clean pass on a fixed seed range, and — the oracle's own
   acceptance test — that an intentionally injected miscompile is caught
   and shrunk to a small reproducer. *)

let fixed_seeds = List.init 40 (fun i -> i + 1)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Fuzz.Gen.generate ~seed ~max_size:8 in
      let b = Fuzz.Gen.generate ~seed ~max_size:8 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces" seed)
        (Fuzz.Gen.source a) (Fuzz.Gen.source b);
      Alcotest.(check int)
        (Printf.sprintf "seed %d heap limit reproduces" seed)
        a.Fuzz.Gen.heap_limit_bytes b.Fuzz.Gen.heap_limit_bytes)
    [ 1; 17; 9999; 123456789 ]

let test_generator_varies () =
  let sources =
    List.map
      (fun seed -> Fuzz.Gen.source (Fuzz.Gen.generate ~seed ~max_size:8))
      fixed_seeds
  in
  let distinct = List.sort_uniq compare sources in
  Alcotest.(check bool)
    "at least half the seeds give distinct programs" true
    (List.length distinct * 2 >= List.length sources)

let test_generated_programs_compile () =
  (* well-typed by construction, witnessed through the real front end *)
  List.iter
    (fun seed ->
      let g = Fuzz.Gen.generate ~seed ~max_size:8 in
      match Minijava.Compile.program_of_source (Fuzz.Gen.source g) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "seed %d does not compile: %s" seed
            (Minijava.Compile.string_of_error e))
    fixed_seeds

let test_pretty_round_trip () =
  (* parse (pretty ast) pretty-prints identically: the printer emits
     exactly the language the parser reads *)
  List.iter
    (fun seed ->
      let g = Fuzz.Gen.generate ~seed ~max_size:8 in
      let once = Fuzz.Gen.source g in
      let again = Minijava.Pretty.program (Minijava.Parser.parse_string once) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d round-trips" seed)
        once again)
    fixed_seeds

let test_oracle_accepts_clean_programs () =
  let campaign =
    Fuzz.Driver.run ~shrink:false ~campaign_seed:301 ~count:8 ~max_size:6 ()
  in
  (match campaign.Fuzz.Driver.findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "unexpected finding at seed %d: %s" f.Fuzz.Driver.seed
        (Fuzz.Oracle.describe f.Fuzz.Driver.failure));
  Alcotest.(check int) "all programs ran" 8 campaign.Fuzz.Driver.programs_run;
  (* 12 matrix cells + telemetry/profile + switch engine + hw none and
     rpt + static and hybrid tiers + monitor: the headline variants of
     the hw and prediction rows are the matrix cell itself. *)
  Alcotest.(check int) "one run per configuration" 19
    campaign.Fuzz.Driver.cells_per_program;
  let _, verdict = Fuzz.Driver.check_seed ~seed:301 ~max_size:6 () in
  match verdict with
  | Fuzz.Oracle.Pass { cells_run } ->
      Alcotest.(check int) "runs made = runs planned"
        campaign.Fuzz.Driver.cells_per_program cells_run
  | Fuzz.Oracle.Fail f -> Alcotest.fail (Fuzz.Oracle.describe f)

let unguarded = [ Vm.Fault.Unguarded_spec_loads ]

(* Seed 111 generates an array walk whose q.next.v chain gets a spec_load
   whose guard trips near the heap frontier — the canonical victim for the
   unguarded-spec-load fault injection. *)
let injection_seed = 111

let test_injected_fault_is_caught_and_shrunk () =
  let campaign =
    Fuzz.Driver.run ~faults:unguarded ~campaign_seed:injection_seed
      ~count:1 ~max_size:8 ()
  in
  match campaign.Fuzz.Driver.findings with
  | [ f ] -> (
      (match f.Fuzz.Driver.failure with
      | Fuzz.Oracle.Crash _ -> ()
      | other ->
          Alcotest.failf "expected a crash finding, got: %s"
            (Fuzz.Oracle.describe other));
      match f.Fuzz.Driver.shrunk with
      | None -> Alcotest.fail "finding was not shrunk"
      | Some s ->
          let lines =
            List.length (String.split_on_char '\n' s.Fuzz.Shrink.source)
          in
          Alcotest.(check bool)
            (Printf.sprintf "reproducer is small (%d lines)" lines)
            true (lines < 30);
          Alcotest.(check bool) "shrinking made progress" true
            (String.length s.Fuzz.Shrink.source < String.length f.Fuzz.Driver.source);
          (* the minimized program still compiles and still fails the
             oracle in the same way *)
          (match
             Minijava.Compile.program_of_source s.Fuzz.Shrink.source
           with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "shrunk reproducer does not compile: %s"
                (Minijava.Compile.string_of_error e));
          let g = Fuzz.Gen.generate ~seed:injection_seed ~max_size:8 in
          (match
             Fuzz.Oracle.check ~faults:unguarded
               ~source:s.Fuzz.Shrink.source
               ~heap_limit_bytes:g.Fuzz.Gen.heap_limit_bytes ()
           with
          | Fuzz.Oracle.Fail (Fuzz.Oracle.Crash _) -> ()
          | Fuzz.Oracle.Fail other ->
              Alcotest.failf "shrunk reproducer fails differently: %s"
                (Fuzz.Oracle.describe other)
          | Fuzz.Oracle.Pass _ ->
              Alcotest.fail "shrunk reproducer no longer fails"))
  | l -> Alcotest.failf "expected exactly 1 finding, got %d" (List.length l)

let test_injection_seed_is_clean_without_fault () =
  (* the same program passes the oracle when the guard is left on: the
     failure really is the injected fault, not the program *)
  let _, verdict =
    Fuzz.Driver.check_seed ~seed:injection_seed ~max_size:8 ()
  in
  match verdict with
  | Fuzz.Oracle.Pass _ -> ()
  | Fuzz.Oracle.Fail f ->
      Alcotest.failf "seed %d should pass cleanly: %s" injection_seed
        (Fuzz.Oracle.describe f)

let test_replay_protocol () =
  (* a finding at campaign program [i] carries derived seed
     campaign_seed + i, and regenerating from that seed alone reproduces
     the exact failing program — the published replay protocol *)
  let campaign_seed = injection_seed - 2 in
  let campaign =
    Fuzz.Driver.run ~faults:unguarded ~shrink:false ~campaign_seed
      ~count:3 ~max_size:8 ()
  in
  Alcotest.(check bool) "the injected fault produced a finding" true
    (campaign.Fuzz.Driver.findings <> []);
  List.iter
    (fun (f : Fuzz.Driver.finding) ->
      Alcotest.(check int) "derived seed = campaign + index"
        (campaign_seed + f.Fuzz.Driver.index)
        f.Fuzz.Driver.seed;
      let g = Fuzz.Gen.generate ~seed:f.Fuzz.Driver.seed ~max_size:8 in
      Alcotest.(check string) "replay reproduces the program"
        f.Fuzz.Driver.source (Fuzz.Gen.source g))
    campaign.Fuzz.Driver.findings

(* The class each fault must be reported as: its row in the oracle's
   cross-check table, or the matrix check that catches it. *)
let fault_classes =
  Vm.Fault.
    [
      (Unguarded_spec_loads, "crash");
      (Skip_guard_dominance, "lint");
      (Engine_desync, "engine");
      (Hw_desync, "hw");
      (Prediction_desync, "prediction");
      (Monitor_desync, "monitor");
      (Diff_desync, "diff");
    ]

(* Without faults the same program passes: see
   [test_injection_seed_is_clean_without_fault]. *)
let test_every_fault_caught_in_its_class () =
  List.iter
    (fun fault ->
      let name = Vm.Fault.name fault in
      let _, verdict =
        Fuzz.Driver.check_seed ~faults:[ fault ] ~seed:injection_seed
          ~max_size:8 ()
      in
      match (verdict, List.assoc_opt fault fault_classes) with
      | _, None -> Alcotest.failf "%s has no expected class" name
      | Fuzz.Oracle.Pass _, _ -> Alcotest.failf "%s went undetected" name
      | Fuzz.Oracle.Fail f, Some expected ->
          Alcotest.(check string)
            (name ^ " is reported in its row's class")
            expected (Fuzz.Oracle.class_name f))
    Vm.Fault.all

let test_replay_names_the_fault () =
  let campaign =
    Fuzz.Driver.run ~faults:[ Vm.Fault.Engine_desync ] ~shrink:false
      ~campaign_seed:injection_seed ~count:1 ~max_size:6 ()
  in
  match campaign.Fuzz.Driver.findings with
  | [ f ] ->
      let printed = Format.asprintf "%a" Fuzz.Driver.pp_finding f in
      Alcotest.(check string) "replay command"
        (Printf.sprintf
           "spf_fuzz --seed %d --count 1 --max-size 6 --inject engine-desync"
           injection_seed)
        (Fuzz.Driver.replay f);
      Alcotest.(check bool) "the report prints it" true
        (Helpers.contains printed (Fuzz.Driver.replay f))
  | l -> Alcotest.failf "expected exactly 1 finding, got %d" (List.length l)

(* A shrink candidate can loop where the failing program did not: one of
   seed 2028's skip-guard-dominance candidates deletes [p = p.next;] from
   a [while (p != null)] walk, and one of seed 2026's prediction-desync
   candidates loops too. Each candidate runs under a step budget derived
   from the failing program, so such a candidate crashes, in another
   class, and is rejected. Every fault's self-test campaign (the CLI's
   [--seed 2026 --count 2 --max-size 6 --inject F], seed 2028 for
   skip-guard-dominance, which 2026 does not trigger), shrinking on,
   must end within seconds, and each shrunk source must still fail in
   its finding's class. *)
let test_shrinking_ends_under_a_step_budget () =
  List.iter
    (fun fault ->
      let faults = [ fault ] and name = Vm.Fault.name fault in
      let campaign_seed =
        if fault = Vm.Fault.Skip_guard_dominance then 2028 else 2026
      in
      let started = Sys.time () in
      let campaign =
        Fuzz.Driver.run ~faults ~campaign_seed ~count:2 ~max_size:6 ()
      in
      let seconds = Sys.time () -. started in
      Alcotest.(check bool)
        (Printf.sprintf "%s: campaign ends in %.1f s (< 30)" name seconds)
        true (seconds < 30.);
      Alcotest.(check bool)
        (name ^ ": a finding") true
        (campaign.Fuzz.Driver.findings <> []);
      List.iter
        (fun (f : Fuzz.Driver.finding) ->
          match f.shrunk with
          | None -> Alcotest.failf "%s: finding was not shrunk" name
          | Some s -> (
              let g = Fuzz.Gen.generate ~seed:f.seed ~max_size:6 in
              match
                Fuzz.Oracle.check ~faults ~source:s.Fuzz.Shrink.source
                  ~heap_limit_bytes:g.Fuzz.Gen.heap_limit_bytes ()
              with
              | Fuzz.Oracle.Fail shrunk ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s seed %d: shrunk source fails in class"
                       name f.seed)
                    (Fuzz.Oracle.class_name f.failure)
                    (Fuzz.Oracle.class_name shrunk)
              | Fuzz.Oracle.Pass _ ->
                  Alcotest.failf "%s seed %d: shrunk source passes" name
                    f.seed))
        campaign.Fuzz.Driver.findings)
    Vm.Fault.all

let test_shrink_terminates_and_decreases () =
  (* with an always-failing predicate the shrinker drives any program to a
     local minimum without looping: every accepted step strictly
     decreases the measure *)
  let g = Fuzz.Gen.generate ~seed:42 ~max_size:6 in
  let r = Fuzz.Shrink.run ~is_failing:(fun _ -> true) g.Fuzz.Gen.program in
  Alcotest.(check bool) "shrank" true (r.Fuzz.Shrink.steps > 0);
  Alcotest.(check bool) "result compiles" true
    (match Minijava.Compile.program_of_source r.Fuzz.Shrink.source with
    | Ok _ -> true
    | Error _ -> false);
  Alcotest.(check bool) "smaller than the original" true
    (String.length r.Fuzz.Shrink.source < String.length (Fuzz.Gen.source g))

let suite =
  [
    ("generator: deterministic per seed", `Quick, test_generator_deterministic);
    ("generator: seeds vary", `Quick, test_generator_varies);
    ("generator: programs compile", `Quick, test_generated_programs_compile);
    ("pretty: parse round-trip", `Quick, test_pretty_round_trip);
    ("oracle: clean programs pass the matrix", `Quick,
     test_oracle_accepts_clean_programs);
    ("oracle: injection seed clean without fault", `Quick,
     test_injection_seed_is_clean_without_fault);
    ("oracle: injected fault caught and shrunk", `Slow,
     test_injected_fault_is_caught_and_shrunk);
    ("oracle: every fault caught in its class", `Slow,
     test_every_fault_caught_in_its_class);
    ("driver: replay protocol", `Quick, test_replay_protocol);
    ("driver: replay names the fault", `Quick, test_replay_names_the_fault);
    ("shrink: terminates at a compiling minimum", `Quick,
     test_shrink_terminates_and_decreases);
    ("shrink: ends under a step budget for every fault", `Slow,
     test_shrinking_ends_under_a_step_budget);
  ]
