(* Campaign driver: generate -> check -> shrink, with the seed protocol
   that makes every finding reproducible from two integers.

   Program [i] of a campaign with seed [s] is generated from the derived
   seed [s + i] (Gen applies a splitmix64 scramble internally), so
   [spf_fuzz --seed (s + i) --count 1], with the campaign's size budget
   and injected faults, replays exactly that program ([replay]). *)

type finding = {
  seed : int;  (** the derived per-program seed: campaign seed + index *)
  index : int;
  max_size : int;  (** the campaign's size budget *)
  faults : Vm.Fault.t list;  (** the campaign's injected faults *)
  failure : Oracle.failure;
  source : string;
  shrunk : Shrink.result option;
}

type campaign = {
  campaign_seed : int;
  programs_run : int;
  cells_per_program : int;
  findings : finding list;
}

(* Collapse every number (decimal or 0x-hex) in a crash message to [#] so
   that addresses and counters do not block matching, while the kind of
   error and the method it happened in still must agree. *)
let normalize_message msg =
  let b = Buffer.create (String.length msg) in
  let n = String.length msg in
  let is_hex c =
    (c >= '0' && c <= '9')
    || (c >= 'a' && c <= 'f')
    || (c >= 'A' && c <= 'F')
  in
  let i = ref 0 in
  while !i < n do
    let c = msg.[!i] in
    if c >= '0' && c <= '9' then begin
      incr i;
      if !i < n && (msg.[!i] = 'x' || msg.[!i] = 'X') then incr i;
      while !i < n && is_hex msg.[!i] do
        incr i
      done;
      Buffer.add_char b '#'
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

let same_class (a : Oracle.failure) (b : Oracle.failure) =
  match (a, b) with
  | Oracle.Crash { message = ma; _ }, Oracle.Crash { message = mb; _ } ->
      (* shrinking a crash must preserve the crash, not merely crash
         somehow: an unrelated runtime error in a mangled candidate would
         otherwise hijack the minimization *)
      normalize_message ma = normalize_message mb
  | _ -> Oracle.class_name a = Oracle.class_name b

let check_seed ?cells ?faults ~seed ~max_size () =
  let g = Gen.generate ~seed ~max_size in
  let verdict =
    Oracle.check ?cells ?faults ~source:(Gen.source g)
      ~heap_limit_bytes:g.Gen.heap_limit_bytes ()
  in
  (g, verdict)

(* A shrink candidate's step budget: ten times what the failing
   program's headline run retires, and no less than [min_shrink_steps].
   A candidate can loop where the program did not (deleting [p = p.next]
   from a [while (p != null)] walk, say); without a budget each such
   candidate would run to the VM's default of two billion steps. *)
let min_shrink_steps = 1_000_000

let shrink_budget ?faults ~heap_limit_bytes program =
  match
    Oracle.headline_retired ?faults
      ~source:(Minijava.Pretty.program program)
      ~heap_limit_bytes ()
  with
  | Some retired -> max min_shrink_steps (10 * retired)
  | None -> min_shrink_steps

let shrink_finding ?cells ?faults ?max_attempts ~heap_limit_bytes
    ~(failure : Oracle.failure) program =
  (* A candidate counts as "still failing" only if it fails in the same
     class: shrinking an output divergence must not wander off into some
     unrelated compile error of a mangled candidate. One that exhausts
     its step budget crashes with the budget's message, which is another
     class, so the shrinker rejects it. *)
  let max_steps = shrink_budget ?faults ~heap_limit_bytes program in
  let is_failing source =
    match
      Oracle.check ?cells ?faults ~max_steps ~source ~heap_limit_bytes ()
    with
    | Oracle.Pass _ -> false
    | Oracle.Fail f -> same_class f failure
  in
  Shrink.run ?max_attempts ~is_failing program

let run ?cells ?(faults = []) ?(shrink = true) ?shrink_attempts
    ?(progress = fun ~index:_ ~seed:_ -> ()) ~campaign_seed ~count ~max_size
    () =
  let cells_per_program =
    Oracle.runs_per_program (Option.value cells ~default:Oracle.default_cells)
  in
  let findings = ref [] in
  for index = 0 to count - 1 do
    let seed = campaign_seed + index in
    progress ~index ~seed;
    let g, verdict = check_seed ?cells ~faults ~seed ~max_size () in
    match verdict with
    | Oracle.Pass _ -> ()
    | Oracle.Fail failure ->
        let shrunk =
          if shrink then
            Some
              (shrink_finding ?cells ~faults ?max_attempts:shrink_attempts
                 ~heap_limit_bytes:g.Gen.heap_limit_bytes ~failure
                 g.Gen.program)
          else None
        in
        findings :=
          { seed; index; max_size; faults; failure; source = Gen.source g; shrunk }
          :: !findings
  done;
  {
    campaign_seed;
    programs_run = count;
    cells_per_program;
    findings = List.rev !findings;
  }

let replay (f : finding) =
  String.concat " "
    ([
       "spf_fuzz --seed";
       string_of_int f.seed;
       "--count 1 --max-size";
       string_of_int f.max_size;
     ]
    @ List.map (fun fault -> "--inject " ^ Vm.Fault.name fault) f.faults)

let pp_finding ppf (f : finding) =
  Format.fprintf ppf
    "@[<v>== FAILURE (replay: %s) ==@,%s@,@,\
     -- program (seed %d, index %d) --@,%s@]"
    (replay f)
    (Oracle.describe f.failure)
    f.seed f.index f.source;
  match f.shrunk with
  | None -> ()
  | Some s ->
      Format.fprintf ppf
        "@,@[<v>-- shrunk reproducer (%d steps, %d oracle calls) --@,%s@]"
        s.Shrink.steps s.Shrink.attempts s.Shrink.source
