module B = Vm.Bytecode

type verdict = Certain | Likely | Unknown

type prediction = {
  site : int;
  pc : int;
  stride : int option;
  verdict : verdict;
  reason : string;
}

type t = {
  predictions : prediction list;
  intra : ((int * int) * int) list;
}

let none = { predictions = []; intra = [] }
let find t site = List.find_opt (fun p -> p.site = site) t.predictions

type predictor =
  meth:Vm.Classfile.method_info ->
  cfg:Jit.Cfg.t ->
  loop:Jit.Loops.loop ->
  candidates:int list ->
  t

type depth = Full | Shortened of int | Probed of int | Skipped

(* Trip-class decisions (small-trip promotion into the parent, the
   low-trip cutoff) are observations only inspection can make: they need
   [natural_exit] within [small_trip_count] iterations. Any depth that
   runs fewer iterations than that would silently flip those decisions —
   the pass would stop promoting a child loop's sites, and the parent
   would lose plans built on them. So every non-[Full] depth that still
   inspects is floored at [small_trip_count], and fully skipping is
   reserved for outermost loops, where no promotion consumer exists. *)

(* A [Probed] inspection's budget: just enough iterations to classify the
   loop's trip count the same way a [Full] inspection would. *)
let probe_iterations (opts : Options.t) =
  min opts.inspect_iterations opts.small_trip_count

(* A [Shortened] inspection's budget: a quarter of the full one, floored
   at [small_trip_count] and at [min_samples + 1] (which keeps
   [Stride.dominant] satisfiable: [n] observed addresses yield [n - 1]
   stride samples), capped at [inspect_iterations]. *)
let shortened_iterations (opts : Options.t) =
  min opts.inspect_iterations
    (max opts.small_trip_count
       (max (opts.min_samples + 1) (opts.inspect_iterations / 4)))

let depth_of ~(opts : Options.t) t ~(loop : Jit.Loops.loop) ~candidates =
  match opts.prediction with
  | Options.Inspect -> Full
  | Options.Static -> Skipped
  | Options.Hybrid ->
      let verdict_of site =
        match find t site with Some p -> p.verdict | None -> Unknown
      in
      let verdicts = List.map verdict_of candidates in
      if List.for_all (fun v -> v = Certain) verdicts then
        if loop.Jit.Loops.parent = None then Skipped
        else Probed (probe_iterations opts)
      else if List.for_all (fun v -> v <> Unknown) verdicts then
        Shortened (shortened_iterations opts)
      else Full

(* A synthesized pattern reports full confidence: [matched = samples] at
   the evidence floor inspection itself would need. *)
let synthetic_pattern (opts : Options.t) stride =
  let n = max 2 opts.min_samples in
  { Stride.stride; matched = n; samples = n }

let static_inter ~opts t site =
  match find t site with
  | Some { stride = Some s; verdict = Certain | Likely; _ } ->
      Some (synthetic_pattern opts s)
  | _ -> None

let static_intra ~opts t anchor other =
  match List.assoc_opt (anchor, other) t.intra with
  | Some offset -> Some (synthetic_pattern opts offset)
  | None -> None

let verdict_name = function
  | Certain -> "certain"
  | Likely -> "likely"
  | Unknown -> "unknown"

(* Agreement scoring *)

type row = {
  r_workload : string;
  r_method : string;
  r_loop : int;
  r_site : int;
  r_pc : int;
  r_verdict : verdict;
  r_static : int option;
  r_inspected : int option;
  r_observations : int;
}

type classification = Agree | Disagree | Missed | Undecided | Insufficient

let classify ~min_samples row =
  (* [n] observed addresses yield [n - 1] stride samples, so a dominant
     pattern needs at least [min_samples + 1] observations. *)
  let enough = row.r_observations >= min_samples + 1 in
  match (row.r_verdict, row.r_static, row.r_inspected) with
  | Unknown, _, Some _ -> Missed
  | Unknown, _, None -> Undecided
  | _, Some s, Some i -> if s = i then Agree else Disagree
  | _, Some _, None -> if enough then Disagree else Insufficient
  | _, None, _ ->
      (* a claimed verdict always carries a stride; be safe anyway *)
      Undecided

type score = {
  sites : int;
  claimed : int;
  certain : int;
  agreed : int;
  disagreed : int;
  missed : int;
  undecided : int;
  insufficient : int;
}

let empty_score =
  {
    sites = 0;
    claimed = 0;
    certain = 0;
    agreed = 0;
    disagreed = 0;
    missed = 0;
    undecided = 0;
    insufficient = 0;
  }

let add_score a b =
  {
    sites = a.sites + b.sites;
    claimed = a.claimed + b.claimed;
    certain = a.certain + b.certain;
    agreed = a.agreed + b.agreed;
    disagreed = a.disagreed + b.disagreed;
    missed = a.missed + b.missed;
    undecided = a.undecided + b.undecided;
    insufficient = a.insufficient + b.insufficient;
  }

let score ~min_samples rows =
  List.fold_left
    (fun acc row ->
      let acc = { acc with sites = acc.sites + 1 } in
      let acc =
        if row.r_verdict <> Unknown then
          { acc with claimed = acc.claimed + 1 }
        else acc
      in
      let acc =
        if row.r_verdict = Certain then { acc with certain = acc.certain + 1 }
        else acc
      in
      match classify ~min_samples row with
      | Agree -> { acc with agreed = acc.agreed + 1 }
      | Disagree -> { acc with disagreed = acc.disagreed + 1 }
      | Missed -> { acc with missed = acc.missed + 1 }
      | Undecided -> { acc with undecided = acc.undecided + 1 }
      | Insufficient -> { acc with insufficient = acc.insufficient + 1 })
    empty_score rows

let agreement_pct s =
  let decided = s.agreed + s.disagreed in
  if decided = 0 then 100.0
  else 100.0 *. float_of_int s.agreed /. float_of_int decided

let coverage_pct s =
  if s.sites = 0 then 0.0
  else 100.0 *. float_of_int s.claimed /. float_of_int s.sites

let render_table entries =
  let open Telemetry.Table in
  let t =
    make
      ~columns:
        [
          ("workload", Left);
          ("sites", Right);
          ("claimed", Right);
          ("certain", Right);
          ("agree", Right);
          ("disagree", Right);
          ("missed", Right);
          ("agreement", Right);
          ("coverage", Right);
        ]
  in
  let row label s =
    add_row t
      [
        label;
        cell_int s.sites;
        cell_int s.claimed;
        cell_int s.certain;
        cell_int s.agreed;
        cell_int s.disagreed;
        cell_int s.missed;
        cell_pct (agreement_pct s /. 100.0);
        cell_pct (coverage_pct s /. 100.0);
      ]
  in
  List.iter (fun (label, s) -> row label s) entries;
  (if List.length entries > 1 then
     let total = List.fold_left (fun acc (_, s) -> add_score acc s) empty_score entries in
     add_sep t;
     row "TOTAL" total);
  to_string t

(* Fault injection *)

let inject_desync code =
  let prefix = [| B.Iconst 9001; B.Print |] in
  let shift = Array.length prefix in
  let shifted =
    Array.map
      (fun instr ->
        match B.branch_target instr with
        | Some target -> Jit.Optimize.retarget instr (target + shift)
        | None -> instr)
      code
  in
  Array.append prefix shifted
