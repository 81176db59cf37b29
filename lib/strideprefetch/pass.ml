module C = Vm.Classfile

type site_evidence = {
  site : int;
  observations : int;  (** address records collected for this site *)
  delta_histogram : (int * int) list;  (** (delta, count), top first *)
  top_fraction : float;
      (** share of the top delta — what the 75%-majority rule tested *)
}

type loop_report = {
  method_name : string;
  loop_id : int;
  header_block : int;
  candidate_sites : int list;
  evidence : site_evidence list;
  inter_patterns : (int * Stride.pattern) list;
  intra_patterns : ((int * int) * Stride.pattern) list;
  plan : Codegen.plan;
  promoted : bool;
  skipped_low_trip : bool;
  iterations_observed : int;
  inspection_steps : int;
  predictions : Predict.prediction list;
  inspection_skipped : bool;
  inspection_shortened : bool;
}

module Int_set = Jit.Loops.Int_set

(* All sites syntactically inside a loop's blocks (nested loops included). *)
let loop_sites cfg loop =
  Jit.Loops.pcs cfg loop
  |> List.concat_map (fun (_pc, instr) -> Vm.Bytecode.all_sites instr)
  |> List.sort_uniq compare

let empty_plan = { Codegen.actions = []; rejected = []; regs_used = 0 }

(* Per-site inspection evidence: the delta histograms the accept/reject
   decisions were made from, packaged for the report and the explain
   records. *)
let evidence_of (inspection : Inspection.result) candidates =
  List.filter_map
    (fun site ->
      let recs =
        if site < Array.length inspection.per_site then
          inspection.per_site.(site)
        else []
      in
      if recs = [] then None
      else begin
        let hist = Stride.delta_histogram recs in
        let total = List.fold_left (fun a (_, c) -> a + c) 0 hist in
        let top = match hist with (_, c) :: _ -> c | [] -> 0 in
        Some
          {
            site;
            observations = List.length recs;
            delta_histogram = hist;
            top_fraction =
              (if total = 0 then 0.0
               else float_of_int top /. float_of_int total);
          }
      end)
    candidates

(* The explain record: one instant event per analyzed loop carrying the
   decision and its evidence, emitted when a telemetry sink is given. *)
let explain_instant sink (r : loop_report) =
  let open Telemetry in
  let pattern_args =
    List.map
      (fun (s, (p : Stride.pattern)) ->
        ( Printf.sprintf "inter_L%d" s,
          Json.Str
            (Printf.sprintf "stride %d (%d/%d)" p.stride p.matched p.samples)
        ))
      r.inter_patterns
    @ List.map
        (fun ((a, b), (p : Stride.pattern)) ->
          ( Printf.sprintf "intra_L%d_L%d" a b,
            Json.Str
              (Printf.sprintf "stride %d (%d/%d)" p.stride p.matched
                 p.samples) ))
        r.intra_patterns
  in
  let evidence_args =
    List.map
      (fun e ->
        ( Printf.sprintf "evidence_L%d" e.site,
          Json.Obj
            [
              ("observations", Json.Int e.observations);
              ("top_fraction", Json.Float e.top_fraction);
              ( "deltas",
                Json.List
                  (List.map
                     (fun (d, c) ->
                       Json.Obj
                         [ ("delta", Json.Int d); ("count", Json.Int c) ])
                     e.delta_histogram) );
            ] ))
      r.evidence
  in
  Sink.instant sink ~cat:"explain" "loop-decision"
    ~args:
      ([
         ("method", Json.Str r.method_name);
         ("loop", Json.Int r.loop_id);
         ("header_block", Json.Int r.header_block);
         ("promoted", Json.Bool r.promoted);
         ("skipped_low_trip", Json.Bool r.skipped_low_trip);
         ("inspection_skipped", Json.Bool r.inspection_skipped);
         ("inspection_shortened", Json.Bool r.inspection_shortened);
         ("iterations", Json.Int r.iterations_observed);
         ("inspection_steps", Json.Int r.inspection_steps);
         ( "candidates",
           Json.List (List.map (fun s -> Json.Int s) r.candidate_sites) );
         ("actions", Json.Int (List.length r.plan.actions));
         ( "rejected",
           Json.List
             (List.map
                (fun (s, reason) ->
                  Json.Obj
                    [ ("site", Json.Int s); ("reason", Json.Str reason) ])
                r.plan.rejected) );
       ]
      @ List.map
          (fun (p : Predict.prediction) ->
            ( Printf.sprintf "predict_L%d" p.site,
              Json.Str
                (Printf.sprintf "%s%s (%s)"
                   (Predict.verdict_name p.verdict)
                   (match p.stride with
                   | Some s -> Printf.sprintf " stride %d" s
                   | None -> "")
                   p.reason) ))
          r.predictions
      @ pattern_args @ evidence_args)

(* Register compile-time provenance for every prefetch instruction the
   plan will splice, under the same structural keys the interpreter
   resolves at execution time. *)
let register_plan registry ~(meth : C.method_info) ~loop_id
    (plan : Codegen.plan) =
  let open Telemetry.Attrib in
  let mid = meth.method_id in
  let meta kind ~anchor ~target =
    {
      method_name = meth.method_name;
      loop_id;
      kind;
      anchor_site = anchor;
      target_site = target;
    }
  in
  List.iter
    (fun (a : Codegen.action) ->
      match a.kind with
      | Codegen.Prefetch_direct _ ->
          register registry
            (Inter_site { method_id = mid; site = a.anchor_site })
            (meta Inter ~anchor:a.anchor_site ~target:a.anchor_site)
      | Codegen.Prefetch_phased _ ->
          register registry
            (Dynamic_site { method_id = mid; site = a.anchor_site })
            (meta Phased ~anchor:a.anchor_site ~target:a.anchor_site)
      | Codegen.Prefetch_deref { reg = r; targets; _ } ->
          register registry
            (Spec_site { method_id = mid; site = a.anchor_site; reg = r })
            (meta Spec ~anchor:a.anchor_site ~target:a.anchor_site);
          List.iter
            (fun (tgt : Codegen.deref_target) ->
              register registry
                (Indirect_site
                   { method_id = mid; reg = r; offset = tgt.offset })
                (meta
                   (if tgt.via_intra then Intra else Deref)
                   ~anchor:a.anchor_site ~target:tgt.target_site))
            targets)
    plan.actions

let process ?registry ?sink ?predictor ~opts ~interp ~(meth : C.method_info)
    ~args () =
  let program = Vm.Interp.program interp in
  let code = meth.code in
  if Array.length code = 0 then []
  else begin
    let cfg = Jit.Cfg.build code in
    let forest = Jit.Loops.analyze cfg in
    if forest.roots = [] then []
    else begin
      let { Vm.Interp.machine; faults; _ } = Vm.Interp.options interp in
      let infos =
        Jit.Stack_model.analyze code ~arity:meth.arity
          ~callee_arity:(fun m -> (C.method_of_id program m).arity)
          ~callee_returns:(fun m -> (C.method_of_id program m).returns_value)
      in
      let heap = Vm.Interp.heap interp in
      let globals = Vm.Interp.global interp in
      (* candidate sites promoted upward from small-trip-count loops *)
      let promoted_sites : (int, int list) Hashtbl.t = Hashtbl.create 4 in
      let reports = ref [] in
      let plans = ref [] in
      let next_reg = ref meth.n_pref_regs in
      let push_report r =
        reports := r :: !reports;
        match sink with Some s -> explain_instant s r | None -> ()
      in
      List.iter
        (fun (loop : Jit.Loops.loop) ->
          let own = loop_sites cfg loop in
          (* Exclude sites of non-promoted children (they were optimized in
             their own right); include sites promoted out of children. *)
          let child_excluded, child_promoted =
            List.fold_left
              (fun (excl, promo) (child : Jit.Loops.loop) ->
                match Hashtbl.find_opt promoted_sites child.loop_id with
                | Some sites -> (excl, promo @ sites)
                | None -> (excl @ loop_sites cfg child, promo))
              ([], []) loop.children
          in
          let candidates =
            List.filter (fun s -> not (List.mem s child_excluded)) own
            @ child_promoted
            |> List.sort_uniq compare
          in
          (* Static tier: claim strides before deciding how much dynamic
             inspection this loop still needs (the hybrid skip rule). *)
          let predicted =
            match predictor with
            | None -> Predict.none
            | Some (f : Predict.predictor) -> f ~meth ~cfg ~loop ~candidates
          in
          let depth = Predict.depth_of ~opts predicted ~loop ~candidates in
          let inspection =
            let run_inspection opts () =
              Inspection.inspect ~program ~heap ~globals ~opts ~cfg ~forest
                ~target:loop ~meth ~args
            in
            let spanned run =
              match sink with
              | None -> run ()
              | Some s ->
                  Telemetry.Sink.span s ~cat:"inspect"
                    ~args:
                      [
                        ("method", Telemetry.Json.Str meth.method_name);
                        ("loop", Telemetry.Json.Int loop.loop_id);
                      ]
                    "inspect" run
            in
            match depth with
            | Predict.Skipped ->
                {
                  Inspection.per_site = [||];
                  iterations = 0;
                  natural_exit = false;
                  steps = 0;
                }
            | Predict.Full -> spanned (run_inspection opts)
            | Predict.Shortened n | Predict.Probed n ->
                spanned
                  (run_inspection { opts with Options.inspect_iterations = n })
          in
          (* [inspection_skipped] means "the plan is built from the static
             claims": true for [Skipped] and for [Probed], whose shortened
             inspection only observes the loop's trip class. *)
          let inspection_skipped =
            match depth with
            | Predict.Skipped | Predict.Probed _ -> true
            | _ -> false
          in
          let inspection_shortened =
            match depth with Predict.Shortened _ -> true | _ -> false
          in
          let evidence = evidence_of inspection candidates in
          let small_trip =
            inspection.natural_exit
            && inspection.iterations < opts.small_trip_count
          in
          if small_trip && loop.parent <> None then begin
            Hashtbl.replace promoted_sites loop.loop_id candidates;
            push_report
              {
                method_name = meth.method_name;
                loop_id = loop.loop_id;
                header_block = loop.header;
                candidate_sites = candidates;
                evidence;
                inter_patterns = [];
                intra_patterns = [];
                plan = empty_plan;
                promoted = true;
                skipped_low_trip = false;
                iterations_observed = inspection.iterations;
                inspection_steps = inspection.steps;
                predictions = predicted.Predict.predictions;
                inspection_skipped;
                inspection_shortened;
              }
          end
          else if small_trip then
            push_report
              {
                method_name = meth.method_name;
                loop_id = loop.loop_id;
                header_block = loop.header;
                candidate_sites = candidates;
                evidence;
                inter_patterns = [];
                intra_patterns = [];
                plan = empty_plan;
                promoted = false;
                skipped_low_trip = true;
                iterations_observed = inspection.iterations;
                inspection_steps = inspection.steps;
                predictions = predicted.Predict.predictions;
                inspection_skipped;
                inspection_shortened;
              }
          else begin
            let ldg = Ldg.build infos ~sites:candidates in
            let trace site =
              if site < Array.length inspection.per_site then
                inspection.per_site.(site)
              else []
            in
            let inter_cache = Hashtbl.create 16 in
            (* With inspection skipped, the plan is driven by synthesized
               patterns carrying the static claims; otherwise by the
               observed traces, exactly as before. *)
            let inter site =
              if inspection_skipped then
                Predict.static_inter ~opts predicted site
              else
                match Hashtbl.find_opt inter_cache site with
                | Some p -> p
                | None ->
                    let p = Stride.inter ~opts (trace site) in
                    Hashtbl.add inter_cache site p;
                    p
            in
            let intra anchor succ =
              if inspection_skipped then
                Predict.static_intra ~opts predicted anchor succ
              else
                Stride.intra ~opts ~anchor:(trace anchor) ~other:(trace succ)
            in
            let phased site = Stride.phased ~opts (trace site) in
            let plan =
              let run () =
                Codegen.plan ~opts ~machine ~code ~ldg ~inter ~intra ~phased
                  ~first_reg:!next_reg
              in
              match sink with
              | None -> run ()
              | Some s ->
                  Telemetry.Sink.span s ~cat:"pass"
                    ~args:
                      [
                        ("method", Telemetry.Json.Str meth.method_name);
                        ("loop", Telemetry.Json.Int loop.loop_id);
                      ]
                    "codegen" run
            in
            next_reg := !next_reg + plan.regs_used;
            plans := plan :: !plans;
            (match registry with
            | Some reg -> register_plan reg ~meth ~loop_id:loop.loop_id plan
            | None -> ());
            let inter_patterns =
              List.filter_map
                (fun s -> Option.map (fun p -> (s, p)) (inter s))
                (Ldg.sites ldg)
            in
            let intra_patterns =
              List.concat_map
                (fun s ->
                  List.filter_map
                    (fun succ ->
                      Option.map (fun p -> ((s, succ), p)) (intra s succ))
                    (Ldg.succs ldg s))
                (Ldg.sites ldg)
            in
            push_report
              {
                method_name = meth.method_name;
                loop_id = loop.loop_id;
                header_block = loop.header;
                candidate_sites = candidates;
                evidence;
                inter_patterns;
                intra_patterns;
                plan;
                promoted = false;
                skipped_low_trip = false;
                iterations_observed = inspection.iterations;
                inspection_steps = inspection.steps;
                predictions = predicted.Predict.predictions;
                inspection_skipped;
                inspection_shortened;
              }
          end)
        (Jit.Loops.postorder forest);
      if List.exists (fun p -> p.Codegen.actions <> []) !plans then begin
        let guarded = Options.use_guarded machine in
        meth.code <-
          Codegen.apply
            ~fault_skip_guard:(List.mem Vm.Fault.Skip_guard_dominance faults)
            ~guarded code
            !plans;
        meth.n_pref_regs <- !next_reg
      end;
      if
        List.mem Vm.Fault.Prediction_desync faults
        && opts.prediction <> Options.Inspect
      then meth.code <- Predict.inject_desync meth.code;
      List.rev !reports
    end
  end

let run ?registry ?sink ?predictor ~opts ~interp ~meth ~args () =
  match opts.Options.mode with
  | Options.Off -> []
  | Options.Inter | Options.Inter_intra ->
      process ?registry ?sink ?predictor ~opts ~interp ~meth ~args ()

let make_pass ~opts ~interp ?report_sink ?registry ?sink ?predictor () =
  {
    Jit.Pipeline.pass_name = "stride-prefetch";
    apply =
      (fun meth args ->
        let reports =
          run ?registry ?sink ?predictor ~opts ~interp ~meth ~args ()
        in
        match report_sink with Some f -> f reports | None -> ());
  }

let prediction_rows ~workload reports =
  List.concat_map
    (fun r ->
      (* Promoted/skipped loops carry no comparable inspection data; their
         sites resurface in the parent loop's report. *)
      if r.promoted || r.skipped_low_trip then []
      else
        List.map
          (fun (p : Predict.prediction) ->
            let observations =
              match List.find_opt (fun e -> e.site = p.site) r.evidence with
              | Some e -> e.observations
              | None -> 0
            in
            {
              Predict.r_workload = workload;
              r_method = r.method_name;
              r_loop = r.loop_id;
              r_site = p.site;
              r_pc = p.pc;
              r_verdict = p.verdict;
              r_static = p.stride;
              r_inspected =
                Option.map
                  (fun (pt : Stride.pattern) -> pt.stride)
                  (List.assoc_opt p.site r.inter_patterns);
              r_observations = observations;
            })
          r.predictions)
    reports

let pp_report ppf r =
  Format.fprintf ppf "@[<v 2>%s loop %d (header B%d)%s%s%s:@," r.method_name
    r.loop_id r.header_block
    (if r.promoted then " [promoted: small trip count]" else "")
    (if r.skipped_low_trip then " [skipped: low trip count]" else "")
    (if r.inspection_skipped then " [inspection skipped: static]"
     else if r.inspection_shortened then " [inspection shortened]"
     else "");
  Format.fprintf ppf "iterations observed: %d, inspection steps: %d@,"
    r.iterations_observed r.inspection_steps;
  List.iter
    (fun (p : Predict.prediction) ->
      Format.fprintf ppf "predict L%d: %s%s  ; %s@," p.site
        (Predict.verdict_name p.verdict)
        (match p.stride with
        | Some s -> Printf.sprintf ", stride %d" s
        | None -> "")
        p.reason)
    r.predictions;
  Format.fprintf ppf "candidates: %s@,"
    (String.concat ", "
       (List.map (Printf.sprintf "L%d") r.candidate_sites));
  (* Inspection evidence: the per-site delta histograms the 75%-majority
     test was applied to. Show the leading deltas. *)
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  List.iter
    (fun e ->
      let shown = take 4 e.delta_histogram in
      let omitted = List.length e.delta_histogram - List.length shown in
      Format.fprintf ppf "evidence L%d: %d obs, deltas %s%s (top %.0f%%)@,"
        e.site e.observations
        (String.concat ", "
           (List.map (fun (d, c) -> Printf.sprintf "%+dx%d" d c) shown))
        (if omitted > 0 then Printf.sprintf " (+%d more)" omitted else "")
        (100.0 *. e.top_fraction))
    r.evidence;
  List.iter
    (fun (s, p) -> Format.fprintf ppf "inter L%d: %a@," s Stride.pp p)
    r.inter_patterns;
  List.iter
    (fun ((a, b), p) ->
      Format.fprintf ppf "intra (L%d,L%d): %a@," a b Stride.pp p)
    r.intra_patterns;
  Format.fprintf ppf "plan: %d action%s, %d rejected, %d spec-load reg%s@,"
    (List.length r.plan.actions)
    (if List.length r.plan.actions = 1 then "" else "s")
    (List.length r.plan.rejected) r.plan.regs_used
    (if r.plan.regs_used = 1 then "" else "s");
  List.iter
    (fun (a : Codegen.action) ->
      match a.kind with
      | Codegen.Prefetch_direct { distance } ->
          Format.fprintf ppf "emit: prefetch (A(L%d) %+d)@," a.anchor_site
            distance
      | Codegen.Prefetch_phased { times; phases } ->
          Format.fprintf ppf "emit: prefetch (A(L%d) + delta*%d)  ; phases %s@,"
            a.anchor_site times
            (String.concat "/"
               (List.map
                  (fun (p : Stride.pattern) -> string_of_int p.stride)
                  phases))
      | Codegen.Prefetch_deref { distance; reg; targets } ->
          Format.fprintf ppf "emit: p%d := spec_load (A(L%d) %+d)@," reg
            a.anchor_site distance;
          List.iter
            (fun (t : Codegen.deref_target) ->
              Format.fprintf ppf "emit: prefetch (p%d %+d)  ; for L%d%s@," reg
                t.offset t.target_site
                (if t.via_intra then " via intra stride" else ""))
            targets)
    r.plan.actions;
  List.iter
    (fun (s, reason) -> Format.fprintf ppf "skip L%d: %s@," s reason)
    r.plan.rejected;
  Format.fprintf ppf "@]"
