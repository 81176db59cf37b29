module R = Workloads.Run_config

(* Bisection ----------------------------------------------------------- *)

type outcome = {
  cycles_a : int;
  cycles_b : int;
  delta : int;
  candidates : R.axis list;
  probes : (R.axis * int) list;
  responsible : R.axis list;
  exact : bool;
  replays : int;
}

let run ~replay ~a ~b =
  let replays = ref 0 in
  let replay c =
    incr replays;
    replay c
  in
  let ca = replay a in
  let cb = replay b in
  let delta = cb - ca in
  let candidates = R.differing ~a ~b in
  let finish probes responsible exact =
    {
      cycles_a = ca;
      cycles_b = cb;
      delta;
      candidates;
      probes;
      responsible;
      exact;
      replays = !replays;
    }
  in
  if delta = 0 then finish [] [] true
  else
    match candidates with
    | [] ->
        (* Same config, different cycles: determinism itself is broken —
           report everything as suspect rather than pretending. *)
        finish [] [] false
    | [ ax ] -> finish [] [ ax ] true
    | _ -> (
        (* Flip one axis at a time from A toward B; stop the moment a
           flip reproduces B exactly. *)
        let rec probe acc = function
          | [] -> (List.rev acc, None)
          | ax :: rest ->
              let c = replay (R.transplant ax ~src:b a) in
              if c = cb then (List.rev ((ax, c) :: acc), Some ax)
              else probe ((ax, c) :: acc) rest
        in
        let probes, hit = probe [] candidates in
        match hit with
        | Some ax -> finish probes [ ax ] true
        | None -> (
            let moving = List.filter (fun (_, c) -> c <> ca) probes in
            match moving with
            | [] ->
                (* Pure interaction: no single flip moves cycles, yet the
                   full set does. The minimal explanation is the whole
                   candidate set (flipping all of them *is* B). *)
                finish probes candidates true
            | _ ->
                let responsible = List.map fst moving in
                let joint =
                  List.fold_left
                    (fun acc ax -> R.transplant ax ~src:b acc)
                    a responsible
                in
                let cj = replay joint in
                finish probes responsible (cj = cb)))

let render ~a ~b outcome =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "bisect: cycles A=%d  B=%d  delta=%+d" outcome.cycles_a outcome.cycles_b
    outcome.delta;
  List.iter
    (fun ax ->
      line "  axis %-10s A=%s  B=%s" (R.axis_name ax) (R.axis_value a ax)
        (R.axis_value b ax))
    outcome.candidates;
  List.iter
    (fun (ax, c) ->
      line "  probe %-10s A+{%s<-B}: %d cycles (%+d vs A)%s" (R.axis_name ax)
        (R.axis_name ax) c (c - outcome.cycles_a)
        (if c = outcome.cycles_b then "  = B, early stop" else ""))
    outcome.probes;
  (match outcome.responsible with
  | [] when outcome.delta = 0 -> line "verdict: no cycle delta to explain"
  | [] -> line "verdict: UNEXPLAINED — identical configs, differing cycles"
  | axes ->
      line "verdict: responsible axis%s: %s%s (%d replay%s)"
        (if List.length axes = 1 then "" else " set")
        (String.concat ", " (List.map R.axis_name axes))
        (if outcome.exact then "" else "  [joint flip does not reproduce B \
                                        exactly — interaction with remaining \
                                        axes]")
        outcome.replays
        (if outcome.replays = 1 then "" else "s"));
  Buffer.contents buf
