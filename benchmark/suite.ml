(* The four benchmark workloads, as lists of units. A unit is what one
   latency sample times: one simulated program run on one machine, or
   one generated program taken through the fuzz oracle. README.md says
   why each workload was chosen. *)

type cell = { workload : Workloads.Workload.t; machine : Memsim.Config.machine }

type unit_ =
  | Plain of cell  (** the benchmark's own wiring, headline configuration *)
  | Observed of cell
      (** [Harness.run ~profile:true ~monitor:default_window_cycles] *)
  | Fuzz of int  (** generator seed of one fuzz program *)

type t = Paper | Fuzz_corpus | Gc_churn | Observers

let all = [ Paper; Fuzz_corpus; Gc_churn; Observers ]

let name = function
  | Paper -> "paper"
  | Fuzz_corpus -> "fuzz"
  | Gc_churn -> "gc-churn"
  | Observers -> "observed"

(* The fuzz corpus is fixed: the first 400 programs of the published
   campaign seed at size 6, as `spf_fuzz --seed 2026 --count 400
   --max-size 6` checks them. A corpus drawn from the run seed would move
   the workload's allocation by a few percent from seed to seed, more
   than a regression worth catching. *)
let fuzz_programs = 400
let fuzz_seed = 2026
let fuzz_max_size = 6
let machines = [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ]

(* The cell key of expected.json: program, heap and machine fix a run of
   the headline configuration completely. *)
let key c =
  Printf.sprintf "%s@%dK/%s" c.workload.Workloads.Workload.name
    (c.workload.Workloads.Workload.heap_limit_bytes / 1024)
    c.machine.Memsim.Config.name

let with_heap kib (w : Workloads.Workload.t) =
  { w with Workloads.Workload.heap_limit_bytes = kib * 1024 }

let cells workloads =
  List.concat_map
    (fun machine -> List.map (fun workload -> { workload; machine }) workloads)
    machines

let paper_cells () =
  cells (Workloads.Specjvm.all @ Workloads.Javagrande.all)

let gc_cells () =
  cells
    [
      with_heap 512 Workloads.Phase.churn; with_heap 768 Workloads.Specjvm.javac;
    ]

let observed_cells () =
  List.map
    (fun workload -> { workload; machine = Memsim.Config.pentium4 })
    Workloads.
      [ Specjvm.db; Specjvm.jess; Javagrande.euler; Javagrande.raytracer ]

(* Every cell whose headline run expected.json records. *)
let expected_cells () =
  List.sort_uniq
    (fun a b -> compare (key a) (key b))
    (paper_cells () @ gc_cells () @ observed_cells ())

(* Fisher-Yates under the run seed: the order of the units changes with
   the seed, their simulated results do not. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* [smoke] shrinks every workload to one short cell (one plain and
   observed twin for [Observers]) or five fuzz programs. *)
let units ?(smoke = false) ~seed w =
  let pick name cs =
    if smoke then
      Option.to_list
        (List.find_opt (fun c -> c.workload.Workloads.Workload.name = name) cs)
    else cs
  in
  shuffle ~seed
    (match w with
    | Paper -> List.map (fun c -> Plain c) (pick "MonteCarlo" (paper_cells ()))
    | Gc_churn -> List.map (fun c -> Plain c) (pick "javac" (gc_cells ()))
    | Observers ->
        List.concat_map
          (fun c -> [ Plain c; Observed c ])
          (pick "Euler" (observed_cells ()))
    | Fuzz_corpus ->
        List.init (if smoke then 5 else fuzz_programs) (fun i -> Fuzz (fuzz_seed + i)))

let generate seed = Fuzz.Gen.generate ~seed ~max_size:fuzz_max_size
