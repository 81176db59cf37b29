(** A benchmark workload: a MiniJava program plus metadata.

    Each workload reproduces the {e memory behaviour} the paper attributes
    to one SPECjvm98 / JavaGrande benchmark (Section 4.1) — the access
    patterns its speedup analysis rests on — not the benchmark's full
    functionality. DESIGN.md section 2 records the substitution. *)

type t = {
  name : string;
  suite : [ `Specjvm | `Javagrande | `Phase ];
      (** [`Phase]: not a paper benchmark — a synthetic phase-shifting
          family driven by the live monitor (not part of the bench
          matrix) *)
  description : string;  (** Table 3 description analogue *)
  paper_note : string;
      (** what the paper says drives this benchmark's behaviour *)
  source : string;
  heap_limit_bytes : int;
}

val compile : t -> Vm.Classfile.program
(** Compile [source]; raises [Failure] with a located message when the
    workload does not type-check (they all do — see the test suite). *)

val of_source :
  name:string -> description:string -> heap_limit_bytes:int -> string -> t
(** A workload that is not one of the paper's: a generated or a user
    program, with no paper note. *)

val lcg_snippet : string
(** A deterministic linear-congruential [Rng] class every workload embeds
    so runs are reproducible. *)
