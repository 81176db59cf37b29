(** A benchmark workload: a MiniJava program plus metadata.

    Each workload reproduces the {e memory behaviour} the paper attributes
    to one SPECjvm98 / JavaGrande benchmark (Section 4.1) — the access
    patterns its speedup analysis rests on — not the benchmark's full
    functionality. DESIGN.md section 2 records the substitution. *)

type t = {
  name : string;
  suite : [ `Specjvm | `Javagrande | `Phase ];
  description : string;  (** Table 3 description analogue *)
  paper_note : string;
      (** what the paper says drives this benchmark's behaviour *)
  source : string;
  heap_limit_bytes : int;
}

let compile t = Minijava.Compile.program_of_source_exn t.source

let of_source ~name ~description ~heap_limit_bytes source =
  let paper_note = "" in
  { name; suite = `Specjvm; description; paper_note; source; heap_limit_bytes }

(* Shared pseudo-random number generator used inside workloads: a simple
   LCG every workload embeds so runs are deterministic. *)
let lcg_snippet =
  {|
class Rng {
  int seed;
  Rng(int s) { seed = s; }
  int next(int bound) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    if (seed < 0) { seed = 0 - seed; }
    return seed % bound;
  }
}
|}
