(** Plain-text table renderer shared by the reporting CLIs.

    One implementation of column sizing/alignment serves the
    effectiveness table and the profiler's top-down, object and loop
    tables ([spf_run]) and the bench-gate comparison ([spf_bench]), so
    they all line up the same way and a formatting fix lands everywhere
    at once.

    Rendering is deterministic: column widths depend only on the cell
    strings, so identical inputs produce byte-identical output (the
    profiler's determinism tests rely on this). *)

type align = Left | Right

type t

val make : columns:(string * align) list -> t
(** A fresh table with the given header row; each column carries the
    alignment applied to its header and every cell. *)

val add_row : t -> string list -> unit
(** Append one row. Shorter rows are padded with empty cells; longer
    rows raise [Invalid_argument]. *)

val add_sep : t -> unit
(** Append a horizontal rule spanning all columns. *)

val cell_int : int -> string

val cell_pct : float -> string
(** [cell_pct 0.5] is ["50.0%"]; a NaN or infinite ratio renders as the
    no-basis marker ["-"] rather than ["nan%"]. *)

val cell_ratio : int -> int -> string
(** [cell_ratio num den] renders [num/den] as a percentage with the
    division guarded: a zero (or negative) denominator — a site that
    issued nothing, or one with no remaining target misses — renders as
    ["-"] instead of dividing by zero, and rounding never crosses the
    boundaries (only [0/den] prints ["0.0%"], only [den/den] prints
    ["100.0%"]). *)

val pp : Format.formatter -> t -> unit
(** Render with a two-space column gap and a rule under the header.
    Ends without a trailing newline (compose with [@,] / [@.]). *)

val to_string : t -> string
