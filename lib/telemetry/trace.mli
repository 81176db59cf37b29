(** Exporters for the event ring: Chrome trace_event JSON (loadable in
    chrome://tracing or Perfetto) and a flat JSONL metrics stream. Both
    carry host wall time and the simulated cycle counter. *)

val chrome_json : ?other:(string * Json.t) list -> Sink.t -> Json.t
(** The full trace document: [traceEvents] plus an [otherData] section
    recording total and dropped event counts (and any [other] fields). *)

val write_chrome : ?other:(string * Json.t) list -> Sink.t -> path:string -> unit

val jsonl_lines : ?extra:(string * Json.t) list -> Sink.t -> string list
(** One JSON object per event, [extra] fields stamped on every line,
    ending with a summary object (keyed ["summary"]): total and dropped
    event counts, so a consumer of a truncated retained window knows
    what it is missing. *)

val write_jsonl : ?extra:(string * Json.t) list -> Sink.t -> path:string -> unit
