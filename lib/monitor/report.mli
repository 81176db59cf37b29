(** The monitoring run's end product: windows, verdict timeline, joined
    per-loop / per-site context, and the three renderings — terminal
    dashboard (sparklines, verdict strip, top degrading loops/sites),
    JSONL time series, and detection-latency analysis. Pure presentation
    over data collected by {!Collector}. *)

type site_row = {
  site_label : string;
  site_total : Memsim.Attribution.site_counters;  (** whole-run counters *)
  site_post : Memsim.Attribution.site_counters option;
      (** accumulated since the first Degraded window, when one fired *)
}

type t = {
  window_cycles : int;
  windows : Window.t array;  (** oldest first; last may be partial *)
  first_degraded : int option;  (** window index *)
  degraded : (int * Detect.reason) list;  (** oldest first *)
  method_names : string array;  (** indexed by method id *)
  sites : site_row list;
  total_cycles : int;
  dropped_events : int;  (** telemetry ring drops, 0 when no sink *)
}

val make :
  window_cycles:int ->
  windows:Window.t array ->
  first_degraded:int option ->
  degraded:(int * Detect.reason) list ->
  method_names:string array ->
  sites:site_row list ->
  total_cycles:int ->
  dropped_events:int ->
  t

(** {2 Detection latency} *)

type latency =
  | No_shift  (** the marker offset lies past every window *)
  | Undetected of int  (** shift located at this window, never flagged *)
  | Detected of { shift : int; degraded : int; latency : int }
      (** first Degraded at or after the shift window; [latency] in
          windows *)

val detection_latency : t -> marker_offset:int -> latency
(** Locate the planted phase shift by the byte offset of its printed
    marker and measure how many windows the detectors took to flag it. *)

(** {2 Renderings} *)

val pp_dashboard : ?top:int -> Format.formatter -> t -> unit

val jsonl_lines : t -> string list
(** One JSON object per window plus a final summary line. *)

val write_jsonl : t -> out_channel -> unit
