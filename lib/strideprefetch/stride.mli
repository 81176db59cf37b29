(** Stride pattern detection over object-inspection address traces.

    A load (or a pair of loads) has a pattern when one stride value
    accounts for at least [opts.majority] (75%) of the observed strides
    (Section 4: "We recognize that a constant stride is dominant when it
    matches 75% of the all collected strides."). *)

type pattern = {
  stride : int;  (** the dominant stride, in bytes; may be negative *)
  matched : int;  (** samples equal to the dominant stride *)
  samples : int;  (** total strides observed *)
}

val dominant : opts:Options.t -> int list -> pattern option
(** The dominant value of a stride sample list, subject to the majority
    threshold and [opts.min_samples]. *)

val inter : opts:Options.t -> (int * int) list -> pattern option
(** Inter-iteration pattern of one load site from its [(iteration,
    address)] records: strides between consecutive executions. A stride of
    0 means the address is loop invariant (such loads are never
    prefetched). *)

val intra :
  opts:Options.t ->
  anchor:(int * int) list ->
  other:(int * int) list ->
  pattern option
(** Intra-iteration pattern of an adjacent pair: the difference between
    the two sites' addresses within one iteration, sampled across
    iterations ("given a pair of load instructions in a loop, we define
    the stride between them as the difference between the addresses
    accessed by the two instructions within one iteration", Section 1).
    First executions per iteration are compared. *)

val is_invariant : pattern -> bool

val phased : opts:Options.t -> (int * int) list -> pattern list
(** Wu-style phased multiple-stride detection (an extension beyond the
    paper, which focuses on single strides): at least two strides, each
    covering [opts.phased_min_fraction] of the samples, jointly covering
    the majority threshold, with no single dominant stride. Returns the
    phases by descending sample count, or [[]] for single-stride or
    irregular loads. *)

val delta_histogram : (int * int) list -> (int * int) list
(** [(delta, count)] histogram of the consecutive-execution address
    deltas of one site's [(iteration, address)] records, sorted by
    descending count (ties by delta). This is the raw evidence the
    {!inter}/{!phased} decisions are made from; the pass embeds it in
    explain records. *)

val pp : Format.formatter -> pattern -> unit
