(* The hardware prefetch unit attached to the L2 miss stream. Three
   models (Config.hw_prefetch_model):

   - [Disabled]: never suggests anything.
   - [Stream]: the next-line stream detector of the original seed — two
     misses on adjacent lines establish a directed stream that keeps
     suggesting the next line each time it advances. This is the unit
     both evaluation machines ship and the one the paper's half-line
     profitability rule reasons about (Section 3.3, citing Jouppi).
   - [Rpt]: a Chen/Baer reference-prediction table — a direct-mapped
     per-PC tracker table with the Initial/Transient/Steady/NoPred state
     machine, issuing up to [degree] line prefetches [distance] strides
     ahead once a PC's stride is confirmed Steady.

   All models observe only demand L2 misses and suggest L2 fill targets;
   suggestions never cross the page of the triggering miss (hardware
   prefetchers of this era stop at 4 KiB boundaries). *)

(* ---- stream unit ---- *)

type stream = {
  mutable last_line : int;
  mutable direction : int;  (** +1, -1, or 0 when not yet established *)
  mutable live : bool;
}

type stream_unit = {
  streams : stream array;
  mutable next_alloc : int;  (** round-robin victim for new streams *)
}

(* ---- reference prediction table ---- *)

type rpt_state = Initial | Transient | Steady | No_pred

type rpt_entry = {
  mutable tag : int;  (** pc key; [-1] = empty slot *)
  mutable prev_addr : int;
  mutable stride : int;
  mutable state : rpt_state;
}

type rpt_unit = {
  entries : rpt_entry array;  (** direct-mapped, power-of-two sized *)
  degree : int;
  distance : int;
}

type model =
  | Disabled
  | Stream of stream_unit
  | Rpt of rpt_unit

type t = { model : model; line_bytes : int; page_bytes : int }

let create ~(model : Config.hw_prefetch_model) ~line_bytes ~page_bytes =
  if line_bytes <= 0 then invalid_arg "hw_prefetch: line size must be positive";
  if page_bytes <= 0 then invalid_arg "hw_prefetch: page size must be positive";
  let model =
    match model with
    | Config.Hw_none -> Disabled
    | Config.Hw_stream { streams } ->
        if streams < 0 then invalid_arg "hw_prefetch: streams must be >= 0";
        if streams = 0 then Disabled
        else
          Stream
            {
              streams =
                Array.init streams (fun _ ->
                    { last_line = min_int; direction = 0; live = false });
              next_alloc = 0;
            }
    | Config.Hw_rpt { table_size; degree; distance } ->
        if table_size <= 0 || table_size land (table_size - 1) <> 0 then
          invalid_arg "hw_prefetch: rpt table size must be a power of two";
        if degree < 1 then invalid_arg "hw_prefetch: rpt degree must be >= 1";
        if distance < 1 then
          invalid_arg "hw_prefetch: rpt distance must be >= 1";
        Rpt
          {
            entries =
              Array.init table_size (fun _ ->
                  { tag = -1; prev_addr = 0; stride = 0; state = Initial });
            degree;
            distance;
          }
  in
  { model; line_bytes; page_bytes }

(* ---- stream model ---- *)

let find_matching (u : stream_unit) line =
  let n = Array.length u.streams in
  let rec go i =
    if i >= n then None
    else
      let s = u.streams.(i) in
      if s.live && (line = s.last_line + 1 || line = s.last_line - 1) then
        Some s
      else go (i + 1)
  in
  go 0

(* A live stream already at [line]: a second miss on the same line (the
   line was evicted and re-missed before the stream advanced) is a
   re-reference of the stream's position, not a one-line step — at
   [line_bytes] granularity it carries no direction information. Without
   this check the re-miss fell through to the allocation path and
   clobbered an unrelated slot round-robin. *)
let find_same_line (u : stream_unit) line =
  let n = Array.length u.streams in
  let rec go i =
    if i >= n then false
    else
      let s = u.streams.(i) in
      (s.live && line = s.last_line) || go (i + 1)
  in
  go 0

let stream_observe t (u : stream_unit) ~addr =
  let line = addr / t.line_bytes in
  match find_matching u line with
  | Some s ->
      let direction = line - s.last_line in
      s.last_line <- line;
      s.direction <- direction;
      let target = (line + direction) * t.line_bytes in
      (* Hardware prefetchers of this era stop at page boundaries. *)
      if target / t.page_bytes <> addr / t.page_bytes then []
      else [ target ]
  | None ->
      if find_same_line u line then []
      else begin
        (* No established stream covers this miss: allocate a fresh
           stream slot round-robin. It only starts prefetching once a
           neighbouring miss confirms a direction. *)
        let s = u.streams.(u.next_alloc) in
        u.next_alloc <- (u.next_alloc + 1) mod Array.length u.streams;
        s.last_line <- line;
        s.direction <- 0;
        s.live <- true;
        []
      end

(* ---- RPT model ---- *)

(* The classic two-bit state machine (Chen & Baer): a stride repeating
   moves the entry towards Steady, a stride breaking moves it away.

     Initial   --match--> Steady      --mismatch--> Transient (new stride)
     Transient --match--> Steady      --mismatch--> No_pred   (new stride)
     Steady    --match--> Steady      --mismatch--> Initial   (keep stride)
     No_pred   --match--> Transient   --mismatch--> No_pred   (new stride)

   Prefetches are suggested only from Steady entries with a non-zero
   stride. *)

let rpt_observe t (u : rpt_unit) ~pc ~addr =
  let idx = pc land (Array.length u.entries - 1) in
  let e = u.entries.(idx) in
  if e.tag <> pc then begin
    (* Tag replacement: the previous tracker at this slot is evicted. *)
    e.tag <- pc;
    e.prev_addr <- addr;
    e.stride <- 0;
    e.state <- Initial;
    []
  end
  else begin
    let observed = addr - e.prev_addr in
    let matched = observed = e.stride in
    (match e.state with
    | Initial ->
        if matched then e.state <- Steady
        else begin
          e.stride <- observed;
          e.state <- Transient
        end
    | Transient ->
        if matched then e.state <- Steady
        else begin
          e.stride <- observed;
          e.state <- No_pred
        end
    | Steady -> if not matched then e.state <- Initial
    | No_pred ->
        if matched then e.state <- Transient
        else e.stride <- observed);
    e.prev_addr <- addr;
    if e.state <> Steady || e.stride = 0 then []
    else begin
      let page = addr / t.page_bytes in
      let acc = ref [] in
      (* [degree] line targets, the first one [distance] strides ahead,
         clipped to the page of the triggering miss. Built back-to-front
         so the nearest target is issued (and thus filled) first. *)
      for d = u.degree - 1 downto 0 do
        let target_addr = addr + (e.stride * (u.distance + d)) in
        let target = target_addr / t.line_bytes * t.line_bytes in
        if target_addr >= 0 && target_addr / t.page_bytes = page then
          acc := target :: !acc
      done;
      !acc
    end
  end

let observe_miss t ~pc ~addr =
  match t.model with
  | Disabled -> []
  | Stream u -> stream_observe t u ~addr
  | Rpt u -> rpt_observe t u ~pc ~addr

let reset t =
  match t.model with
  | Disabled -> ()
  | Stream u ->
      Array.iter
        (fun s ->
          s.last_line <- min_int;
          s.direction <- 0;
          s.live <- false)
        u.streams;
      u.next_alloc <- 0
  | Rpt u ->
      Array.iter
        (fun e ->
          e.tag <- -1;
          e.prev_addr <- 0;
          e.stride <- 0;
          e.state <- Initial)
        u.entries

let rpt_state_name t ~pc =
  match t.model with
  | Disabled | Stream _ -> None
  | Rpt u ->
      let e = u.entries.(pc land (Array.length u.entries - 1)) in
      if e.tag <> pc then None
      else
        Some
          (match e.state with
          | Initial -> "initial"
          | Transient -> "transient"
          | Steady -> "steady"
          | No_pred -> "nopred")
