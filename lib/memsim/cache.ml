type t = {
  params : Config.cache_params;
  sets : int;
  set_mask : int;
      (** [sets - 1] when [sets] is a power of two (every shipped machine
          config), letting {!set_of} replace the hardware-divide [mod] in
          the per-access path with a mask; [-1] selects the [mod]
          fallback *)
  assoc : int;
  line_shift : int;
  tags : int array;  (** [set * assoc + way]; -1 means invalid *)
  ready : int array;  (** cycle at which the line's fill completes *)
  stamp : int array;  (** LRU timestamps *)
  mutable tick : int;
  mutable memo_slot : int;
      (** the slot of the last {!find_slot} hit. Pure acceleration with no
          simulated effect: a lookup first checks whether this slot holds
          the wanted line — sound because a line maps to exactly one set,
          so [tags.(s) = line] at {e any} [s] proves [s] is the line's
          slot — and consecutive accesses overwhelmingly land on the same
          line, turning the per-way scan (16 ways in the AthlonMP L2)
          into one compare. Always in bounds; staleness is impossible
          because the check re-reads the live [tags] array. *)
}

type lookup = Hit | Hit_in_flight of int | Miss

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (params : Config.cache_params) =
  (match Config.validate_cache "cache" params with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let lines = params.size_bytes / params.line_bytes in
  let sets = lines / params.assoc in
  {
    params;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc = params.assoc;
    line_shift = log2 params.line_bytes;
    tags = Array.make lines (-1);
    ready = Array.make lines 0;
    stamp = Array.make lines 0;
    tick = 0;
    memo_slot = 0;
  }

let params t = t.params
let line_of t addr = addr lsr t.line_shift

let[@inline] set_of t line =
  let mask = t.set_mask in
  if mask >= 0 then line land mask else line mod t.sets

(* Way lookup over the flattened tag array, returning the slot index or -1.
   A line occupies at most one way of its set ([fill] only installs a line
   it did not find), so scanning order does not change the answer; the
   common associativities (2/4/8) are unrolled into straight-line compares
   with no recursion and no [option] allocation. The loop (the AthlonMP's
   16-way L2) is typed [int]: an untyped [<>] is the generic-compare C
   call on every way. *)
let scan_ways (tags : int array) (line : int) base last =
  let i = ref base in
  while !i <= last && Array.unsafe_get tags !i <> line do
    incr i
  done;
  if !i <= last then !i else -1

let[@inline never] find_slot_scan t line =
  let base = set_of t line * t.assoc in
  let tags = t.tags in
  let slot =
    match t.assoc with
  | 1 -> if Array.unsafe_get tags base = line then base else -1
  | 2 ->
      if Array.unsafe_get tags base = line then base
      else if Array.unsafe_get tags (base + 1) = line then base + 1
      else -1
  | 4 ->
      if Array.unsafe_get tags base = line then base
      else if Array.unsafe_get tags (base + 1) = line then base + 1
      else if Array.unsafe_get tags (base + 2) = line then base + 2
      else if Array.unsafe_get tags (base + 3) = line then base + 3
      else -1
    | 8 ->
        if Array.unsafe_get tags base = line then base
        else if Array.unsafe_get tags (base + 1) = line then base + 1
        else if Array.unsafe_get tags (base + 2) = line then base + 2
        else if Array.unsafe_get tags (base + 3) = line then base + 3
        else if Array.unsafe_get tags (base + 4) = line then base + 4
        else if Array.unsafe_get tags (base + 5) = line then base + 5
        else if Array.unsafe_get tags (base + 6) = line then base + 6
        else if Array.unsafe_get tags (base + 7) = line then base + 7
        else -1
    | a -> scan_ways tags line base (base + a - 1)
  in
  if slot >= 0 then t.memo_slot <- slot;
  slot

let[@inline] find_slot t line =
  let s = t.memo_slot in
  if Array.unsafe_get t.tags s = line then s else find_slot_scan t line

(* [slot] always comes from [find_slot]/[victim_slot], in range by
   construction. *)
let[@inline] touch t slot =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.stamp slot t.tick

(* Allocation-free demand lookup: [miss] (< -1) on a miss, otherwise the
   residual fill time clamped to >= 0 (0 = hit-and-ready). *)
let miss = min_int

let[@inline] access_residual t ~addr ~now =
  let slot = find_slot t (addr lsr t.line_shift) in
  if slot < 0 then miss
  else begin
    touch t slot;
    let residual = Array.unsafe_get t.ready slot - now in
    if residual > 0 then residual else 0
  end

let access t ~addr ~now =
  let r = access_residual t ~addr ~now in
  if r = miss then Miss else if r > 0 then Hit_in_flight r else Hit

let probe t ~addr = find_slot t (line_of t addr) >= 0

let victim_slot t set =
  let base = set * t.assoc in
  let best = ref base in
  for way = 1 to t.assoc - 1 do
    let slot = base + way in
    if t.tags.(slot) = -1 && t.tags.(!best) <> -1 then best := slot
    else if t.tags.(slot) <> -1 && t.tags.(!best) <> -1
            && t.stamp.(slot) < t.stamp.(!best)
    then best := slot
  done;
  !best

let fill t ~addr ~ready_at =
  let line = line_of t addr in
  match find_slot t line with
  | -1 ->
      let slot = victim_slot t (set_of t line) in
      t.tags.(slot) <- line;
      t.ready.(slot) <- ready_at;
      touch t slot
  | slot ->
      if ready_at < t.ready.(slot) then t.ready.(slot) <- ready_at;
      touch t slot

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ready 0 (Array.length t.ready) 0;
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.tick <- 0;
  t.memo_slot <- 0

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
