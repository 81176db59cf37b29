type t = {
  params : Config.tlb_params;
  page_shift : int;
  pages : int array;  (** -1 means invalid *)
  stamp : int array;
  mutable tick : int;
  mutable last : int;
      (** index of the last hit — page locality makes consecutive accesses
          overwhelmingly land on the same page, so this memo short-circuits
          the linear scan. Entries are unique ([fill] only installs a page
          it did not find), and the memo always re-reads the live [pages]
          array, so it can never return a stale answer. *)
  hint : int array;
      (** direct-mapped acceleration index: [hint.(page land hint_mask)]
          is the {e candidate} entry for [page]. Like [last], it is a pure
          lookup hint with no simulated effect — every candidate is
          verified against the live [pages] array before use, so a stale
          or colliding hint only costs the linear-scan fallback. Without
          it, workloads whose access stream alternates between pages (the
          [db] record scans) degrade to scanning the full 256-entry
          AthlonMP DTLB on every access. *)
  hint_mask : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (params : Config.tlb_params) =
  if params.entries <= 0 then invalid_arg "tlb: entries must be positive";
  if params.page_bytes <= 0 || params.page_bytes land (params.page_bytes - 1) <> 0
  then invalid_arg "tlb: page size must be a power of two";
  {
    params;
    page_shift = log2 params.page_bytes;
    pages = Array.make params.entries (-1);
    stamp = Array.make params.entries 0;
    tick = 0;
    last = 0;
    hint = Array.make 1024 0;
    hint_mask = 1023;
  }

let params t = t.params
let page_of t addr = addr lsr t.page_shift

(* Index of [page], or -1. Checks the last-hit memo first; the fallback is
   a tight counted loop (measurably faster here than the seed's recursive
   option-returning scan, and it allocates nothing). *)
let[@inline never] find_idx_scan t page =
  let pages = t.pages in
  let n = Array.length pages in
  let i = ref 0 in
  while !i < n && Array.unsafe_get pages !i <> page do
    incr i
  done;
  if !i < n then begin
    t.last <- !i;
    t.hint.(page land t.hint_mask) <- !i;
    !i
  end
  else -1

let[@inline] find_idx t page =
  let pages = t.pages in
  if Array.unsafe_get pages t.last = page then t.last
  else begin
    let h = Array.unsafe_get t.hint (page land t.hint_mask) in
    if Array.unsafe_get pages h = page then begin
      t.last <- h;
      h
    end
    else find_idx_scan t page
  end

let[@inline] touch t i =
  t.tick <- t.tick + 1;
  t.stamp.(i) <- t.tick

let[@inline] access t ~addr =
  let i = find_idx t (page_of t addr) in
  if i >= 0 then begin
    touch t i;
    true
  end
  else false

let probe t ~addr = find_idx t (page_of t addr) >= 0

let fill t ~addr =
  let page = page_of t addr in
  match find_idx t page with
  | i when i >= 0 -> touch t i
  | _ ->
      let victim = ref 0 in
      let n = Array.length t.pages in
      (try
         for i = 0 to n - 1 do
           if t.pages.(i) = -1 then begin
             victim := i;
             raise Exit
           end;
           if t.stamp.(i) < t.stamp.(!victim) then victim := i
         done
       with Exit -> ());
      t.pages.(!victim) <- page;
      t.last <- !victim;
      t.hint.(page land t.hint_mask) <- !victim;
      touch t !victim

let reset t =
  Array.fill t.pages 0 (Array.length t.pages) (-1);
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.tick <- 0;
  t.last <- 0;
  Array.fill t.hint 0 (Array.length t.hint) 0

let resident_pages t =
  Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 t.pages
