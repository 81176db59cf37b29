(* Accumulates the interpreter's profile hooks into dense tables.

   The conservation law that makes the profile trustworthy: the
   interpreter reports every cycle it charges through exactly one hook
   call, and this collector adds every hook payload to exactly one bin,
   so [total] reconstructs [Stats.cycles] exactly. The law is asserted
   per cell by the profile tests and, behind [check_invariants], at the
   end of every harness run. *)

type bins = {
  mutable b_retire : int;
  mutable b_tlb : int;
  mutable b_l1 : int;
  mutable b_l2 : int;
  mutable b_mem : int;
  mutable b_pf : int;
  mutable b_guard : int;
  mutable b_alloc : int;
}

let zero_bins () =
  {
    b_retire = 0;
    b_tlb = 0;
    b_l1 = 0;
    b_l2 = 0;
    b_mem = 0;
    b_pf = 0;
    b_guard = 0;
    b_alloc = 0;
  }

let bins_total b =
  b.b_retire + b.b_tlb + b.b_l1 + b.b_l2 + b.b_mem + b.b_pf + b.b_guard
  + b.b_alloc

let add_bins ~into b =
  into.b_retire <- into.b_retire + b.b_retire;
  into.b_tlb <- into.b_tlb + b.b_tlb;
  into.b_l1 <- into.b_l1 + b.b_l1;
  into.b_l2 <- into.b_l2 + b.b_l2;
  into.b_mem <- into.b_mem + b.b_mem;
  into.b_pf <- into.b_pf + b.b_pf;
  into.b_guard <- into.b_guard + b.b_guard;
  into.b_alloc <- into.b_alloc + b.b_alloc

type obj_cell = {
  mutable allocs : int;
  mutable alloc_bytes : int;
  mutable o_tlb : int;
  mutable o_l1 : int;
  mutable o_l2 : int;
  mutable o_mem : int;
}

let zero_obj () =
  { allocs = 0; alloc_bytes = 0; o_tlb = 0; o_l1 = 0; o_l2 = 0; o_mem = 0 }

(* Per-pc bins are dense: one row per method id, indexed by the pc's low
   16 bits (the same pc [key] packs), each grown on first touch. Every
   slot of a row starts as the shared [unseen] sentinel, which is never
   written — so a hit is two bounds checks and two loads, with no
   hashing. *)
let unseen = zero_bins ()

type t = {
  mutable pcs : bins array array;  (** method id -> pc -> bins *)
  mutable obj_cell : obj_cell array;
      (** heap object id -> its allocation site's cell; [unattributed]
          for ids no allocation was seen for *)
  obj_sites : (int, obj_cell) Hashtbl.t;  (** packed alloc site -> cell *)
  unattributed : obj_cell;  (** the cell of site [-1] *)
  mutable unattributed_hit : bool;  (** whether a stall reached it *)
  mutable gc : int;
}

let create () =
  let unattributed = zero_obj () in
  {
    pcs = Array.make 64 [||];
    obj_cell = Array.make 1024 unattributed;
    obj_sites = Hashtbl.create 128;
    unattributed;
    unattributed_hit = false;
    gc = 0;
  }

let key ~method_id ~pc = (method_id lsl 16) lor (pc land 0xffff)

(* The miss path of [pc_bins]: grow the method's row (and the row table)
   to cover the slot, then give it fresh bins. *)
let[@inline never] touch t ~method_id ~pc =
  if method_id < 0 then invalid_arg "Profile.Collector: negative method id";
  let n = Array.length t.pcs in
  if method_id >= n then begin
    let grown = Array.make (max (2 * n) (method_id + 1)) [||] in
    Array.blit t.pcs 0 grown 0 n;
    t.pcs <- grown
  end;
  let row = t.pcs.(method_id) in
  let len = Array.length row in
  let row =
    if pc < len then row
    else begin
      let grown = Array.make (min 0x10000 (max 64 (2 * max len pc))) unseen in
      Array.blit row 0 grown 0 len;
      t.pcs.(method_id) <- grown;
      grown
    end
  in
  let b = zero_bins () in
  row.(pc) <- b;
  b

(* Every charge and stall of a profiled run goes through this lookup, so
   a hit must allocate nothing and hash nothing. *)
let pc_bins t ~method_id ~pc =
  let pc = pc land 0xffff in
  let pcs = t.pcs in
  if method_id >= 0 && method_id < Array.length pcs then begin
    let row = Array.unsafe_get pcs method_id in
    if pc < Array.length row then begin
      let b = Array.unsafe_get row pc in
      if b != unseen then b else touch t ~method_id ~pc
    end
    else touch t ~method_id ~pc
  end
  else touch t ~method_id ~pc

let site_cell t site =
  match Hashtbl.find t.obj_sites site with
  | c -> c
  | exception Not_found ->
      let c = zero_obj () in
      Hashtbl.add t.obj_sites site c;
      c

(* The cell a stall on [obj] lands in: its allocation site's, or the
   unattributed one (statics, [-1], ids allocated before profiling
   started). *)
let obj_cell_of t obj =
  if obj >= 0 && obj < Array.length t.obj_cell then begin
    let c = Array.unsafe_get t.obj_cell obj in
    if c == t.unattributed then t.unattributed_hit <- true;
    c
  end
  else begin
    t.unattributed_hit <- true;
    t.unattributed
  end

let remember_cell t ~obj c =
  let n = Array.length t.obj_cell in
  if obj >= n then begin
    let grown = Array.make (max (2 * n) (obj + 1)) t.unattributed in
    Array.blit t.obj_cell 0 grown 0 n;
    t.obj_cell <- grown
  end;
  t.obj_cell.(obj) <- c

let hooks t : Vm.Interp.profile_hooks =
  {
    on_cycles =
      (fun ~method_id ~pc ~bin ~cycles ->
        let b = pc_bins t ~method_id ~pc in
        match bin with
        | Vm.Interp.Prof_retire -> b.b_retire <- b.b_retire + cycles
        | Vm.Interp.Prof_alloc -> b.b_alloc <- b.b_alloc + cycles
        | Vm.Interp.Prof_pf_overhead -> b.b_pf <- b.b_pf + cycles
        | Vm.Interp.Prof_guard_overhead -> b.b_guard <- b.b_guard + cycles);
    on_stall =
      (fun ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem ->
        let b = pc_bins t ~method_id ~pc in
        b.b_tlb <- b.b_tlb + tlb;
        b.b_l1 <- b.b_l1 + l1;
        b.b_l2 <- b.b_l2 + l2;
        b.b_mem <- b.b_mem + mem;
        let c = obj_cell_of t obj in
        c.o_tlb <- c.o_tlb + tlb;
        c.o_l1 <- c.o_l1 + l1;
        c.o_l2 <- c.o_l2 + l2;
        c.o_mem <- c.o_mem + mem);
    on_alloc =
      (fun ~obj ~method_id ~pc ~bytes ->
        let c = site_cell t (key ~method_id ~pc) in
        remember_cell t ~obj c;
        c.allocs <- c.allocs + 1;
        c.alloc_bytes <- c.alloc_bytes + bytes);
    on_gc = (fun ~cycles -> t.gc <- t.gc + cycles);
  }

let fold_pcs f t acc =
  let acc = ref acc in
  Array.iteri
    (fun method_id row ->
      Array.iteri
        (fun pc b -> if b != unseen then acc := f (key ~method_id ~pc) b !acc)
        row)
    t.pcs;
  !acc

let pc_cells t = fold_pcs (fun k b acc -> (k, b) :: acc) t []

let obj_cells t =
  let cells = Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.obj_sites [] in
  if t.unattributed_hit then (-1, t.unattributed) :: cells else cells

let gc_cycles t = t.gc
let total t = fold_pcs (fun _ b acc -> acc + bins_total b) t t.gc
