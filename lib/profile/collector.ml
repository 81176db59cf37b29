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

type t = {
  pcs : (int, bins) Hashtbl.t;  (** packed (method, pc) -> bins *)
  mutable obj_site : int array;  (** heap object id -> packed alloc site *)
  obj_sites : (int, obj_cell) Hashtbl.t;  (** packed alloc site -> cell *)
  mutable gc : int;
}

let create () =
  {
    pcs = Hashtbl.create 512;
    obj_site = Array.make 1024 (-1);
    obj_sites = Hashtbl.create 128;
    gc = 0;
  }

let key ~method_id ~pc = (method_id lsl 16) lor (pc land 0xffff)

(* Every charge and stall of a profiled run goes through these two
   lookups, so a hit must allocate nothing: [Hashtbl.find] with a
   [Not_found] handler, not [find_opt]'s [Some] box. *)
let pc_bins t ~method_id ~pc =
  let k = key ~method_id ~pc in
  match Hashtbl.find t.pcs k with
  | b -> b
  | exception Not_found ->
      let b = zero_bins () in
      Hashtbl.add t.pcs k b;
      b

let obj_cell t site =
  match Hashtbl.find t.obj_sites site with
  | c -> c
  | exception Not_found ->
      let c = zero_obj () in
      Hashtbl.add t.obj_sites site c;
      c

let site_of_obj t obj =
  if obj >= 0 && obj < Array.length t.obj_site then t.obj_site.(obj) else -1

let remember_site t ~obj ~site =
  let n = Array.length t.obj_site in
  if obj >= n then begin
    let grown = Array.make (max (2 * n) (obj + 1)) (-1) in
    Array.blit t.obj_site 0 grown 0 n;
    t.obj_site <- grown
  end;
  t.obj_site.(obj) <- site

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
        let c = obj_cell t (site_of_obj t obj) in
        c.o_tlb <- c.o_tlb + tlb;
        c.o_l1 <- c.o_l1 + l1;
        c.o_l2 <- c.o_l2 + l2;
        c.o_mem <- c.o_mem + mem);
    on_alloc =
      (fun ~obj ~method_id ~pc ~bytes ->
        let site = key ~method_id ~pc in
        remember_site t ~obj ~site;
        let c = obj_cell t site in
        c.allocs <- c.allocs + 1;
        c.alloc_bytes <- c.alloc_bytes + bytes);
    on_gc = (fun ~cycles -> t.gc <- t.gc + cycles);
  }

let pc_cells t = Hashtbl.fold (fun k b acc -> (k, b) :: acc) t.pcs []
let obj_cells t = Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.obj_sites []
let gc_cycles t = t.gc

let total t =
  Hashtbl.fold (fun _ b acc -> acc + bins_total b) t.pcs t.gc
