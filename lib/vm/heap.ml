type contents =
  | Object of { class_id : int; fields : Value.t array }
  | Int_array of int array
  | Ref_array of Value.t array

type obj = { id : int; mutable base : int; size : int; contents : contents }

(* Tombstone / "no object" sentinel. Its [id] is -1 (never a real id) and
   its [size] is 0, so neither the id-validity check in [get] nor the
   address-range check in [object_containing] can ever match it. *)
let tombstone = { id = -1; base = -1; size = 0; contents = Int_array [||] }

type t = {
  limit : int;
  mutable next_addr : int;
  (* Dense id -> object table. Ids are handed out sequentially by the bump
     allocator, so [by_id.(id)] is an O(1) bounds-checked array read with
     no hashing and no [option] allocation on the interpreter's hottest
     path. Swept objects leave [tombstone] behind (their slot is never
     reused: ids are monotonically increasing). *)
  mutable by_id : obj array;
  (* Objects in ascending address order. Bump allocation appends in order;
     compaction rebuilds the array, so it is always sorted by [base]. *)
  mutable by_addr : obj array;
  mutable n_objects : int;
  mutable next_id : int;
  (* One-entry memo of the last [object_containing] hit. Speculative loads
     ([Spec_load]) exhibit strong locality: consecutive probes usually land
     in the same object, so checking the memo first skips the binary
     search. Invalidated (reset to [tombstone]) by compaction, the only
     operation that can move or kill objects. *)
  mutable last_hit : obj;
  (* Collector scratch, empty until the first collection: one mark byte
     per id (all zero between collections: compaction clears what marking
     set) and the explicit mark stack. *)
  mutable marks : Bytes.t;
  mutable work : int array;
  mutable work_sp : int;
}

exception Out_of_memory

let default_limit = 64 * 1024 * 1024

let create ?(limit_bytes = default_limit) () =
  {
    limit = limit_bytes;
    next_addr = Classfile.heap_base;
    by_id = Array.make 1024 tombstone;
    by_addr = Array.make 1024 tombstone;
    n_objects = 0;
    next_id = 0;
    last_hit = tombstone;
    marks = Bytes.empty;
    work = [||];
    work_sp = 0;
  }

let limit_bytes t = t.limit
let used_bytes t = t.next_addr - Classfile.heap_base
let live_objects t = t.n_objects

(* A full table, doubled (at least 256 slots) with its contents kept. *)
let grow a fill =
  let bigger = Array.make (max 256 (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let append_by_addr t obj =
  if t.n_objects = Array.length t.by_addr then t.by_addr <- grow t.by_addr obj;
  t.by_addr.(t.n_objects) <- obj;
  t.n_objects <- t.n_objects + 1

let append_by_id t obj =
  (* [obj.id = t.next_id - 1] by construction. *)
  if obj.id >= Array.length t.by_id then t.by_id <- grow t.by_id tombstone;
  t.by_id.(obj.id) <- obj

let align n = (n + Classfile.slot_bytes - 1) land lnot (Classfile.slot_bytes - 1)

let alloc t ~size contents =
  let size = align size in
  if t.next_addr + size > Classfile.heap_base + t.limit then raise Out_of_memory;
  let obj = { id = t.next_id; base = t.next_addr; size; contents } in
  t.next_id <- t.next_id + 1;
  t.next_addr <- t.next_addr + size;
  append_by_id t obj;
  append_by_addr t obj;
  obj.id

let alloc_object t (ci : Classfile.class_info) =
  alloc t ~size:ci.instance_bytes
    (Object
       {
         class_id = ci.class_id;
         fields = Array.make (Array.length ci.fields) Value.Null;
       })

let array_size len = Classfile.array_elems_offset + (len * Classfile.slot_bytes)

let alloc_int_array t len =
  if len < 0 then invalid_arg "alloc_int_array: negative length";
  alloc t ~size:(array_size len) (Int_array (Array.make len 0))

let alloc_ref_array t len =
  if len < 0 then invalid_arg "alloc_ref_array: negative length";
  alloc t ~size:(array_size len) (Ref_array (Array.make len Value.Null))

let[@inline never] dangling id =
  invalid_arg (Printf.sprintf "heap: dangling object id %d" id)

let[@inline] get t id =
  if id >= 0 && id < t.next_id then begin
    let obj = Array.unsafe_get t.by_id id in
    (* A swept slot holds [tombstone], whose id (-1) never equals a real
       id; live slots hold the object whose id equals the index. *)
    if obj.id = id then obj else dangling id
  end
  else dangling id

let exists t id = id >= 0 && id < t.next_id && (Array.unsafe_get t.by_id id).id = id
let[@inline] base_of t id = (get t id).base
let[@inline] size_of t id = (get t id).size

let class_id_of t id =
  match (get t id).contents with
  | Object { class_id; _ } -> Some class_id
  | Int_array _ | Ref_array _ -> None

let is_ref_array t id =
  match (get t id).contents with Ref_array _ -> true | _ -> false

(* The accessors below inline into the engines' handlers; their raising
   paths stay out of line so the inlined bodies are a lookup, a tag test
   and a bounds-checked move. *)
let[@inline never] invalid msg = invalid_arg msg

let[@inline] fields_of obj =
  match obj.contents with
  | Object { fields; _ } -> fields
  | Int_array _ | Ref_array _ -> invalid "heap: array used as object"

let[@inline] get_field t id slot = (fields_of (get t id)).(slot)
let[@inline] set_field t id slot v = (fields_of (get t id)).(slot) <- v

let field_addr t id slot =
  (get t id).base + Classfile.header_bytes + (slot * Classfile.slot_bytes)

let[@inline] array_length t id =
  match (get t id).contents with
  | Int_array a -> Array.length a
  | Ref_array a -> Array.length a
  | Object _ -> invalid "heap: object used as array"

let[@inline] length_addr t id = (get t id).base + Classfile.array_length_offset

let[@inline] get_elem t id i =
  match (get t id).contents with
  | Int_array a -> Value.of_int a.(i)
  | Ref_array a -> a.(i)
  | Object _ -> invalid "heap: object used as array"

let[@inline] set_elem t id i v =
  match ((get t id).contents, v) with
  | Int_array a, Value.Int n -> a.(i) <- n
  | Int_array _, (Value.Ref _ | Value.Null) ->
      invalid "heap: reference stored into int array"
  | Ref_array a, (Value.Ref _ | Value.Null) -> a.(i) <- v
  | Ref_array _, Value.Int _ -> invalid "heap: int stored into ref array"
  | Object _, _ -> invalid "heap: object used as array"

let elem_addr t id i =
  (get t id).base + Classfile.array_elems_offset + (i * Classfile.slot_bytes)

(* Greatest object whose base is <= addr, by binary search over the
   address-ordered table; the last hit is memoized, which turns the
   spec-load probe sequences of Section 3.3 (many addresses within one
   inspected object) into a single range check. *)
let object_containing t addr =
  let memo = t.last_hit in
  if addr >= memo.base && addr - memo.base < memo.size then Some memo
  else begin
    let lo = ref 0 and hi = ref (t.n_objects - 1) and found = ref tombstone in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let obj = t.by_addr.(mid) in
      if obj.base <= addr then begin
        found := obj;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    let obj = !found in
    if obj.id >= 0 && addr - obj.base < obj.size then begin
      t.last_hit <- obj;
      Some obj
    end
    else None
  end

let object_at t addr =
  match object_containing t addr with Some o -> Some o.id | None -> None

let value_at t addr =
  match object_containing t addr with
  | None -> None
  | Some obj -> (
      let rel = addr - obj.base in
      let slot_of off = (rel - off) / Classfile.slot_bytes in
      let aligned off = (rel - off) mod Classfile.slot_bytes = 0 in
      match obj.contents with
      | Object { fields; _ } ->
          let off = Classfile.header_bytes in
          if rel >= off && aligned off && slot_of off < Array.length fields
          then Some fields.(slot_of off)
          else None
      | Int_array a ->
          if rel = Classfile.array_length_offset then
            Some (Value.Int (Array.length a))
          else
            let off = Classfile.array_elems_offset in
            if rel >= off && aligned off && slot_of off < Array.length a then
              Some (Value.Int a.(slot_of off))
            else None
      | Ref_array a ->
          if rel = Classfile.array_length_offset then
            Some (Value.Int (Array.length a))
          else
            let off = Classfile.array_elems_offset in
            if rel >= off && aligned off && slot_of off < Array.length a then
              Some a.(slot_of off)
            else None)

let iter_ids_in_address_order t f =
  for i = 0 to t.n_objects - 1 do
    f t.by_addr.(i).id
  done

let mark t v =
  match v with
  | Value.Ref id when exists t id && Bytes.unsafe_get t.marks id = '\000' ->
      Bytes.unsafe_set t.marks id '\001';
      if t.work_sp = Array.length t.work then t.work <- grow t.work 0;
      t.work.(t.work_sp) <- id;
      t.work_sp <- t.work_sp + 1
  | Value.Ref _ | Value.Int _ | Value.Null -> ()

let mark_compact t ~roots =
  if Bytes.length t.marks < t.next_id then
    t.marks <- Bytes.make (max t.next_id (2 * Bytes.length t.marks)) '\000';
  roots (mark t);
  while t.work_sp > 0 do
    t.work_sp <- t.work_sp - 1;
    match t.by_id.(t.work.(t.work_sp)).contents with
    | Object { fields = a; _ } | Ref_array a ->
        for i = 0 to Array.length a - 1 do
          mark t (Array.unsafe_get a i)
        done
    | Int_array _ -> ()
  done;
  (* Slide the marked objects towards the heap base in address order,
     clearing their marks; every unmarked object dies. *)
  let kept = ref 0 and cursor = ref Classfile.heap_base in
  for i = 0 to t.n_objects - 1 do
    let obj = t.by_addr.(i) in
    if Bytes.unsafe_get t.marks obj.id <> '\000' then begin
      Bytes.unsafe_set t.marks obj.id '\000';
      obj.base <- !cursor;
      cursor := !cursor + obj.size;
      t.by_addr.(!kept) <- obj;
      incr kept
    end
    else t.by_id.(obj.id) <- tombstone
  done;
  let removed = t.n_objects - !kept in
  t.n_objects <- !kept;
  t.next_addr <- !cursor;
  (* Bases moved and objects died: the memo can no longer be trusted. *)
  t.last_hit <- tombstone;
  removed

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  try
    let cursor = ref Classfile.heap_base in
    for i = 0 to t.n_objects - 1 do
      let o = t.by_addr.(i) in
      let indexed = exists t o.id && t.by_id.(o.id) == o in
      if o.base <> !cursor || o.size <= 0 || not indexed then
        fail "by_addr.(%d): id %d at %d, expected at %d" i o.id o.base !cursor;
      cursor := !cursor + o.size
    done;
    if !cursor <> t.next_addr then
      fail "objects end at %d, next_addr is %d" !cursor t.next_addr;
    let live = ref 0 in
    for id = 0 to t.next_id - 1 do
      let o = t.by_id.(id) in
      if o.id = id then incr live
      else if o != tombstone then fail "by_id.(%d) holds id %d" id o.id
    done;
    if !live <> t.n_objects then
      fail "%d live ids, %d objects by address" !live t.n_objects;
    Option.iter (fail "mark of id %d left set") (Bytes.index_opt t.marks '\001');
    Ok ()
  with Failure msg -> Error msg
