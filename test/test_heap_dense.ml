(* Differential test of the dense-array heap (lib/vm/heap.ml).

   The heap's id -> object map is a dense array indexed by the sequential
   allocation id, with tombstones left by GC compaction. This test runs a
   long randomized script of allocations, field/element writes, reads,
   address probes and collections from random root sets against a trivial
   reference model (a Hashtbl of pure-OCaml shadow objects) and checks
   that every heap invariant holds after each collection and that every
   observable answer — [get_field]/[get_elem], [exists], [base_of] order,
   [value_at], [object_at], [live_objects], [iter_ids_in_address_order] —
   agrees with the model at every step. The script is deterministic
   (seeded PRNG), so failures reproduce. *)

module C = Vm.Classfile
module V = Vm.Value
module H = Vm.Heap

let point_class =
  C.make_class ~class_id:0 ~class_name:"Point"
    ~field_specs:[ ("x", false); ("y", false); ("next", true) ]

type kind = Obj | Int_arr | Ref_arr

type shadow = { kind : kind; slots : V.t array }

type model = {
  tbl : (int, shadow) Hashtbl.t;  (** live ids only *)
  mutable order : int list;  (** live ids in allocation order, reversed *)
}

let slot_count = function
  | Obj -> 3 (* point_class: x, y, next *)
  | Int_arr | Ref_arr -> 0 (* filled in at alloc from the random length *)

let _ = slot_count

let alloc st model heap =
  let id, shadow =
    match Random.State.int st 3 with
    | 0 ->
        ( H.alloc_object heap point_class,
          { kind = Obj; slots = Array.make 3 V.Null } )
    | 1 ->
        let len = 1 + Random.State.int st 6 in
        ( H.alloc_int_array heap len,
          { kind = Int_arr; slots = Array.make len (V.Int 0) } )
    | _ ->
        let len = 1 + Random.State.int st 4 in
        ( H.alloc_ref_array heap len,
          { kind = Ref_arr; slots = Array.make len V.Null } )
  in
  Hashtbl.replace model.tbl id shadow;
  model.order <- id :: model.order;
  id

let live_ids model = List.rev model.order

let random_live st model =
  match model.order with
  | [] -> None
  | order ->
      let ids = Array.of_list order in
      Some ids.(Random.State.int st (Array.length ids))

let write st model heap id =
  let shadow = Hashtbl.find model.tbl id in
  let n = Array.length shadow.slots in
  if n > 0 then begin
    let slot = Random.State.int st n in
    let value =
      match shadow.kind with
      | Int_arr -> V.Int (Random.State.int st 1000)
      | Obj when slot < 2 -> V.Int (Random.State.int st 1000)
      | Obj | Ref_arr -> (
          (* a ref slot: Null or a reference to some live object *)
          match random_live st model with
          | Some target when Random.State.bool st -> V.Ref target
          | _ -> V.Null)
    in
    shadow.slots.(slot) <- value;
    match shadow.kind with
    | Obj -> H.set_field heap id slot value
    | Int_arr | Ref_arr -> H.set_elem heap id slot value
  end

let read_slot heap kind id slot =
  match kind with
  | Obj -> H.get_field heap id slot
  | Int_arr | Ref_arr -> H.get_elem heap id slot

let slot_addr heap kind id slot =
  match kind with
  | Obj -> H.field_addr heap id slot
  | Int_arr | Ref_arr -> H.elem_addr heap id slot

let check_object heap id shadow =
  if not (H.exists heap id) then Alcotest.failf "id %d should exist" id;
  Array.iteri
    (fun slot expected ->
      let got = read_slot heap shadow.kind id slot in
      if got <> expected then
        Alcotest.failf "id %d slot %d disagrees with model" id slot;
      (* the same value must be recoverable through the address map, which
         is what speculative loads use *)
      let addr = slot_addr heap shadow.kind id slot in
      (match H.value_at heap addr with
      | Some v when v = expected -> ()
      | _ -> Alcotest.failf "value_at for id %d slot %d disagrees" id slot);
      match H.object_at heap addr with
      | Some owner when owner = id -> ()
      | _ -> Alcotest.failf "object_at for id %d slot %d disagrees" id slot)
    shadow.slots

let check_full heap model ~dead =
  (* dead ids are invisible *)
  List.iter
    (fun id ->
      if H.exists heap id then Alcotest.failf "dead id %d still exists" id)
    dead;
  (* every live object agrees slot-for-slot with the model *)
  Hashtbl.iter (fun id shadow -> check_object heap id shadow) model.tbl;
  Alcotest.(check int) "live_objects" (Hashtbl.length model.tbl)
    (H.live_objects heap);
  (* address order = allocation order, and bases strictly increase
     (sliding compaction preserves internal order; Section 4 of the
     paper relies on this) *)
  let iterated = ref [] in
  H.iter_ids_in_address_order heap (fun id -> iterated := id :: !iterated);
  let iterated = List.rev !iterated in
  if iterated <> live_ids model then
    Alcotest.fail "iter_ids_in_address_order disagrees with allocation order";
  ignore
    (List.fold_left
       (fun prev id ->
         let base = H.base_of heap id in
         if base <= prev then Alcotest.failf "base of id %d not increasing" id;
         base)
       (-1) iterated)

let compact st model heap =
  (* root a random ~75% of live objects; whatever they do not reach dies *)
  let roots =
    Hashtbl.fold
      (fun id _ acc -> if Random.State.int st 4 = 0 then acc else id :: acc)
      model.tbl []
  in
  let reached = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem reached id) then begin
      Hashtbl.replace reached id ();
      Array.iter
        (function V.Ref r -> visit r | V.Int _ | V.Null -> ())
        (Hashtbl.find model.tbl id).slots
    end
  in
  List.iter visit roots;
  let dead =
    Hashtbl.fold
      (fun id _ acc -> if Hashtbl.mem reached id then acc else id :: acc)
      model.tbl []
  in
  let result = Helpers.collect heap (List.map (fun id -> V.Ref id) roots) in
  Alcotest.(check int) "removed count" (List.length dead) result.collected;
  List.iter (Hashtbl.remove model.tbl) dead;
  model.order <- List.filter (Hashtbl.mem model.tbl) model.order;
  dead

let test_differential () =
  let st = Random.State.make [| 0x5eed; 2003 |] in
  let heap = H.create () in
  let model = { tbl = Hashtbl.create 64; order = [] } in
  let all_dead = ref [] in
  for step = 1 to 3000 do
    (match Random.State.int st 10 with
    | 0 | 1 | 2 -> ignore (alloc st model heap)
    | 3 | 4 | 5 | 6 -> (
        match random_live st model with
        | Some id -> write st model heap id
        | None -> ignore (alloc st model heap))
    | 7 | 8 -> (
        (* spot-check one object, exercising the value_at memo by probing
           the same object repeatedly before switching *)
        match random_live st model with
        | Some id ->
            let shadow = Hashtbl.find model.tbl id in
            check_object heap id shadow;
            check_object heap id shadow
        | None -> ())
    | _ ->
        let dead = compact st model heap in
        all_dead := dead @ !all_dead);
    if step mod 500 = 0 then check_full heap model ~dead:!all_dead
  done;
  check_full heap model ~dead:!all_dead;
  (* ids are never recycled: every tombstoned id stays dead forever *)
  List.iter
    (fun id ->
      if H.exists heap id then Alcotest.failf "recycled dead id %d" id)
    !all_dead

let test_dangling_get_raises () =
  let heap = H.create () in
  let a = H.alloc_object heap point_class in
  let b = H.alloc_object heap point_class in
  ignore (Helpers.collect heap [ V.Ref b ]);
  Alcotest.(check bool) "b survives" true (H.exists heap a = false);
  Alcotest.(check bool) "dangling get_field raises" true
    (try
       ignore (H.get_field heap a 0);
       false
     with _ -> true);
  (* out-of-range ids (never allocated) are not confused with live ones *)
  Alcotest.(check bool) "unallocated id" false (H.exists heap 9999);
  Alcotest.(check bool) "negative id" false (H.exists heap (-3))

let suite =
  [
    ("dense heap vs reference model (randomized)", `Quick, test_differential);
    ("dangling ids stay dead", `Quick, test_dangling_get_raises);
  ]
