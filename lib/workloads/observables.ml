(* Program-observable state of an interpreter: what the differential
   fuzzing oracle compares across configurations, and what the
   side-effect-freedom check compares around object inspection. *)

type obj_kind = Instance of int | Int_array | Ref_array

type obj = {
  obj_id : int;
  base : int;  (** simulated byte address; [-1] in [`Reachable] scope *)
  kind : obj_kind;
  slots : int array;
      (** fields or elements, raw as the heap stores them
          ([Vm.Heap.raw_slots]): an instance's [Vm.Value.slots], an int
          array's ints, a ref array's ids; decoded by [value] *)
}

type t = {
  scope : [ `All | `Reachable ];
  output : string;
  globals : Vm.Value.t array;
  objects : obj list;
  live_objects : int;  (** [-1] in [`Reachable] scope *)
  used_bytes : int;  (** [-1] in [`Reachable] scope *)
}

let kind_of heap id =
  match Vm.Heap.class_id_of heap id with
  | Some cid -> Instance cid
  | None -> if Vm.Heap.is_ref_array heap id then Ref_array else Int_array

let capture_object ~with_base heap id =
  {
    obj_id = id;
    base = (if with_base then Vm.Heap.base_of heap id else -1);
    kind = kind_of heap id;
    slots = Vm.Heap.raw_slots heap id;
  }

let length o =
  match o.kind with
  | Instance _ -> Vm.Value.length o.slots
  | Int_array | Ref_array -> Array.length o.slots

let value o i =
  match o.kind with
  | Instance _ -> Vm.Value.get o.slots i
  | Int_array -> Vm.Value.Int o.slots.(i)
  | Ref_array -> Vm.Value.of_id o.slots.(i)

(* The object id of every reference [o] holds, in slot order. *)
let iter_refs o f =
  match o.kind with
  | Instance _ -> Vm.Value.iter_refs o.slots (length o) f
  | Ref_array -> Array.iter (fun id -> if id >= 0 then f id) o.slots
  | Int_array -> ()

let globals_of interp =
  let n = Array.length (Vm.Interp.program interp).Vm.Classfile.statics in
  Array.init n (fun i -> Vm.Interp.global interp i)

(* Every live object, in address order, addresses included: bit-identical
   heap state. Used to prove object inspection has no side effects. *)
let capture_all interp =
  let heap = Vm.Interp.heap interp in
  let objects = ref [] in
  Vm.Heap.iter_ids_in_address_order heap (fun id ->
      objects := capture_object ~with_base:true heap id :: !objects);
  {
    scope = `All;
    output = Vm.Interp.output interp;
    globals = globals_of interp;
    objects = List.rev !objects;
    live_objects = Vm.Heap.live_objects heap;
    used_bytes = Vm.Heap.used_bytes heap;
  }

(* Objects reachable from the statics, in deterministic traversal order,
   without addresses. This is the cross-configuration observable: object
   ids and contents must agree between BASELINE / INTER / INTER+INTRA runs
   (allocation order is identical — prefetch code never allocates), but
   unreachable garbage may be retained longer when a prefetch register
   holds the last reference (exactly as a hardware register would), which
   can shift post-GC addresses of reachable objects. *)
let capture_reachable interp =
  let heap = Vm.Interp.heap interp in
  let globals = globals_of interp in
  let seen = Hashtbl.create 64 in
  let objects = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let o = capture_object ~with_base:false heap id in
      objects := o :: !objects;
      iter_refs o visit
    end
  in
  Array.iter
    (function
      | Vm.Value.Ref id -> visit id | Vm.Value.Int _ | Vm.Value.Null -> ())
    globals;
  {
    scope = `Reachable;
    output = Vm.Interp.output interp;
    globals;
    objects = List.rev !objects;
    live_objects = -1;
    used_bytes = -1;
  }

let capture ?(scope = `Reachable) interp =
  match scope with
  | `All -> capture_all interp
  | `Reachable -> capture_reachable interp

let equal a b = a = b

let string_of_kind = function
  | Instance cid -> Printf.sprintf "instance(class %d)" cid
  | Int_array -> "int[]"
  | Ref_array -> "ref[]"

let describe_obj o =
  Printf.sprintf "#%d %s%s [%s]" o.obj_id (string_of_kind o.kind)
    (if o.base >= 0 then Printf.sprintf " @0x%x" o.base else "")
    (String.concat "; "
       (List.init (length o) (fun i -> Vm.Value.to_string (value o i))))

(* First difference between two captures, as a human-readable sentence;
   [None] when equal. *)
let diff a b =
  if a.scope <> b.scope then Some "captures have different scopes"
  else if a.output <> b.output then
    Some
      (Printf.sprintf "output differs:\n--- a ---\n%s--- b ---\n%s" a.output
         b.output)
  else if a.globals <> b.globals then begin
    let i = ref 0 in
    while
      !i < Array.length a.globals
      && (!i >= Array.length b.globals || a.globals.(!i) = b.globals.(!i))
    do
      incr i
    done;
    Some
      (Printf.sprintf "static slot %d differs: %s vs %s" !i
         (try Vm.Value.to_string a.globals.(!i) with _ -> "<missing>")
         (try Vm.Value.to_string b.globals.(!i) with _ -> "<missing>"))
  end
  else if a.live_objects <> b.live_objects then
    Some
      (Printf.sprintf "live object count differs: %d vs %d" a.live_objects
         b.live_objects)
  else if a.used_bytes <> b.used_bytes then
    Some
      (Printf.sprintf "heap used bytes differ: %d vs %d" a.used_bytes
         b.used_bytes)
  else if a.objects <> b.objects then begin
    let rec first_diff i xs ys =
      match (xs, ys) with
      | [], [] -> Printf.sprintf "object lists differ (position %d)" i
      | x :: _, [] -> Printf.sprintf "extra object in a: %s" (describe_obj x)
      | [], y :: _ -> Printf.sprintf "extra object in b: %s" (describe_obj y)
      | x :: xs', y :: ys' ->
          if x = y then first_diff (i + 1) xs' ys'
          else
            Printf.sprintf "object %d differs:\n  a: %s\n  b: %s" i
              (describe_obj x) (describe_obj y)
    in
    Some (first_diff 0 a.objects b.objects)
  end
  else None
