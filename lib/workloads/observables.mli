(** Program-observable state snapshots.

    The paper's safety claim (Sections 3.2, 3.4) is that object inspection
    and the injected prefetch code are free of visible side effects: the
    three evaluated configurations may differ only in cycles. This module
    captures everything a MiniJava program can observe — its printed
    output, the static slots, and the object graph — so the differential
    fuzzing oracle ({!Fuzz.Oracle}) and the inspection side-effect
    regression tests can compare runs structurally. *)

type obj_kind = Instance of int  (** class id *) | Int_array | Ref_array

type obj = {
  obj_id : int;  (** stable allocation-ordered id *)
  base : int;  (** simulated byte address; [-1] in [`Reachable] scope *)
  kind : obj_kind;
  slots : int array;
      (** fields or elements in slot order, copied raw as the heap stores
          them ({!Vm.Heap.raw_slots}); {!diff} decodes them to values *)
}

type t = {
  scope : [ `All | `Reachable ];
  output : string;
  globals : Vm.Value.t array;
  objects : obj list;
  live_objects : int;  (** [-1] in [`Reachable] scope *)
  used_bytes : int;  (** [-1] in [`Reachable] scope *)
}

val capture : ?scope:[ `All | `Reachable ] -> Vm.Interp.t -> t
(** [`All] (for the inspection side-effect check): every live object in
    address order, simulated addresses included — bit-identical heap
    state. [`Reachable] (the default; for cross-configuration comparison):
    the object graph reachable from the statics in deterministic traversal
    order, addresses excluded — prefetch registers may legitimately extend
    the lifetime of garbage, shifting post-GC addresses without the
    program being able to tell. *)

val equal : t -> t -> bool

val diff : t -> t -> string option
(** Human-readable description of the first difference; [None] when
    equal. *)
