(* Preallocated ring buffer. The backing array is allocated once at
   [create]; [add] is a store + two integer updates, so recording an
   event never allocates in the ring itself and never grows memory during
   a simulated run. When the buffer wraps, the oldest entries are
   overwritten and counted in [dropped]. *)

type 'a t = {
  buf : 'a array;
  capacity : int;
  mutable total : int;  (** entries ever added *)
}

let create ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { buf = Array.make capacity dummy; capacity; total = 0 }

let total t = t.total
let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let add t x =
  t.buf.(t.total mod t.capacity) <- x;
  t.total <- t.total + 1

(* Oldest-first snapshot of the retained window. *)
let to_list t =
  let len = length t in
  List.init len (fun i -> t.buf.((t.total - len + i) mod t.capacity))

let iter t f = List.iter f (to_list t)
