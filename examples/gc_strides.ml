(* Why stride prefetching survives garbage collection.

   The paper (Section 4): "Live objects are packed by sliding compaction,
   which does not change their internal order on the heap. Thus, the
   garbage collector usually preserves constant strides among the live
   objects."

   This example allocates a list of equal-sized nodes interleaved with
   short-lived garbage, collects, and shows the node-to-node strides
   before and after: irregular before compaction (garbage in between),
   constant afterwards.

   Run with: dune exec examples/gc_strides.exe *)

module C = Vm.Classfile
module H = Vm.Heap
module V = Vm.Value

let () =
  let node_class =
    C.make_class ~class_id:0 ~class_name:"Node"
      ~field_specs:[ ("value", false); ("next", true) ]
  in
  let heap = H.create () in

  (* allocate 12 list nodes with random-sized garbage arrays in between *)
  let garbage_size i = (i * 7919 mod 13) + 1 in
  let nodes =
    Array.init 12 (fun i ->
        ignore (H.alloc_int_array heap (garbage_size i));
        let id = H.alloc_object heap node_class in
        H.set_field heap id 0 (V.Int i);
        id)
  in
  (* link them *)
  Array.iteri
    (fun i id ->
      if i + 1 < Array.length nodes then
        H.set_field heap id 1 (V.Ref nodes.(i + 1)))
    nodes;

  let strides () =
    Array.to_list nodes
    |> List.filter (H.exists heap)
    |> List.map (H.base_of heap)
    |> fun bases ->
    List.map2 (fun a b -> b - a)
      (List.filteri (fun i _ -> i < List.length bases - 1) bases)
      (List.tl bases)
  in

  Printf.printf "before GC: %d objects, %d bytes used\n"
    (H.live_objects heap) (H.used_bytes heap);
  Printf.printf "node-to-node strides: %s\n"
    (String.concat " " (List.map string_of_int (strides ())));

  (* collect with only the list head as root: garbage arrays die, the
     linked nodes survive via the next chain *)
  let result =
    Vm.Gc_compact.collect heap ~roots:(fun visit -> visit nodes.(0))
  in
  Printf.printf "\nGC: collected %d, kept %d (%d bytes)\n" result.collected
    result.live result.live_bytes;

  let after = strides () in
  Printf.printf "node-to-node strides after sliding compaction: %s\n"
    (String.concat " " (List.map string_of_int after));
  (match after with
  | s :: rest when List.for_all (( = ) s) rest ->
      Printf.printf
        "\n=> constant stride of %d bytes: a list walk is now prefetchable \
         with plain inter-iteration stride prefetching.\n"
        s
  | _ -> print_endline "\n=> strides did not become constant (unexpected)");

  (* and the values are intact *)
  let rec walk id acc =
    let acc = acc @ [ H.get_field heap id 0 ] in
    match H.get_field heap id 1 with
    | V.Ref next -> walk next acc
    | _ -> acc
  in
  Printf.printf "list contents preserved: %s\n"
    (String.concat " " (List.map V.to_string (walk nodes.(0) [])))
