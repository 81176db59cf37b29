(** Classes, methods and whole programs.

    The object model is deliberately 2003-IA-32-flavoured: 4-byte slots, an
    8-byte object header, arrays with their length word at offset 8 and
    elements from offset 12. Field offsets are assigned by the frontend and
    recorded here so that the prefetching pass can reason about concrete
    byte strides. *)

let header_bytes = 8
let slot_bytes = 4
let array_length_offset = 8
let array_elems_offset = 12

(* The simulated virtual address where static (global) slots live; well
   below [heap_base] so heap and statics never collide. *)
let statics_base = 0x1000

(* Base simulated address of the heap. *)
let heap_base = 0x100000

type field = {
  field_name : string;
  field_index : int;  (** slot index within the object *)
  field_offset : int;  (** byte offset from the object base *)
  field_is_ref : bool;
}

type class_info = {
  class_id : int;
  class_name : string;
  fields : field array;
  instance_bytes : int;  (** header + field slots *)
}

type method_info = {
  method_id : int;
  method_name : string;  (** qualified, e.g. ["Node2.findInMemory"] *)
  arity : int;  (** parameter count, receiver included *)
  returns_value : bool;
  mutable max_locals : int;  (** may grow when callees are inlined *)
  original_max_locals : int;
  original_code : Bytecode.instr array;
  mutable code : Bytecode.instr array;  (** current body; swapped on JIT *)
  mutable n_sites : int;  (** load sites in [code] *)
  mutable n_pref_regs : int;  (** spec_load registers in [code] *)
  mutable compiled : bool;
  mutable invocations : int;
  mutable backedges : int;
  mutable compile_seconds : float;  (** host time spent compiling it *)
}

type static_info = { static_name : string; static_index : int }

type program = {
  classes : class_info array;
  methods : method_info array;
  statics : static_info array;
  entry : int;  (** method id of the program entry point *)
}

let make_class ~class_id ~class_name ~field_specs =
  let fields =
    Array.of_list
      (List.mapi
         (fun i (field_name, field_is_ref) ->
           {
             field_name;
             field_index = i;
             field_offset = header_bytes + (i * slot_bytes);
             field_is_ref;
           })
         field_specs)
  in
  {
    class_id;
    class_name;
    fields;
    instance_bytes = header_bytes + (Array.length fields * slot_bytes);
  }

let count_sites code =
  Array.fold_left
    (fun acc instr ->
      List.fold_left (fun acc site -> max acc (site + 1)) acc
        (Bytecode.all_sites instr))
    0 code

let make_method ~method_id ~method_name ~arity ~returns_value ~max_locals ~code
    =
  {
    method_id;
    method_name;
    arity;
    returns_value;
    max_locals;
    original_max_locals = max_locals;
    original_code = Array.copy code;
    code;
    n_sites = count_sites code;
    n_pref_regs = 0;
    compiled = false;
    invocations = 0;
    backedges = 0;
    compile_seconds = 0.0;
  }

let class_of_id program id = program.classes.(id)
let method_of_id program id = program.methods.(id)

let find_method program qualified_name =
  let matches (m : method_info) = m.method_name = qualified_name in
  match Array.to_list program.methods |> List.filter matches with
  | [ m ] -> Some m
  | [] -> None
  | m :: _ -> Some m

let find_class program name =
  Array.to_list program.classes
  |> List.find_opt (fun c -> c.class_name = name)

(* Restore every method to its unoptimized body (fresh run of the VM). *)
let reset_program program =
  Array.iter
    (fun m ->
      m.code <- Array.copy m.original_code;
      m.max_locals <- m.original_max_locals;
      m.n_sites <- count_sites m.original_code;
      m.n_pref_regs <- 0;
      m.compiled <- false;
      m.invocations <- 0;
      m.backedges <- 0;
      m.compile_seconds <- 0.0)
    program.methods

let pp_method ppf (m : method_info) =
  Format.fprintf ppf "@[<v 2>%s (arity %d, locals %d, sites %d)%s:@,%a@]"
    m.method_name m.arity m.max_locals m.n_sites
    (if m.compiled then " [compiled]" else "")
    Bytecode.pp_code m.code
