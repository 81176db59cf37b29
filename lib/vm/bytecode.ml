(** The instruction set of the mini-JVM.

    A stack machine close to Java bytecode, restricted to what the paper's
    algorithm and our workloads need, plus the three prefetch
    pseudo-instructions of Section 3.3 that the stride-prefetching pass
    splices into compiled method bodies.

    Every instruction that loads through a reference carries a [site] id,
    unique within its method. Sites are the nodes of the load dependence
    graph; at run time the frame records the last effective address each
    site computed, which is what anchors the generated prefetch code
    ([prefetch (A(Lx) + d*c)] needs [A(Lx)], the address the anchor load
    just used in the current iteration).

    Array accesses are fused: an [Aaload] performs the bounds-check load of
    the array length {e and} the element load, and carries one site for
    each, mirroring the paper's observation that length loads "are not
    explicit in the Java source program, but are generated for array bound
    checks" (Table 1 lists them as separate load instructions). *)

type cmp = Eq | Ne | Lt | Ge | Gt | Le

type instr =
  (* constants, locals, stack *)
  | Iconst of int
  | Aconst_null
  | Iload of int
  | Istore of int
  | Aload of int
  | Astore of int
  | Dup
  | Pop
  (* integer arithmetic/logic *)
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Irem
  | Ineg
  | Iand
  | Ior
  | Ixor
  | Ishl
  | Ishr
  (* control flow; targets are absolute instruction indices *)
  | Goto of int
  | If_icmp of cmp * int  (** pops b, a; branches when [a cmp b] *)
  | If of cmp * int  (** pops a; branches when [a cmp 0] *)
  | If_acmpeq of int
  | If_acmpne of int
  | Ifnull of int
  | Ifnonnull of int
  (* heap accesses (LDG-candidate loads carry sites) *)
  | Getfield of { site : int; offset : int; name : string; is_ref : bool }
  | Putfield of { offset : int; name : string }
  | Getstatic of { site : int; index : int; name : string; is_ref : bool }
  | Putstatic of { index : int; name : string }
  | Aaload of { len_site : int; elem_site : int }
  | Iaload of { len_site : int; elem_site : int }
  | Aastore of { len_site : int }
  | Iastore of { len_site : int }
  | Arraylength of { site : int }
  (* allocation *)
  | New of int  (** class id *)
  | Newarray of array_kind  (** pops length *)
  (* calls; static dispatch, arguments pushed left-to-right *)
  | Invoke of int  (** method id *)
  | Return
  | Ireturn
  | Areturn
  (* miscellaneous *)
  | Print  (** pops an int and appends it to the VM output (for tests) *)
  (* prefetch pseudo-instructions (Section 3.3) *)
  | Prefetch_inter of { site : int; distance : int }
      (** [prefetch (A(site) + distance)]; hardware prefetch instruction *)
  | Spec_load of { site : int; distance : int; reg : int }
      (** [reg := spec_load (A(site) + distance)]; guarded, never faults *)
  | Prefetch_indirect of { reg : int; offset : int; guarded : bool }
      (** [prefetch ( *reg + offset)]; guarded form primes the DTLB *)
  | Prefetch_dynamic of { site : int; times : int }
      (** [prefetch (A(site) + (A(site) - A_prev(site)) * times)]: the
          stride is recomputed at run time from the site's last two
          addresses, which handles Wu's "phased multiple-stride" loads
          (an extension beyond the paper's single-stride focus) *)

and array_kind = Int_array | Ref_array

let site_of = function
  | Getfield { site; _ } | Getstatic { site; _ } | Arraylength { site; _ } ->
      Some site
  | Aaload { elem_site; _ } | Iaload { elem_site; _ } -> Some elem_site
  | Iconst _ | Aconst_null | Iload _ | Istore _ | Aload _ | Astore _ | Dup
  | Pop | Iadd | Isub | Imul | Idiv | Irem | Ineg | Iand | Ior | Ixor | Ishl
  | Ishr | Goto _ | If_icmp _ | If _ | If_acmpeq _ | If_acmpne _ | Ifnull _
  | Ifnonnull _ | Putfield _ | Putstatic _ | Aastore _ | Iastore _ | New _
  | Newarray _ | Invoke _ | Return | Ireturn | Areturn | Print
  | Prefetch_inter _ | Spec_load _ | Prefetch_indirect _
  | Prefetch_dynamic _ ->
      None

(* Sites of every load the instruction performs, bounds-check length loads
   included. *)
let all_sites = function
  | Getfield { site; _ } | Getstatic { site; _ } | Arraylength { site; _ } ->
      [ site ]
  | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
      [ len_site; elem_site ]
  | Aastore { len_site } | Iastore { len_site } -> [ len_site ]
  | _ -> []

let is_branch = function
  | Goto _ | If_icmp _ | If _ | If_acmpeq _ | If_acmpne _ | Ifnull _
  | Ifnonnull _ | Return | Ireturn | Areturn ->
      true
  | _ -> false

let branch_target = function
  | Goto t
  | If_icmp (_, t)
  | If (_, t)
  | If_acmpeq t
  | If_acmpne t
  | Ifnull t
  | Ifnonnull t ->
      Some t
  | _ -> None

let is_return = function Return | Ireturn | Areturn -> true | _ -> false

(* Unconditional control transfer: execution never falls through. *)
let is_terminator = function
  | Goto _ | Return | Ireturn | Areturn -> true
  | _ -> false

(* The meaning of the binary integer instructions, shared by both
   execution engines, object inspection and the JIT's constant folders.
   A caller passes the instruction as a constant, so the match folds to
   the operator. [Idiv] and [Irem] raise [Division_by_zero] on a zero
   divisor: every caller checks it first and gives it its own meaning. *)
let[@inline] int_op (op : instr) a b =
  match op with
  | Iadd -> a + b
  | Isub -> a - b
  | Imul -> a * b
  | Idiv -> a / b
  | Irem -> a mod b
  | Iand -> a land b
  | Ior -> a lor b
  | Ixor -> a lxor b
  | Ishl -> a lsl (b land 63)
  | Ishr -> a asr (b land 63)
  | _ -> invalid_arg "Bytecode.int_op: not a binary integer instruction"

(* [a c b]: the test of [If_icmp (c, _)], and of [If (c, _)] with [b = 0]. *)
let[@inline] compare (c : cmp) (a : int) b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b
  | Le -> a <= b

let string_of_cmp = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"

let to_string = function
  | Iconst n -> Printf.sprintf "iconst %d" n
  | Aconst_null -> "aconst_null"
  | Iload n -> Printf.sprintf "iload %d" n
  | Istore n -> Printf.sprintf "istore %d" n
  | Aload n -> Printf.sprintf "aload %d" n
  | Astore n -> Printf.sprintf "astore %d" n
  | Dup -> "dup"
  | Pop -> "pop"
  | Iadd -> "iadd"
  | Isub -> "isub"
  | Imul -> "imul"
  | Idiv -> "idiv"
  | Irem -> "irem"
  | Ineg -> "ineg"
  | Iand -> "iand"
  | Ior -> "ior"
  | Ixor -> "ixor"
  | Ishl -> "ishl"
  | Ishr -> "ishr"
  | Goto t -> Printf.sprintf "goto @%d" t
  | If_icmp (c, t) -> Printf.sprintf "if_icmp%s @%d" (string_of_cmp c) t
  | If (c, t) -> Printf.sprintf "if%s @%d" (string_of_cmp c) t
  | If_acmpeq t -> Printf.sprintf "if_acmpeq @%d" t
  | If_acmpne t -> Printf.sprintf "if_acmpne @%d" t
  | Ifnull t -> Printf.sprintf "ifnull @%d" t
  | Ifnonnull t -> Printf.sprintf "ifnonnull @%d" t
  | Getfield { site; offset; name; is_ref = _ } ->
      Printf.sprintf "getfield %s (+%d) [L%d]" name offset site
  | Putfield { offset; name } -> Printf.sprintf "putfield %s (+%d)" name offset
  | Getstatic { site; index; name; is_ref = _ } ->
      Printf.sprintf "getstatic %s (#%d) [L%d]" name index site
  | Putstatic { index; name } -> Printf.sprintf "putstatic %s (#%d)" name index
  | Aaload { len_site; elem_site } ->
      Printf.sprintf "aaload [len L%d, elem L%d]" len_site elem_site
  | Iaload { len_site; elem_site } ->
      Printf.sprintf "iaload [len L%d, elem L%d]" len_site elem_site
  | Aastore { len_site } -> Printf.sprintf "aastore [len L%d]" len_site
  | Iastore { len_site } -> Printf.sprintf "iastore [len L%d]" len_site
  | Arraylength { site } -> Printf.sprintf "arraylength [L%d]" site
  | New class_id -> Printf.sprintf "new class#%d" class_id
  | Newarray Int_array -> "newarray int"
  | Newarray Ref_array -> "newarray ref"
  | Invoke m -> Printf.sprintf "invoke method#%d" m
  | Return -> "return"
  | Ireturn -> "ireturn"
  | Areturn -> "areturn"
  | Print -> "print"
  | Prefetch_inter { site; distance } ->
      Printf.sprintf "prefetch (A(L%d) %+d)" site distance
  | Spec_load { site; distance; reg } ->
      Printf.sprintf "p%d := spec_load (A(L%d) %+d)" reg site distance
  | Prefetch_indirect { reg; offset; guarded } ->
      Printf.sprintf "%s (p%d %+d)"
        (if guarded then "prefetch_guarded" else "prefetch")
        reg offset
  | Prefetch_dynamic { site; times } ->
      Printf.sprintf "prefetch (A(L%d) + delta(L%d)*%d)" site site times

let pp ppf instr = Format.pp_print_string ppf (to_string instr)

let pp_code ppf code =
  Array.iteri
    (fun i instr -> Format.fprintf ppf "@[%4d: %s@]@," i (to_string instr))
    code
