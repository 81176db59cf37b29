(** Semantic analysis: symbol tables and type checking.

    MiniJava has no inheritance; method dispatch is static on the declared
    class of the receiver. Booleans are ints. [null] is assignable to any
    reference type. The resolution helpers are shared with the bytecode
    generator so typing logic lives in one place. *)

exception Error of string * Ast.pos

(** Semantic types: source types plus the type of [null]. *)
type sty =
  | Sint
  | Sclass of string
  | Sint_array
  | Sclass_array of string
  | Snull
  | Svoid  (** result of a void call; never assignable *)

type field_info = {
  f_slot : int;
  f_offset : int;  (** byte offset from object base *)
  f_ty : Ast.ty;
  f_class : string;
}

type method_sig = {
  m_id : int;
  m_qualified : string;  (** ["C.m"] *)
  m_class : string;
  m_static : bool;
  m_params : (Ast.ty * string) list;
  m_ret : Ast.ty option;
  m_body : Ast.stmt list;
  m_is_constructor : bool;
}

type static_info = { s_index : int; s_ty : Ast.ty; s_qualified : string }

type class_info = {
  c_id : int;
  c_name : string;
  c_fields : (string * field_info) list;  (** declaration order *)
}

type env = {
  classes : (string, class_info) Hashtbl.t;
  methods : method_sig array;
  method_ids : (string, int) Hashtbl.t;  (** qualified name -> id *)
  statics : (string, static_info) Hashtbl.t;  (** qualified name -> info *)
  n_statics : int;
  entry : int;  (** method id of [main] *)
}

val analyze : Ast.program -> env
(** Build tables and type-check every method body. Raises {!Error}. *)

val sty_of_ty : Ast.ty -> sty
val string_of_sty : sty -> string

val is_ref_sty : sty -> bool

type var_resolution =
  | Rlocal  (** a local or parameter; the caller owns the slot map *)
  | Rfield of field_info  (** implicit [this] field *)
  | Rclass of string  (** a class name (static member access) *)

val resolve_var :
  env -> cls:string option -> is_local:(string -> bool) -> string ->
  Ast.pos -> var_resolution

type field_access =
  | Flength  (** [.length] on an array *)
  | Finstance of field_info
  | Fstatic of static_info

val resolve_field : env -> base:sty option -> class_of_base:string option ->
  string -> Ast.pos -> field_access
(** [base] is the receiver's type ([None] when the receiver is a class
    name, given by [class_of_base]). *)

val resolve_call :
  env -> receiver:[ `Instance of sty | `Static of string ] -> string ->
  Ast.pos -> method_sig

val field_is_ref : Ast.ty -> bool
