(* Render an AST back to parseable MiniJava source. *)

let ty = Ast.string_of_ty

(* Receivers of postfix operations ('.', '[]') must themselves be postfix
   expressions or atoms; anything compound gets wrapped. *)
let rec atom (e : Ast.expr) =
  match e.desc with
  | Ast.Int_lit n when n >= 0 -> string_of_int n
  | Ast.Int_lit _ | Ast.Binop _ | Ast.Unop_neg _ | Ast.Unop_not _ ->
      "(" ^ expr e ^ ")"
  | _ -> expr e

and expr (e : Ast.expr) =
  match e.desc with
  | Ast.Int_lit n ->
      if n >= 0 then string_of_int n else Printf.sprintf "(-%d)" (-n)
  | Ast.Null_lit -> "null"
  | Ast.This -> "this"
  | Ast.Var x -> x
  | Ast.Field (base, name) -> Printf.sprintf "%s.%s" (atom base) name
  | Ast.Static_field (cls, name) -> Printf.sprintf "%s.%s" cls name
  | Ast.Index (base, index) ->
      Printf.sprintf "%s[%s]" (atom base) (expr index)
  | Ast.Length base -> Printf.sprintf "%s.length" (atom base)
  | Ast.Call (recv, name, args) ->
      Printf.sprintf "%s.%s(%s)" (atom recv) name (args_str args)
  | Ast.Bare_call (name, args) ->
      Printf.sprintf "%s(%s)" name (args_str args)
  | Ast.Static_call (cls, name, args) ->
      Printf.sprintf "%s.%s(%s)" cls name (args_str args)
  | Ast.New_object (cls, args) ->
      Printf.sprintf "new %s(%s)" cls (args_str args)
  | Ast.New_int_array size -> Printf.sprintf "new int[%s]" (expr size)
  | Ast.New_class_array (cls, size) ->
      Printf.sprintf "new %s[%s]" cls (expr size)
  | Ast.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr a) (Ast.string_of_binop op) (expr b)
  | Ast.Unop_neg a -> Printf.sprintf "(-%s)" (atom a)
  | Ast.Unop_not a -> Printf.sprintf "(!%s)" (atom a)

and args_str args = String.concat ", " (List.map expr args)

let lvalue = function
  | Ast.Lvar x -> x
  | Ast.Lfield (base, name) -> Printf.sprintf "%s.%s" (atom base) name
  | Ast.Lstatic (cls, name) -> Printf.sprintf "%s.%s" cls name
  | Ast.Lindex (base, index) ->
      Printf.sprintf "%s[%s]" (atom base) (expr index)

let pad n = String.make (2 * n) ' '

let rec stmt ?(indent = 0) (st : Ast.stmt) =
  let p = pad indent in
  match st.sdesc with
  | Ast.Decl (t, name, init) ->
      Printf.sprintf "%s%s %s = %s;\n" p (ty t) name (expr init)
  | Ast.Assign (lv, value) ->
      Printf.sprintf "%s%s = %s;\n" p (lvalue lv) (expr value)
  | Ast.If (cond, then_b, []) ->
      Printf.sprintf "%sif (%s) {\n%s%s}\n" p (expr cond)
        (body (indent + 1) then_b)
        p
  | Ast.If (cond, then_b, else_b) ->
      Printf.sprintf "%sif (%s) {\n%s%s} else {\n%s%s}\n" p (expr cond)
        (body (indent + 1) then_b)
        p
        (body (indent + 1) else_b)
        p
  | Ast.While (cond, b) ->
      Printf.sprintf "%swhile (%s) {\n%s%s}\n" p (expr cond)
        (body (indent + 1) b)
        p
  | Ast.For (init, cond, update, b) ->
      Printf.sprintf "%sfor (%s; %s; %s) {\n%s%s}\n" p
        (match init with Some s -> header_stmt s | None -> "")
        (expr cond)
        (match update with Some s -> header_stmt s | None -> "")
        (body (indent + 1) b)
        p
  | Ast.Return None -> Printf.sprintf "%sreturn;\n" p
  | Ast.Return (Some e) -> Printf.sprintf "%sreturn %s;\n" p (expr e)
  | Ast.Expr_stmt e -> Printf.sprintf "%s%s;\n" p (expr e)
  | Ast.Print e -> Printf.sprintf "%sprint(%s);\n" p (expr e)
  | Ast.Break -> Printf.sprintf "%sbreak;\n" p
  | Ast.Continue -> Printf.sprintf "%scontinue;\n" p
  | Ast.Block b -> Printf.sprintf "%s{\n%s%s}\n" p (body (indent + 1) b) p

(* A 'for' header clause: a simple statement without the trailing ';'. *)
and header_stmt (st : Ast.stmt) =
  match st.sdesc with
  | Ast.Decl (t, name, init) ->
      Printf.sprintf "%s %s = %s" (ty t) name (expr init)
  | Ast.Assign (lv, value) -> Printf.sprintf "%s = %s" (lvalue lv) (expr value)
  | Ast.Expr_stmt e -> expr e
  | _ -> invalid_arg "Pretty.header_stmt: not a simple statement"

and body indent stmts = String.concat "" (List.map (stmt ~indent) stmts)

let field_decl (f : Ast.field_decl) =
  Printf.sprintf "  %s%s %s;\n"
    (if f.field_static then "static " else "")
    (ty f.field_ty) f.field_name

let method_decl ~class_name (m : Ast.method_decl) =
  let header =
    if m.is_constructor then Printf.sprintf "  %s(%s)" class_name
    else
      Printf.sprintf "  %s%s %s(%s)"
        (if m.method_static then "static " else "")
        (match m.method_ret with Some t -> ty t | None -> "void")
        m.method_name
  in
  let params =
    String.concat ", "
      (List.map (fun (t, name) -> ty t ^ " " ^ name) m.method_params)
  in
  Printf.sprintf "%s {\n%s  }\n" (header params) (body 2 m.method_body)

let class_decl (c : Ast.class_decl) =
  Printf.sprintf "class %s {\n%s%s}\n" c.class_name
    (String.concat "" (List.map field_decl c.class_fields))
    (String.concat ""
       (List.map (method_decl ~class_name:c.class_name) c.class_methods))

let program classes = String.concat "\n" (List.map class_decl classes)
