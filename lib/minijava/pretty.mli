(** AST pretty-printer: render a {!Ast.program} back to concrete MiniJava
    source accepted by {!Lexer}/{!Parser}.

    The fuzzing harness generates programs as ASTs, renders them with this
    module, and feeds the text through the complete front end — so every
    reproducer it prints is a self-contained [.mj] file, and rendering
    doubles as a parser round-trip test. Compound subexpressions are
    parenthesized conservatively; the result re-parses to a semantically
    identical program (unary minus of a literal comes back as
    [Unop_neg (Int_lit n)], which compiles identically). *)

val ty : Ast.ty -> string
val expr : Ast.expr -> string

val stmt : ?indent:int -> Ast.stmt -> string
(** One statement, ["\n"]-terminated, nested blocks indented by two
    spaces per level starting at [indent]. *)

val program : Ast.program -> string
(** The whole compilation unit, classes in order. *)
