(** Second parsing stage: s-expressions to design-file AST.

    Implements the grammar of Appendix A, including the reassembly of
    indexed variables from dotted atoms ([c.i], [l.1], [arr.i.j]) and
    the split forms where a trailing-dot atom takes the following
    expression as its index ([l.(- i 1)], [l. (- i 1)]).

    Every list-form expression is wrapped in {!Ast.At} carrying its
    1-based source line, and {!Syntax_error} messages are prefixed
    with ["line N: "] when the offending form's line is known. *)

exception Syntax_error of string

val parse_program : string -> Ast.toplevel list
(** [parse_program source] = {!Sexp.parse_string_located}, then each
    top-level form to the AST; expressions carry {!Ast.At}
    locations. *)
