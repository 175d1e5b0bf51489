(** Abstract syntax of the design-file language (Appendix A).

    Two procedure classes exist (section 4.2): {e functions} return the
    value of their last statement; {e macros} — whose names must begin
    with [m] so the parser can tell call sites apart — return their
    whole evaluation environment, from which callers select bindings
    with [subcell]. *)

type var =
  | Simple of string
  | Indexed of string * expr list
      (** one or two index expressions: [l.i], [arr.i.j],
          [l.(- i 1)] *)

and expr =
  | Int of int
  | Str of string
  | Bool of bool
  | Var of var
  | Call of string * expr list
      (** user function/macro call or builtin primitive *)
  | Cond of (expr * expr list) list
  | Do of do_loop
  | Assign of var * expr                     (** [assign] / [setq] *)
  | Prog of expr list
  | Print of expr
  | Read
  | Mk_instance of var * expr                (** binds the new node *)
  | Connect of expr * expr * expr            (** node, node, index *)
  | Subcell of expr * var                    (** environment, binding *)
  | Mk_cell of expr * expr                   (** name, root node *)
  | Declare_interface of declare_interface
  | At of int * expr
      (** source-location wrapper: the expression started on this
          1-based line.  The parser wraps every list-form expression;
          the evaluator and printers are transparent to it. *)

and do_loop = {
  loop_var : string;
  init : expr;
  next : expr;
  until : expr;  (** loop while this is false *)
  body : expr list;
}

and declare_interface = {
  di_cell1 : expr;      (** macrocell C *)
  di_cell2 : expr;      (** macrocell D *)
  di_new_index : expr;  (** index for the inherited interface Icd *)
  di_inst1 : expr;      (** instance of subcell A placed within C *)
  di_inst2 : expr;      (** instance of subcell B placed within D *)
  di_old_index : expr;  (** index of the existing interface Iab *)
}

type local_decl =
  | Scalar_local of string
  | Array_local of string   (** declared with a trailing dot: [l.] *)

type proc = {
  proc_name : string;
  formals : string list;
  locals : local_decl list;
  body : expr list;
  is_macro : bool;
  proc_line : int;  (** line of the [defun]/[macro] form (0 = unknown) *)
}

type toplevel =
  | Defproc of proc
  | Expr of expr

val var_name : var -> string

val strip : expr -> expr
(** Peel any top-level {!At} wrappers (shallow). *)

val strip_deep : expr -> expr
(** Remove every {!At} wrapper recursively — for structural matching
    in tests and analyses that don't care about locations. *)

val pp_expr : Format.formatter -> expr -> unit
