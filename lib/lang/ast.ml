type var = Simple of string | Indexed of string * expr list

and expr =
  | Int of int
  | Str of string
  | Bool of bool
  | Var of var
  | Call of string * expr list
  | Cond of (expr * expr list) list
  | Do of do_loop
  | Assign of var * expr
  | Prog of expr list
  | Print of expr
  | Read
  | Mk_instance of var * expr
  | Connect of expr * expr * expr
  | Subcell of expr * var
  | Mk_cell of expr * expr
  | Declare_interface of declare_interface
  | At of int * expr

and do_loop = {
  loop_var : string;
  init : expr;
  next : expr;
  until : expr;
  body : expr list;
}

and declare_interface = {
  di_cell1 : expr;
  di_cell2 : expr;
  di_new_index : expr;
  di_inst1 : expr;
  di_inst2 : expr;
  di_old_index : expr;
}

type local_decl = Scalar_local of string | Array_local of string

type proc = {
  proc_name : string;
  formals : string list;
  locals : local_decl list;
  body : expr list;
  is_macro : bool;
  proc_line : int;
}

type toplevel = Defproc of proc | Expr of expr

let var_name = function Simple n -> n | Indexed (n, _) -> n

let rec strip = function At (_, e) -> strip e | e -> e

let rec strip_deep e =
  match e with
  | At (_, inner) -> strip_deep inner
  | Int _ | Str _ | Bool _ | Read -> e
  | Var v -> Var (strip_var v)
  | Call (f, args) -> Call (f, List.map strip_deep args)
  | Cond clauses ->
    Cond
      (List.map
         (fun (t, body) -> (strip_deep t, List.map strip_deep body))
         clauses)
  | Do d ->
    Do
      { d with
        init = strip_deep d.init;
        next = strip_deep d.next;
        until = strip_deep d.until;
        body = List.map strip_deep d.body }
  | Assign (v, rhs) -> Assign (strip_var v, strip_deep rhs)
  | Prog body -> Prog (List.map strip_deep body)
  | Print e -> Print (strip_deep e)
  | Mk_instance (v, e) -> Mk_instance (strip_var v, strip_deep e)
  | Connect (a, b, i) -> Connect (strip_deep a, strip_deep b, strip_deep i)
  | Subcell (e, v) -> Subcell (strip_deep e, strip_var v)
  | Mk_cell (n, r) -> Mk_cell (strip_deep n, strip_deep r)
  | Declare_interface d ->
    Declare_interface
      { di_cell1 = strip_deep d.di_cell1;
        di_cell2 = strip_deep d.di_cell2;
        di_new_index = strip_deep d.di_new_index;
        di_inst1 = strip_deep d.di_inst1;
        di_inst2 = strip_deep d.di_inst2;
        di_old_index = strip_deep d.di_old_index }

and strip_var = function
  | Simple n -> Simple n
  | Indexed (n, idx) -> Indexed (n, List.map strip_deep idx)

let rec pp_var ppf = function
  | Simple n -> Format.pp_print_string ppf n
  | Indexed (n, idx) ->
    Format.pp_print_string ppf n;
    List.iter (fun e -> Format.fprintf ppf ".%a" pp_expr e) idx

and pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b
  | Var v -> pp_var ppf v
  | Call (f, args) ->
    Format.fprintf ppf "(@[<hov>%s%a@])" f
      (fun ppf -> List.iter (Format.fprintf ppf "@ %a" pp_expr))
      args
  | Cond clauses ->
    Format.fprintf ppf "(cond";
    List.iter
      (fun (test, body) ->
        Format.fprintf ppf "@ (%a" pp_expr test;
        List.iter (Format.fprintf ppf "@ %a" pp_expr) body;
        Format.fprintf ppf ")")
      clauses;
    Format.fprintf ppf ")"
  | Do d ->
    Format.fprintf ppf "(do (%s %a %a %a) ...)" d.loop_var pp_expr d.init
      pp_expr d.next pp_expr d.until
  | Assign (v, e) -> Format.fprintf ppf "(assign %a %a)" pp_var v pp_expr e
  | Prog body ->
    Format.fprintf ppf "(prog";
    List.iter (Format.fprintf ppf "@ %a" pp_expr) body;
    Format.fprintf ppf ")"
  | Print e -> Format.fprintf ppf "(print %a)" pp_expr e
  | Read -> Format.pp_print_string ppf "(read)"
  | Mk_instance (v, e) ->
    Format.fprintf ppf "(mk_instance %a %a)" pp_var v pp_expr e
  | Connect (a, b, i) ->
    Format.fprintf ppf "(connect %a %a %a)" pp_expr a pp_expr b pp_expr i
  | Subcell (e, v) -> Format.fprintf ppf "(subcell %a %a)" pp_expr e pp_var v
  | Mk_cell (n, r) -> Format.fprintf ppf "(mk_cell %a %a)" pp_expr n pp_expr r
  | Declare_interface d ->
    Format.fprintf ppf "(declare_interface %a %a %a %a %a %a)" pp_expr
      d.di_cell1 pp_expr d.di_cell2 pp_expr d.di_new_index pp_expr d.di_inst1
      pp_expr d.di_inst2 pp_expr d.di_old_index
  | At (_, e) -> pp_expr ppf e
