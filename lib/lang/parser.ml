exception Syntax_error of string

(* Prefix syntax errors with the source line when one is known (line 0
   means unknown). *)
let failat line fmt =
  Format.kasprintf
    (fun s ->
      raise
        (Syntax_error (if line > 0 then Printf.sprintf "line %d: %s" line s else s)))
    fmt

let is_int s = match int_of_string_opt s with Some _ -> true | None -> false

(* An atom names an indexed variable when it contains a dot and is not
   an integer (integers never contain dots in this language, but keep
   the guard for safety). *)
let has_dot s = String.contains s '.'

(* Split "a.i.j" -> ("a", ["i"; "j"], trailing) where trailing is true
   for "a." / "a.i." forms that take further indices from the token
   stream. *)
let split_dotted line s =
  match String.split_on_char '.' s with
  | [] | [ _ ] -> failat line "split_dotted: no dot in %s" s
  | base :: rest ->
    if base = "" then failat line "variable name missing before dot in %S" s;
    let trailing = List.exists (( = ) "") rest in
    if trailing && List.filter (( = ) "") rest <> [ "" ] then
      failat line "malformed indexed variable %S" s;
    let segs = List.filter (( <> ) "") rest in
    (base, segs, trailing)

let seg_expr s =
  match int_of_string_opt s with
  | Some n -> Ast.Int n
  | None -> Ast.Var (Ast.Simple s)

(* List-form expressions carry their opening line as an [Ast.At]
   wrapper; atoms stay bare (their enclosing form locates them). *)
let at line e = if line > 0 then Ast.At (line, e) else e

(* ------------------------------------------------------------------ *)
(* Expression conversion with dotted-variable reassembly.              *)

let rec exprs_of_located (sexps : Sexp.located list) : Ast.expr list =
  match sexps with
  | { Sexp.sx = Sexp.Latom a; line } :: rest when has_dot a && not (is_int a)
    ->
    let base, segs, trailing = split_dotted line a in
    let indices = List.map seg_expr segs in
    let indices, rest =
      if trailing then
        match rest with
        | idx :: rest' -> (indices @ [ expr_of_located idx ], rest')
        | [] -> failat line "indexed variable %s. missing its index" base
      else (indices, rest)
    in
    (* a following atom that starts with '.' continues the index list:
       m.(i).(j) lexes as "m." (i) "." (j). *)
    let rec continue indices rest =
      match rest with
      | { Sexp.sx = Sexp.Latom a'; line = line' } :: rest'
        when String.length a' > 0 && a'.[0] = '.' ->
        let segs' = List.filter (( <> ) "") (String.split_on_char '.' a') in
        let indices = indices @ List.map seg_expr segs' in
        if a'.[String.length a' - 1] = '.' then
          match rest' with
          | idx :: rest'' ->
            continue (indices @ [ expr_of_located idx ]) rest''
          | [] -> failat line' "indexed variable missing its index"
        else continue indices rest'
      | _ -> (indices, rest)
    in
    let indices, rest = continue indices rest in
    if List.length indices > 2 then
      failat line "more than two indices on %s" base;
    Ast.Var (Ast.Indexed (base, indices)) :: exprs_of_located rest
  | s :: rest -> expr_of_located s :: exprs_of_located rest
  | [] -> []

and expr_of_located (s : Sexp.located) : Ast.expr =
  let line = s.Sexp.line in
  match s.Sexp.sx with
  | Sexp.Lstr str -> Ast.Str str
  | Sexp.Latom a -> (
    match int_of_string_opt a with
    | Some n -> Ast.Int n
    | None -> (
      match a with
      | "true" -> Ast.Bool true
      | "false" -> Ast.Bool false
      | _ ->
        if has_dot a then
          match exprs_of_located [ s ] with
          | [ e ] -> e
          | _ -> failat line "bad dotted atom %S" a
        else Ast.Var (Ast.Simple a)))
  | Sexp.Llist [] -> failat line "empty list is not an expression"
  | Sexp.Llist ({ Sexp.sx = Sexp.Latom head; _ } :: args) ->
    at line (special_or_call line head args)
  | Sexp.Llist _ ->
    failat line "expression list must start with an operator name"

and var_of_expr line = function
  | Ast.Var v -> v
  | e -> failat line "expected a variable, got %a" Ast.pp_expr e

and special_or_call line head args =
  match head with
  | "cond" ->
    let clause (c : Sexp.located) =
      match c.Sexp.sx with
      | Sexp.Llist (test :: body) ->
        (expr_of_located test, exprs_of_located body)
      | _ -> failat c.Sexp.line "cond clause must be a (test body...) list"
    in
    Ast.Cond (List.map clause args)
  | "do" -> (
    match args with
    | { Sexp.sx = Sexp.Llist header; _ } :: body -> (
      match exprs_of_located header with
      | [ Ast.Var (Ast.Simple loop_var); init; next; until ] ->
        Ast.Do { loop_var; init; next; until; body = exprs_of_located body }
      | _ -> failat line "do header must be (var init next exit)")
    | _ -> failat line "do requires a (var init next exit) header")
  | "assign" | "setq" -> (
    match exprs_of_located args with
    | [ target; value ] -> Ast.Assign (var_of_expr line target, value)
    | _ -> failat line "%s takes a variable and a value" head)
  | "prog" -> Ast.Prog (exprs_of_located args)
  | "print" -> (
    match exprs_of_located args with
    | [ e ] -> Ast.Print e
    | _ -> failat line "print takes one argument")
  | "read" ->
    if args <> [] then failat line "read takes no arguments";
    Ast.Read
  | "mk_instance" | "mkinstance" -> (
    match exprs_of_located args with
    | [ target; cell ] -> Ast.Mk_instance (var_of_expr line target, cell)
    | _ -> failat line "mk_instance takes a variable and a cell")
  | "connect" -> (
    match exprs_of_located args with
    | [ a; b; index ] -> Ast.Connect (a, b, index)
    | _ -> failat line "connect takes two nodes and an interface number")
  | "subcell" -> (
    match exprs_of_located args with
    | [ env; binding ] -> Ast.Subcell (env, var_of_expr line binding)
    | _ -> failat line "subcell takes an environment and a variable")
  | "mk_cell" | "mkcell" -> (
    match exprs_of_located args with
    | [ name; root ] -> Ast.Mk_cell (name, root)
    | _ -> failat line "mk_cell takes a name and a root node")
  | "declare_interface" | "declareinterface" -> (
    match exprs_of_located args with
    | [ c1; c2; newi; i1; i2; oldi ] ->
      Ast.Declare_interface
        { di_cell1 = c1; di_cell2 = c2; di_new_index = newi; di_inst1 = i1;
          di_inst2 = i2; di_old_index = oldi }
    | _ -> failat line "declare_interface takes six arguments")
  | "defun" | "macro" -> failat line "%s only allowed at top level" head
  | _ -> Ast.Call (head, exprs_of_located args)

(* ------------------------------------------------------------------ *)
(* Top-level forms                                                     *)

let locals_of_located sexps =
  List.map
    (fun (s : Sexp.located) ->
      match s.Sexp.sx with
      | Sexp.Latom a ->
        if String.length a > 1 && a.[String.length a - 1] = '.' then
          Ast.Array_local (String.sub a 0 (String.length a - 1))
        else Ast.Scalar_local a
      | _ -> failat s.Sexp.line "bad local declaration %a" Sexp.pp (Sexp.strip s))
    sexps

let formals_of_located (s : Sexp.located) =
  match s.Sexp.sx with
  | Sexp.Llist items ->
    List.map
      (fun (it : Sexp.located) ->
        match it.Sexp.sx with
        | Sexp.Latom a -> a
        | _ ->
          failat it.Sexp.line "bad formal parameter %a" Sexp.pp
            (Sexp.strip it))
      items
  | _ ->
    failat s.Sexp.line "formals must be a list, got %a" Sexp.pp (Sexp.strip s)

let proc_of_located ~is_macro ~line = function
  | { Sexp.sx = Sexp.Latom name; _ } :: formals :: rest ->
    if is_macro && not (String.length name > 0 && name.[0] = 'm') then
      failat line "macro names must begin with 'm': %s" name;
    if (not is_macro) && String.length name > 0 && name.[0] = 'm' then
      failat line "function names must not begin with 'm': %s" name;
    let formals = formals_of_located formals in
    let locals, body =
      match rest with
      | { Sexp.sx =
            Sexp.Llist ({ Sexp.sx = Sexp.Latom ("locals" | "local"); _ } :: decls);
          _ }
        :: body ->
        (locals_of_located decls, body)
      | body -> ([], body)
    in
    { Ast.proc_name = name; formals; locals;
      body = exprs_of_located body; is_macro; proc_line = line }
  | _ -> failat line "malformed procedure definition"

let toplevel_of_located (s : Sexp.located) =
  match s.Sexp.sx with
  | Sexp.Llist ({ Sexp.sx = Sexp.Latom "defun"; _ } :: rest) ->
    Ast.Defproc (proc_of_located ~is_macro:false ~line:s.Sexp.line rest)
  | Sexp.Llist ({ Sexp.sx = Sexp.Latom "macro"; _ } :: rest) ->
    Ast.Defproc (proc_of_located ~is_macro:true ~line:s.Sexp.line rest)
  | _ -> Ast.Expr (expr_of_located s)

let parse_program src =
  List.map toplevel_of_located (Sexp.parse_string_located src)
