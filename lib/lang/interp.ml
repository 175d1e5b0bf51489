open Rsg_layout
open Rsg_core

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type state = {
  global : Value.env;
  procs : (string, Ast.proc) Hashtbl.t;
  cells : Db.t;
  table : Interface_table.t;
  mutable created : Cell.t list;
  out : Format.formatter;
  read_fn : unit -> int;
  mutable depth : int;  (** current procedure call depth *)
  file : string option;
  mutable cur_line : int;
}

let max_call_depth = 10_000

let create ?cells ?table ?(out = Format.std_formatter)
    ?(read_fn = fun () -> error "read: no input source in batch mode") ?file
    () =
  { global = Env.create_global ();
    procs = Hashtbl.create 32;
    cells = (match cells with Some db -> db | None -> Db.create ());
    table = (match table with Some t -> t | None -> Interface_table.create ());
    created = [];
    out;
    read_fn;
    depth = 0;
    file;
    cur_line = 0 }

let of_sample ?out ?file (s : Sample.t) =
  create ~cells:s.Sample.db ~table:s.Sample.table ?out ?file ()

let load_params st (p : Param.t) =
  List.iter (fun (name, v) -> Env.define st.global name v) p.Param.bindings

let define_global st name v = Env.define st.global name v

let array2_of_matrix m =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun r rowv ->
      Array.iteri
        (fun c b ->
          Hashtbl.replace tbl
            (Value.Idx2 (r + 1, c + 1))
            (Value.Vbool b))
        rowv)
    m;
  Value.Varray tbl

(* ------------------------------------------------------------------ *)
(* Variable resolution (Table 4.1)                                    *)

(* Lookup [name] in the environment chain, then the cell table.
   A value that is itself a symbol re-enters the search (bounded, to
   catch parameter-file cycles like a=b, b=a). *)
let rec resolve_name st env name depth =
  if depth > 32 then error "symbol resolution too deep at %s" name;
  match Env.find env name with
  | Some (Value.Vsym s) -> resolve_name st env s (depth + 1)
  | Some v -> v
  | None -> (
    match Db.find st.cells name with
    | Some c -> Value.Vcell c
    | None -> error "unbound variable %s" name)

let resolve_value st env v =
  match v with Value.Vsym s -> resolve_name st env s 0 | _ -> v

(* Follow symbol indirections to a cell definition (Table 4.1). *)
let resolve_cell st env v =
  match resolve_value st env v with
  | Value.Vcell c -> c
  | other -> error "expected a cell, got %s" (Value.type_name other)

let expect_int what = function
  | Value.Vint n -> n
  | other -> error "%s: expected an integer, got %s" what (Value.type_name other)

let expect_node what = function
  | Value.Vnode n -> n
  | other -> error "%s: expected a node, got %s" what (Value.type_name other)

let expect_env what = function
  | Value.Venv e -> e
  | other ->
    error "%s: expected an environment, got %s" what (Value.type_name other)

let expect_bool what = function
  | Value.Vbool b -> b
  | Value.Vint n -> n <> 0
  | other -> error "%s: expected a boolean, got %s" what (Value.type_name other)

let expect_name what = function
  | Value.Vstr s | Value.Vsym s -> s
  | other -> error "%s: expected a name, got %s" what (Value.type_name other)

(* ------------------------------------------------------------------ *)
(* Builtin functions                                                  *)

let arith name f neutral args =
  match args with
  | [] -> error "%s needs arguments" name
  | [ x ] -> Value.Vint (f neutral (expect_int name x))
  | first :: rest ->
    Value.Vint
      (List.fold_left
         (fun acc v -> f acc (expect_int name v))
         (expect_int name first) rest)

let compare_builtin name op args =
  match args with
  | [ a; b ] -> Value.Vbool (op (expect_int name a) (expect_int name b))
  | _ -> error "%s takes two arguments" name

let builtin st name args =
  match name with
  | "+" -> Some (arith "+" ( + ) 0 args)
  | "-" -> (
    match args with
    | [ x ] -> Some (Value.Vint (-expect_int "-" x))
    | _ -> Some (arith "-" ( - ) 0 args))
  | "*" -> Some (arith "*" ( * ) 1 args)
  | "//" -> (
    match args with
    | [ a; b ] ->
      let d = expect_int "//" b in
      if d = 0 then error "division by zero";
      Some (Value.Vint (expect_int "//" a / d))
    | _ -> error "// takes two arguments")
  | "mod" -> (
    match args with
    | [ a; b ] ->
      let d = expect_int "mod" b in
      if d = 0 then error "mod by zero";
      Some (Value.Vint (expect_int "mod" a mod d))
    | _ -> error "mod takes two arguments")
  | ">" -> Some (compare_builtin ">" ( > ) args)
  | "<" -> Some (compare_builtin "<" ( < ) args)
  | ">=" -> Some (compare_builtin ">=" ( >= ) args)
  | "<=" -> Some (compare_builtin "<=" ( <= ) args)
  | "=" -> (
    match args with
    | [ a; b ] -> Some (Value.Vbool (Value.equal_value a b))
    | _ -> error "= takes two arguments")
  | "not" -> (
    match args with
    | [ a ] -> Some (Value.Vbool (not (expect_bool "not" a)))
    | _ -> error "not takes one argument")
  | "and" ->
    Some (Value.Vbool (List.for_all (expect_bool "and") args))
  | "or" ->
    Some (Value.Vbool (List.exists (expect_bool "or") args))
  | "min" -> Some (arith "min" min max_int args)
  | "max" -> Some (arith "max" max min_int args)
  | "abs" -> (
    match args with
    | [ a ] -> Some (Value.Vint (abs (expect_int "abs" a)))
    | _ -> error "abs takes one argument")
  | "read" -> Some (Value.Vint (st.read_fn ()))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The evaluator                                                      *)

let index_of_values what = function
  | [ Value.Vint i ] -> Value.Idx1 i
  | [ Value.Vint i; Value.Vint j ] -> Value.Idx2 (i, j)
  | vs ->
    error "%s: indices must be one or two integers (got %d)" what
      (List.length vs)

let rec eval st env (e : Ast.expr) : Value.t =
  match e with
  | Ast.At (line, inner) ->
    st.cur_line <- line;
    eval st env inner
  | Ast.Int n -> Value.Vint n
  | Ast.Str s -> Value.Vstr s
  | Ast.Bool b -> Value.Vbool b
  | Ast.Var v -> eval_var st env env v
  | Ast.Assign (v, rhs) ->
    let value = eval st env rhs in
    assign st env v value;
    value
  | Ast.Prog body -> eval_body st env body
  | Ast.Cond clauses -> eval_cond st env clauses
  | Ast.Do loop -> eval_do st env loop
  | Ast.Print e ->
    let v = eval st env e in
    Format.fprintf st.out "%a@." Value.pp v;
    v
  | Ast.Read -> Value.Vint (st.read_fn ())
  | Ast.Call (name, args) -> eval_call st env name args
  | Ast.Mk_instance (v, cell_expr) ->
    let cell = resolve_cell st env (eval st env cell_expr) in
    let node = Graph.mk_instance cell in
    assign st env v (Value.Vnode node);
    Value.Vnode node
  | Ast.Connect (a, b, idx) ->
    let na = expect_node "connect" (eval st env a) in
    let nb = expect_node "connect" (eval st env b) in
    let index = expect_int "connect" (eval st env idx) in
    Graph.connect na nb index;
    Value.Vnode na
  | Ast.Subcell (env_expr, v) ->
    let sub = expect_env "subcell" (eval st env env_expr) in
    (* indices evaluate in the caller's environment, the binding is
       looked up in the returned environment (section 4.2) *)
    eval_var st env sub v
  | Ast.Mk_cell (name_expr, root_expr) ->
    let name = expect_name "mk_cell" (eval st env name_expr) in
    let root = expect_node "mk_cell" (eval st env root_expr) in
    let cell =
      try Expand.mk_cell ~db:st.cells st.table name root with
      | Expand.Missing_interface _ | Expand.Inconsistent_cycle _ ->
        (* expansion is transactional, so the graph is untouched: a
           collect-mode re-run can enumerate every defect at once *)
        let r = Expand.run ~mode:`Collect st.table root in
        error "mk_cell %s: graph cannot expand@\n%a" name Expand.pp_report r
      | Expand.Already_placed c ->
        error "mk_cell %s: node of %s already expanded" name c
    in
    st.created <- cell :: st.created;
    Value.Vcell cell
  | Ast.Declare_interface d -> eval_declare st env d

and eval_var st env lookup_env (v : Ast.var) =
  match v with
  | Ast.Simple name -> resolve_name st lookup_env name 0
  | Ast.Indexed (name, idx_exprs) -> (
    let idx = index_of_values name (List.map (eval st env) idx_exprs) in
    match Env.find lookup_env name with
    | Some (Value.Varray a) -> (
      match Hashtbl.find_opt a idx with
      | Some v -> v
      | None -> error "array %s: unbound index" name)
    | Some other ->
      error "%s is %s, not an array" name (Value.type_name other)
    | None -> error "unbound array %s" name)

and assign st env (v : Ast.var) value =
  match v with
  | Ast.Simple name -> Env.set env name value
  | Ast.Indexed (name, idx_exprs) -> (
    let idx = index_of_values name (List.map (eval st env) idx_exprs) in
    match Env.find env name with
    | Some (Value.Varray a) -> Hashtbl.replace a idx value
    | Some other -> error "%s is %s, not an array" name (Value.type_name other)
    | None ->
      let a = Hashtbl.create 8 in
      Hashtbl.replace a idx value;
      Env.set env name (Value.Varray a))

and eval_body st env body =
  List.fold_left (fun _ e -> eval st env e) Value.Vunit body

and eval_cond st env clauses =
  match clauses with
  | [] -> Value.Vunit
  | (test, body) :: rest ->
    if expect_bool "cond" (eval st env test) then eval_body st env body
    else eval_cond st env rest

and eval_do st env loop =
  let i = ref (eval st env loop.Ast.init) in
  let result = ref Value.Vunit in
  let continue = ref true in
  while !continue do
    Env.define env loop.Ast.loop_var !i;
    if expect_bool "do exit" (eval st env loop.Ast.until) then
      continue := false
    else begin
      result := eval_body st env loop.Ast.body;
      i := eval st env loop.Ast.next
    end
  done;
  !result

and eval_call st env name args =
  match Hashtbl.find_opt st.procs name with
  | Some proc -> apply_proc st env proc args
  | None -> (
    let argv = List.map (eval st env) args in
    match builtin st name argv with
    | Some v -> v
    | None ->
      if name = "array" then eval_array st env argv
      else error "unknown function or macro %s" name)

and eval_array st _env argv =
  (* (array cell count inum): the builtin macro behind the register
     stacks of Appendix B — a chain of [count] instances of [cell]
     connected consecutively with interface [inum], returned as an
     environment binding c.1 .. c.count and n. *)
  match argv with
  | [ cell_v; count_v; inum_v ] ->
    let cell = resolve_cell st st.global cell_v in
    let count = expect_int "array" count_v in
    let inum = expect_int "array" inum_v in
    if count < 1 then error "array: count must be positive (got %d)" count;
    let frame = Env.create_frame ~size:2 ~name:"array" st.global in
    let entries = Hashtbl.create count in
    let nodes =
      Array.init count (fun i ->
          let n = Graph.mk_instance cell in
          Hashtbl.replace entries (Value.Idx1 (i + 1)) (Value.Vnode n);
          n)
    in
    for i = 0 to count - 2 do
      Graph.connect nodes.(i) nodes.(i + 1) inum
    done;
    Env.define frame "c" (Value.Varray entries);
    Env.define frame "n" (Value.Vint count);
    Value.Venv frame
  | _ -> error "array takes a cell, a count and an interface number"

and apply_proc st env (proc : Ast.proc) args =
  let n_formals = List.length proc.Ast.formals in
  if List.length args <> n_formals then
    error "%s expects %d arguments, got %d" proc.Ast.proc_name n_formals
      (List.length args);
  let argv = List.map (eval st env) args in
  if st.depth >= max_call_depth then
    error "call depth exceeded %d (runaway recursion in %s?)" max_call_depth
      proc.Ast.proc_name;
  st.depth <- st.depth + 1;
  Fun.protect
    ~finally:(fun () -> st.depth <- st.depth - 1)
    (fun () ->
      try apply_proc_inner st proc argv
      with
        Runtime_error msg
        when (not (has_context msg proc.Ast.proc_name))
             && String.length msg < 2000 ->
        (* grow a call trace as the error propagates (bounded, so a
           runaway mutual recursion cannot produce a mile-long one) *)
        error "%s\n  in %s" msg proc.Ast.proc_name)

and has_context msg name =
  (* avoid repeating a frame in direct recursion *)
  let suffix = "  in " ^ name in
  let ls = String.length suffix and lm = String.length msg in
  lm >= ls && String.sub msg (lm - ls) ls = suffix

and apply_proc_inner st (proc : Ast.proc) argv =
  (* Frame sized to formals + locals, as the thesis's interpreter does
     (section 4.5). *)
  let size = List.length proc.Ast.formals + List.length proc.Ast.locals in
  let frame = Env.create_frame ~size ~name:proc.Ast.proc_name st.global in
  List.iter2 (fun name v -> Env.define frame name v) proc.Ast.formals argv;
  List.iter
    (function
      | Ast.Scalar_local name -> Env.define frame name Value.Vunit
      | Ast.Array_local name ->
        Env.define frame name (Value.Varray (Hashtbl.create 8)))
    proc.Ast.locals;
  let result = eval_body st frame proc.Ast.body in
  if proc.Ast.is_macro then Value.Venv frame else result

and eval_declare st env (d : Ast.declare_interface) =
  let c = resolve_cell st env (eval st env d.Ast.di_cell1) in
  let dcell = resolve_cell st env (eval st env d.Ast.di_cell2) in
  let new_index = expect_int "declare_interface" (eval st env d.Ast.di_new_index) in
  let old_index = expect_int "declare_interface" (eval st env d.Ast.di_old_index) in
  let n1 = expect_node "declare_interface" (eval st env d.Ast.di_inst1) in
  let n2 = expect_node "declare_interface" (eval st env d.Ast.di_inst2) in
  let placement what (n : Graph.node) =
    match n.Graph.placement with
    | Some t -> t
    | None ->
      error "declare_interface: %s instance not yet placed (run mk_cell first)"
        what
  in
  let a_in_c = placement "first" n1 and b_in_d = placement "second" n2 in
  let from_a = n1.Graph.def.Cell.cname and to_b = n2.Graph.def.Cell.cname in
  let inner =
    match Interface_table.find st.table ~from:from_a ~into:to_b ~index:old_index with
    | Some i -> i
    | None ->
      error "declare_interface: no interface %d between %s and %s" old_index
        from_a to_b
  in
  let inherited = Interface.inherit_interface ~inner ~a_in_c ~b_in_d in
  Interface_table.declare st.table ~from:c.Cell.cname ~into:dcell.Cell.cname
    ~index:new_index inherited;
  Value.Vunit

(* ------------------------------------------------------------------ *)

(* Register definitions and evaluate top-level expressions in order;
   the last expression's value ([Vunit] if none). *)
let run_program st toplevels =
  List.fold_left
    (fun _ tl ->
      match tl with
      | Ast.Defproc proc ->
        Hashtbl.replace st.procs proc.Ast.proc_name proc;
        Value.Vunit
      | Ast.Expr e -> (
        match st.file with
        | None -> eval st st.global e
        | Some f -> (
          (* locate runtime failures: the innermost At node evaluated
             before the error is the closest enclosing source form *)
          try eval st st.global e
          with Runtime_error msg ->
            if st.cur_line > 0 then
              raise
                (Runtime_error (Printf.sprintf "%s:%d: %s" f st.cur_line msg))
            else raise (Runtime_error (Printf.sprintf "%s: %s" f msg)))))
    Value.Vunit toplevels

let run_string st src = run_program st (Parser.parse_program src)

let last_created st = match st.created with [] -> None | c :: _ -> Some c
