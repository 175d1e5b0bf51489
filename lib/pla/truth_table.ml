type literal = T | F | X

type term = { lits : literal array; outs : bool array }

type t = { n_inputs : int; n_outputs : int; terms : term list }

exception Malformed of string

let make ~n_inputs ~n_outputs terms =
  if n_inputs < 1 || n_outputs < 1 then
    raise (Malformed "need at least one input and one output");
  List.iteri
    (fun i t ->
      if Array.length t.lits <> n_inputs then
        raise (Malformed (Printf.sprintf "term %d: wrong input count" i));
      if Array.length t.outs <> n_outputs then
        raise (Malformed (Printf.sprintf "term %d: wrong output count" i)))
    terms;
  { n_inputs; n_outputs; terms }

let lit_of_char = function
  | '1' -> T
  | '0' -> F
  | '-' | 'x' | 'X' -> X
  | c -> raise (Malformed (Printf.sprintf "bad input character %c" c))

let out_of_char = function
  | '1' -> true
  | '0' -> false
  | c -> raise (Malformed (Printf.sprintf "bad output character %c" c))

let of_strings rows =
  match rows with
  | [] -> raise (Malformed "empty truth table")
  | (ins0, outs0) :: _ ->
    let n_inputs = String.length ins0 and n_outputs = String.length outs0 in
    let terms =
      List.map
        (fun (ins, outs) ->
          if String.length ins <> n_inputs || String.length outs <> n_outputs
          then raise (Malformed "ragged truth table");
          (* a record's fields are evaluated right to left: bind the
             inputs first, so the first bad character is the one named *)
          let lits = Array.init n_inputs (fun i -> lit_of_char ins.[i]) in
          { lits; outs = Array.init n_outputs (fun i -> out_of_char outs.[i]) })
        rows
    in
    make ~n_inputs ~n_outputs terms

let to_strings t =
  List.map
    (fun term ->
      ( String.init t.n_inputs (fun i ->
            match term.lits.(i) with T -> '1' | F -> '0' | X -> '-'),
        String.init t.n_outputs (fun i -> if term.outs.(i) then '1' else '0') ))
    t.terms

let term_fires term inputs =
  let ok = ref true in
  Array.iteri
    (fun i lit ->
      match lit with
      | T -> if not inputs.(i) then ok := false
      | F -> if inputs.(i) then ok := false
      | X -> ())
    term.lits;
  !ok

let eval t inputs =
  if Array.length inputs <> t.n_inputs then invalid_arg "Truth_table.eval";
  let out = Array.make t.n_outputs false in
  List.iter
    (fun term ->
      if term_fires term inputs then
        Array.iteri (fun k v -> if v then out.(k) <- true) term.outs)
    t.terms;
  out

let eval_int t v =
  let inputs = Array.init t.n_inputs (fun i -> v land (1 lsl i) <> 0) in
  let outs = eval t inputs in
  let r = ref 0 in
  Array.iteri (fun i b -> if b then r := !r lor (1 lsl i)) outs;
  !r

let n_crosspoints t =
  List.fold_left
    (fun (a, o) term ->
      let a' =
        Array.fold_left
          (fun acc lit -> if lit = X then acc else acc + 1)
          0 term.lits
      in
      let o' = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 term.outs in
      (a + a', o + o'))
    (0, 0) t.terms

let equal a b =
  a.n_inputs = b.n_inputs
  && a.n_outputs = b.n_outputs
  && (let all = 1 lsl a.n_inputs in
      let rec go v = v >= all || (eval_int a v = eval_int b v && go (v + 1)) in
      go 0)
