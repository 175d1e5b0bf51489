type port = string

type kind =
  | Adder of { negate : bool }
  | Cpa
  | Notg
  | Const of bool
  | Input of { bus : string; bit : int }

type signal = { src : int; port : port }

type conn = { sig_in : signal; mutable regs : int }

type cell = {
  id : int;
  kind : kind;
  ins : (string * conn) list;
  pos : (int * int) option;
  mutable stage : int;
}

type out_bit = {
  ob_bus : string;
  ob_bit : int;
  ob_sig : signal;
  mutable ob_regs : int;
}

type t = {
  mutable cells : cell array;  (* index = id *)
  mutable n : int;
  mutable outs : out_bit list;
  mutable pipelined : bool;
}

let create () = { cells = [||]; n = 0; outs = []; pipelined = false }

let get net id =
  if id < 0 || id >= net.n then failwith "Cellnet: dangling signal";
  net.cells.(id)

let input_names = function
  | Adder _ -> [ "a"; "b"; "s"; "c" ]
  | Cpa -> [ "s"; "c"; "k" ]
  | Notg -> [ "x" ]
  | Const _ | Input _ -> []

let output_ports = function
  | Adder _ -> [ "sum"; "carry"; "a"; "b" ]
  | Cpa -> [ "sum"; "carry" ]
  | Notg | Const _ | Input _ -> [ "out" ]

let signal src port = { src; port }

let add_cell net ?pos kind inputs =
  let expected = input_names kind in
  List.iter
    (fun name ->
      if not (List.mem_assoc name inputs) then
        failwith (Printf.sprintf "Cellnet.add_cell: missing input %s" name))
    expected;
  List.iter
    (fun (name, s) ->
      if not (List.mem name expected) then
        failwith (Printf.sprintf "Cellnet.add_cell: unknown input %s" name);
      let src = get net s.src in
      if not (List.mem s.port (output_ports src.kind)) then
        failwith
          (Printf.sprintf "Cellnet.add_cell: cell %d has no output %s" s.src
             s.port))
    inputs;
  let id = net.n in
  let cell =
    { id; kind;
      ins = List.map (fun (nm, s) -> (nm, { sig_in = s; regs = 0 })) inputs;
      pos; stage = 0 }
  in
  if net.n = Array.length net.cells then begin
    let bigger =
      Array.make (max 16 (2 * Array.length net.cells)) cell
    in
    Array.blit net.cells 0 bigger 0 net.n;
    net.cells <- bigger
  end;
  net.cells.(id) <- cell;
  net.n <- net.n + 1;
  id

let set_output net bus bit s =
  ignore (get net s.src);
  net.outs <- { ob_bus = bus; ob_bit = bit; ob_sig = s; ob_regs = 0 } :: net.outs

let adder_count net =
  let k = ref 0 in
  for i = 0 to net.n - 1 do
    match net.cells.(i).kind with
    | Adder _ | Cpa -> incr k
    | Notg | Const _ | Input _ -> ()
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Depth and staging                                                   *)

let costs_delay = function
  | Adder _ | Cpa -> true
  | Notg | Const _ | Input _ -> false

let depths net =
  (* Cells are created in topological order (inputs before consumers),
     so a single left-to-right pass suffices. *)
  let d = Array.make net.n 0 in
  for i = 0 to net.n - 1 do
    let cell = net.cells.(i) in
    let base =
      List.fold_left (fun acc (_, conn) -> max acc d.(conn.sig_in.src)) 0
        cell.ins
    in
    d.(i) <- (if costs_delay cell.kind then base + 1 else base)
  done;
  d

let combinational net =
  net.pipelined <- false;
  for i = 0 to net.n - 1 do
    net.cells.(i).stage <- 0;
    List.iter (fun (_, conn) -> conn.regs <- 0) net.cells.(i).ins
  done;
  List.iter (fun ob -> ob.ob_regs <- 0) net.outs

let pipeline net ~beta =
  if beta <= 0 then invalid_arg "Cellnet.pipeline: beta must be positive";
  let d = depths net in
  for i = 0 to net.n - 1 do
    let cell = net.cells.(i) in
    cell.stage <- (if d.(i) = 0 then 0 else (d.(i) - 1) / beta);
    List.iter
      (fun (_, conn) ->
        conn.regs <- cell.stage - net.cells.(conn.sig_in.src).stage;
        assert (conn.regs >= 0))
      cell.ins
  done;
  let max_stage =
    List.fold_left
      (fun acc ob -> max acc net.cells.(ob.ob_sig.src).stage)
      0 net.outs
  in
  List.iter
    (fun ob -> ob.ob_regs <- max_stage - net.cells.(ob.ob_sig.src).stage)
    net.outs;
  net.pipelined <- true

let latency net =
  if not net.pipelined then 0
  else
    List.fold_left
      (fun acc ob -> max acc (net.cells.(ob.ob_sig.src).stage + ob.ob_regs))
      0 net.outs

let register_count net =
  let total = ref 0 in
  for i = 0 to net.n - 1 do
    List.iter (fun (_, conn) -> total := !total + conn.regs) net.cells.(i).ins
  done;
  List.iter (fun ob -> total := !total + ob.ob_regs) net.outs;
  !total

let input_skew_registers net =
  let total = ref 0 in
  for i = 0 to net.n - 1 do
    List.iter
      (fun (_, conn) ->
        match net.cells.(conn.sig_in.src).kind with
        | Input _ -> total := !total + conn.regs
        | _ -> ())
      net.cells.(i).ins
  done;
  !total

let output_deskew_registers net =
  List.fold_left (fun acc ob -> acc + ob.ob_regs) 0 net.outs

let max_comb_depth net =
  (* Longest register-free adder chain ending at each cell. *)
  let lam = Array.make (max net.n 1) 0 in
  let best = ref 0 in
  for i = 0 to net.n - 1 do
    let cell = net.cells.(i) in
    let base =
      List.fold_left
        (fun acc (_, conn) ->
          if conn.regs > 0 then acc else max acc lam.(conn.sig_in.src))
        0 cell.ins
    in
    lam.(i) <- (if costs_delay cell.kind then base + 1 else base);
    best := max !best lam.(i)
  done;
  !best

type register_entry = {
  re_from : int * port;
  re_to : [ `Cell of int * string | `Output of string * int ];
  re_count : int;
}

let register_table net =
  let entries = ref [] in
  for i = net.n - 1 downto 0 do
    List.iter
      (fun (name, conn) ->
        if conn.regs > 0 then
          entries :=
            { re_from = (conn.sig_in.src, conn.sig_in.port);
              re_to = `Cell (i, name);
              re_count = conn.regs }
            :: !entries)
      net.cells.(i).ins
  done;
  List.iter
    (fun ob ->
      if ob.ob_regs > 0 then
        entries :=
          { re_from = (ob.ob_sig.src, ob.ob_sig.port);
            re_to = `Output (ob.ob_bus, ob.ob_bit);
            re_count = ob.ob_regs }
          :: !entries)
    net.outs;
  !entries

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)

type stimulus = bus:string -> bit:int -> cycle:int -> bool

(* Cycle-accurate evaluation with memoisation; a connection with [r]
   registers reads its source [r] cycles earlier. *)
let eval net (stim : stimulus) s ~cycle =
  let memo : (int * port * int, bool) Hashtbl.t = Hashtbl.create 1024 in
  let rec value { src; port } cycle =
    match Hashtbl.find_opt memo (src, port, cycle) with
    | Some v -> v
    | None ->
      let cell = get net src in
      let input name =
        let conn = List.assoc name cell.ins in
        value conn.sig_in (cycle - conn.regs)
      in
      let v =
        match (cell.kind, port) with
        | Input { bus; bit }, "out" -> stim ~bus ~bit ~cycle
        | Const b, "out" -> b
        | Notg, "out" -> not (input "x")
        | Adder { negate }, _ -> (
          let pp =
            let p = input "a" && input "b" in
            if negate then not p else p
          in
          match port with
          | "a" -> input "a"
          | "b" -> input "b"
          | "sum" ->
            let s = input "s" and c = input "c" in
            (pp <> s) <> c
          | "carry" ->
            let s = input "s" and c = input "c" in
            (pp && s) || (pp && c) || (s && c)
          | p -> failwith ("Cellnet.eval: bad adder port " ^ p))
        | Cpa, _ -> (
          let s = input "s" and c = input "c" and k = input "k" in
          match port with
          | "sum" -> (s <> c) <> k
          | "carry" -> (s && c) || (s && k) || (c && k)
          | p -> failwith ("Cellnet.eval: bad cpa port " ^ p))
        | _, p -> failwith ("Cellnet.eval: bad port " ^ p)
      in
      Hashtbl.replace memo (src, port, cycle) v;
      v
  in
  value s cycle

let read_output net stim ~bus ~cycle =
  let bits =
    List.filter (fun ob -> String.equal ob.ob_bus bus) net.outs
  in
  if bits = [] then failwith ("Cellnet.read_output: no output bus " ^ bus);
  List.fold_left
    (fun acc ob ->
      let v = eval net stim ob.ob_sig ~cycle:(cycle - ob.ob_regs) in
      if v then acc lor (1 lsl ob.ob_bit) else acc)
    0 bits
