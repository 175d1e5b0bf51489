open Rsg_geom
open Rsg_layout
open Rsg_core

type program = { n_primary : int; gates : int list array }

exception Bad_program of string

let fail fmt = Format.kasprintf (fun s -> raise (Bad_program s)) fmt

let n_signals p = p.n_primary + Array.length p.gates

let validate p =
  if p.n_primary < 1 then fail "need at least one primary input";
  Array.iteri
    (fun k inputs ->
      if inputs = [] then fail "gate %d has no inputs" k;
      List.iter
        (fun s ->
          if s < 0 || s >= p.n_primary + k then
            fail "gate %d reads signal %d (must be an earlier signal)" k s)
        inputs)
    p.gates

let eval p primaries =
  validate p;
  if Array.length primaries <> p.n_primary then invalid_arg "Weinberger.eval";
  let values = Array.make (n_signals p) false in
  Array.blit primaries 0 values 0 p.n_primary;
  Array.iteri
    (fun k inputs ->
      values.(p.n_primary + k) <- not (List.exists (fun s -> values.(s)) inputs))
    p.gates;
  values

let inverter = { n_primary = 1; gates = [| [ 0 ] |] }

(* Compile a truth table to NOR-only logic:
   - inverters give the complemented rail of every input;
   - a product term is a NOR of the signals that must be LOW for it to
     fire (input i for an F literal would need... careful: term fires
     iff every T-literal input is 1 and every F-literal input is 0,
     i.e. iff NONE of {inv(i) | lit T} u {i | lit F} is high;
   - an output is OR of its terms = NOR(NOR(terms)). *)
let of_truth_table (tt : Truth_table.t) =
  let n = tt.Truth_table.n_inputs in
  let gates = ref [] in
  let count = ref 0 in
  let add inputs =
    gates := inputs :: !gates;
    let id = n + !count in
    incr count;
    id
  in
  let inv = Array.init n (fun i -> add [ i ]) in
  (* constants, created on demand *)
  let const_false = lazy (add [ 0; inv.(0) ]) in
  let terms =
    List.map
      (fun (term : Truth_table.term) ->
        let lows = ref [] in
        Array.iteri
          (fun i lit ->
            match lit with
            | Truth_table.T -> lows := inv.(i) :: !lows
            | Truth_table.F -> lows := i :: !lows
            | Truth_table.X -> ())
          term.Truth_table.lits;
        match !lows with
        | [] ->
          (* an all-don't-care term always fires: NOR(constant false) *)
          add [ Lazy.force const_false ]
        | lows -> add lows)
      tt.Truth_table.terms
  in
  let outputs =
    Array.init tt.Truth_table.n_outputs (fun k ->
        let driving =
          List.filteri
            (fun r _ ->
              (List.nth tt.Truth_table.terms r).Truth_table.outs.(k))
            terms
        in
        match driving with
        | [] ->
          (* never driven: constant false = NOR(NOR(constant false)) *)
          add [ add [ Lazy.force const_false ] ]
        | ds -> add [ add ds ])
  in
  let prog =
    { n_primary = n; gates = Array.of_list (List.rev !gates) }
  in
  validate prog;
  (prog, outputs)

let eval_outputs p output_ids primaries =
  let values = eval p primaries in
  Array.map (fun id -> values.(id)) output_ids

(* ------------------------------------------------------------------ *)
(* Cells and sample                                                    *)

let sq = 20

let col_cell = "wein-col"

let pullup_cell = "wein-pullup"

let cross_cell = "wein-cross"

let tap_cell = "wein-tap"

let input_cell = "wein-in"

let cross_at = Vec.make 6 6

let tap_at = Vec.make 10 2

let box x y w h = Box.of_size ~origin:(Vec.make x y) ~width:w ~height:h

let make_col () =
  let c = Cell.create col_cell in
  (* gate column (diffusion pull-down chain) and signal row (poly) *)
  Cell.add_box c Layer.Diffusion (box 8 0 4 sq);
  Cell.add_box c Layer.Poly (box 0 8 sq 4);
  c

let make_pullup () =
  let c = Cell.create pullup_cell in
  Cell.add_box c Layer.Diffusion (box 8 0 4 12);
  Cell.add_box c Layer.Metal (box 0 12 sq 4);
  Cell.add_box c Layer.Contact (box 8 12 4 4);
  c

let make_cross () =
  let c = Cell.create cross_cell in
  Cell.add_box c Layer.Implant (box 0 0 8 8);
  c

let make_tap () =
  let c = Cell.create tap_cell in
  Cell.add_box c Layer.Buried (box 0 0 6 6);
  c

let make_input () =
  let c = Cell.create input_cell in
  Cell.add_box c Layer.Poly (box 4 8 20 4);
  Cell.add_box c Layer.Diffusion (box 2 2 12 14);
  Cell.add_box c Layer.Metal (box 0 0 4 sq);
  c

let pair name a ~at b ~label ~at_label =
  let asm = Cell.create name in
  ignore (Cell.add_instance asm ~at:Vec.zero a);
  ignore (Cell.add_instance asm ~at b);
  Cell.add_label asm (string_of_int label) at_label;
  asm

let build_sample () =
  let col = make_col () in
  let pu = make_pullup () in
  let cr = make_cross () in
  let tp = make_tap () in
  let inp = make_input () in
  Sample.of_assemblies
    [ pair "wein-h" col col ~at:(Vec.make sq 0) ~label:1
        ~at_label:(Vec.make sq 10);
      pair "wein-v" col col ~at:(Vec.make 0 sq) ~label:2
        ~at_label:(Vec.make 10 sq);
      pair "wein-pu" col pu ~at:(Vec.make 0 sq) ~label:1
        ~at_label:(Vec.make 10 sq);
      pair "wein-cr" col cr ~at:cross_at ~label:1
        ~at_label:(Vec.add cross_at (Vec.make 2 2));
      pair "wein-tp" col tp ~at:tap_at ~label:1
        ~at_label:(Vec.add tap_at (Vec.make 2 2));
      pair "wein-in" inp col ~at:(Vec.make 24 0) ~label:1
        ~at_label:(Vec.make 24 10) ]

(* ------------------------------------------------------------------ *)

type t = { cell : Cell.t; prog : program; sample : Sample.t }

let cell_of sample name =
  match Db.find sample.Sample.db name with
  | Some c -> c
  | None -> failwith ("Weinberger: sample lacks cell " ^ name)

let generate ?sample ?(name = "weinberger") prog =
  validate prog;
  let sample = match sample with Some s -> s | None -> fst (build_sample ()) in
  let db = sample.Sample.db and tbl = sample.Sample.table in
  let col = cell_of sample col_cell in
  let cols = Array.length prog.gates in
  let rows = n_signals prog in
  if cols < 1 then raise (Bad_program "no gates");
  let grid =
    Array.init cols (fun _ -> Array.init rows (fun _ -> Graph.mk_instance col))
  in
  for c = 0 to cols - 1 do
    for r = 1 to rows - 1 do
      Graph.connect grid.(c).(r - 1) grid.(c).(r) 2
    done
  done;
  for c = 1 to cols - 1 do
    Graph.connect grid.(c - 1).(0) grid.(c).(0) 1
  done;
  (* pull-up head on each gate column *)
  for c = 0 to cols - 1 do
    let pu = Graph.mk_instance (cell_of sample pullup_cell) in
    Graph.connect grid.(c).(rows - 1) pu 1
  done;
  (* input drivers on the primary rows, hung off column 0 *)
  for r = 0 to prog.n_primary - 1 do
    let inp = Graph.mk_instance (cell_of sample input_cell) in
    Graph.connect inp grid.(0).(r) 1
  done;
  (* programming masks *)
  Array.iteri
    (fun k inputs ->
      List.iter
        (fun s ->
          let x = Graph.mk_instance (cell_of sample cross_cell) in
          Graph.connect grid.(k).(s) x 1)
        inputs;
      let t = Graph.mk_instance (cell_of sample tap_cell) in
      Graph.connect grid.(k).(prog.n_primary + k) t 1)
    prog.gates;
  let cell_name = Db.fresh_name db name in
  let cell = Expand.mk_cell ~db tbl cell_name grid.(0).(0) in
  { cell; prog; sample }

(* the program reconstructed from the crossing and tap masks *)
let read_back t =
  let prog = t.prog in
  let cols = Array.length prog.gates and rows = n_signals prog in
  let grid_of base (v : Vec.t) =
    let p = Vec.sub v base in
    if p.Vec.x mod sq <> 0 || p.Vec.y mod sq <> 0 then
      failwith "Weinberger.read_back: mask off grid";
    let c = p.Vec.x / sq and r = p.Vec.y / sq in
    if c < 0 || c >= cols || r < 0 || r >= rows then
      failwith "Weinberger.read_back: mask outside array";
    (c, r)
  in
  let inputs = Array.make cols [] in
  List.iter
    (fun v ->
      let c, r = grid_of cross_at v in
      inputs.(c) <- r :: inputs.(c))
    (Flatten.positions t.cell cross_cell);
  let taps = Array.make cols (-1) in
  List.iter
    (fun v ->
      let c, r = grid_of tap_at v in
      if taps.(c) >= 0 then failwith "Weinberger.read_back: duplicate tap";
      taps.(c) <- r)
    (Flatten.positions t.cell tap_cell);
  Array.iteri
    (fun k r ->
      if r <> prog.n_primary + k then
        failwith "Weinberger.read_back: tap on the wrong row")
    taps;
  { n_primary = prog.n_primary;
    gates = Array.map (List.sort_uniq Int.compare) inputs }

let verify t =
  let back = read_back t in
  let norm p = Array.map (List.sort_uniq Int.compare) p.gates in
  back.n_primary = t.prog.n_primary
  && norm back = norm t.prog
  &&
  let st = Flatten.stats t.cell in
  let get name = try List.assoc name st.Flatten.by_cell with Not_found -> 0 in
  get col_cell = Array.length t.prog.gates * n_signals t.prog
  && get pullup_cell = Array.length t.prog.gates
  && get input_cell = t.prog.n_primary
