open Rsg_layout
open Rsg_core
module Obs = Rsg_obs.Obs

type t = { whole : Cell.t; array_cell : Cell.t; sample : Sample.t }

(* ------------------------------------------------------------------ *)
(* Personalisation rules, shared (by specification) with the design
   file of Design_file and checked against Multiplier.cell_type.      *)

let type_mask ~xsize ~ysize ~xloc ~yloc =
  if yloc = ysize + 1 then Sample_lib.type1 (* carry-propagate row *)
  else if (xloc = xsize) <> (yloc = ysize) then Sample_lib.type2
  else Sample_lib.type1

let clock_mask ~xloc =
  if xloc mod 2 = 0 then Sample_lib.clock1 else Sample_lib.clock2

let car_mask ~xsize ~ysize ~xloc ~yloc =
  if yloc = ysize then Sample_lib.car2
  else if yloc = ysize + 1 then
    if xloc = xsize then Sample_lib.car1 else Sample_lib.car2
  else Sample_lib.car1

(* The right register bank of Appendix B: ysize rows of length
   ceil((3*ysize+1)/2), each register masked as bidirectional, single,
   or double according to how many signals stream in vs out at that
   row. *)
let right_reg_geometry ~ysize =
  let regnum = (3 * ysize) + 1 in
  (* Appendix B uses ceil(regnum/2), which works only when regnum is
     odd (even ysize, as in the thesis's 16-bit example); one extra
     slot covers the ins = outs row that arises for even regnum. *)
  let length = (regnum / 2) + 1 in
  (regnum, length)

let right_reg_mask ~ysize ~row ~k =
  let regnum, _ = right_reg_geometry ~ysize in
  let ins = row * 2 in
  let outs = regnum - ins in
  let bi = min ins outs in
  if k <= bi then "goboth"
  else if k = bi + 1 then if ins > outs then "gosleft" else "gosright"
  else if ins > outs then "goleft"
  else "goright"

let expected_mask_counts ~xsize ~ysize =
  let counts = Hashtbl.create 16 in
  let bump name = Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)) in
  for yloc = 1 to ysize + 1 do
    for xloc = 1 to xsize do
      bump Sample_lib.basic_cell;
      bump (type_mask ~xsize ~ysize ~xloc ~yloc);
      bump (clock_mask ~xloc);
      bump (car_mask ~xsize ~ysize ~xloc ~yloc)
    done
  done;
  for x = 1 to xsize do
    for _ = 1 to x do
      bump Sample_lib.topreg
    done;
    for _ = 1 to xsize + 1 - x do
      bump Sample_lib.bottomreg
    done
  done;
  let _, length = right_reg_geometry ~ysize in
  for row = 1 to ysize do
    for k = 1 to length do
      bump Sample_lib.rightreg;
      bump (right_reg_mask ~ysize ~row ~k)
    done
  done;
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let cell_of sample name =
  match Db.find sample.Sample.db name with
  | Some c -> c
  | None -> failwith ("Layout_gen: sample lacks cell " ^ name)

let generate ?sample ~xsize ~ysize () =
  if xsize < 2 || ysize < 2 then invalid_arg "Layout_gen.generate";
  Obs.span "mult.generate" @@ fun () ->
  let sample =
    match sample with
    | Some s -> s
    | None -> Obs.span "mult.sample" (fun () -> fst (Sample_lib.build ()))
  in
  let db = sample.Sample.db and tbl = sample.Sample.table in
  let cellc = cell_of sample Sample_lib.basic_cell in
  let trc = cell_of sample Sample_lib.topreg in
  let brc = cell_of sample Sample_lib.bottomreg in
  let rrc = cell_of sample Sample_lib.rightreg in
  let mask name node =
    let m = Graph.mk_instance (cell_of sample name) in
    Graph.connect node m 1
  in
  (* --- the personalised array, rows 1 .. ysize+1 --- *)
  let grid = Array.make_matrix (xsize + 1) (ysize + 2) None in
  Obs.span "mult.graph" (fun () ->
      for yloc = 1 to ysize + 1 do
        for xloc = 1 to xsize do
          let node = Graph.mk_instance cellc in
          grid.(xloc).(yloc) <- Some node;
          mask (type_mask ~xsize ~ysize ~xloc ~yloc) node;
          mask (clock_mask ~xloc) node;
          mask (car_mask ~xsize ~ysize ~xloc ~yloc) node
        done
      done);
  let at x y = Option.get grid.(x).(y) in
  Obs.span "mult.graph" (fun () ->
      for yloc = 2 to ysize + 1 do
        Graph.connect (at 1 (yloc - 1)) (at 1 yloc) Sample_lib.v_index
      done;
      for yloc = 1 to ysize + 1 do
        for xloc = 2 to xsize do
          Graph.connect (at (xloc - 1) yloc) (at xloc yloc) Sample_lib.h_index
        done
      done);
  let array_name = Db.fresh_name db "array" in
  let array_cell = Expand.mk_cell ~db tbl array_name (at 1 1) in
  (* --- register stacks --- *)
  let column cell height =
    let nodes = Array.init height (fun _ -> Graph.mk_instance cell) in
    for k = 1 to height - 1 do
      Graph.connect nodes.(k - 1) nodes.(k) 2
    done;
    nodes
  in
  let stack name cell heights =
    (* columns chained horizontally at their first element *)
    let cols = List.map (column cell) heights in
    let firsts = List.map (fun c -> c.(0)) cols in
    let rec link = function
      | a :: (b :: _ as rest) ->
        Graph.connect a b 1;
        link rest
      | [ _ ] | [] -> ()
    in
    link firsts;
    let ref_node = List.hd firsts in
    let cell_name = Db.fresh_name db name in
    let built = Expand.mk_cell ~db tbl cell_name ref_node in
    (built, ref_node)
  in
  let tregs, tref =
    stack "topregs" trc (List.init xsize (fun i -> i + 1))
  in
  let bregs, bref =
    stack "bottomregs" brc (List.init xsize (fun i -> xsize - i))
  in
  (* right register bank: ysize rows of masked registers *)
  let _, length = right_reg_geometry ~ysize in
  let right_rows =
    Array.init ysize (fun r ->
        let row = r + 1 in
        let nodes = Array.init length (fun _ -> Graph.mk_instance rrc) in
        Array.iteri
          (fun idx node ->
            let m =
              Graph.mk_instance
                (cell_of sample (right_reg_mask ~ysize ~row ~k:(idx + 1)))
            in
            Graph.connect m node 1)
          nodes;
        for k = 1 to length - 1 do
          Graph.connect nodes.(k - 1) nodes.(k) 1
        done;
        nodes)
  in
  for r = 1 to ysize - 1 do
    Graph.connect right_rows.(r - 1).(0) right_rows.(r).(0) 2
  done;
  let rref = right_rows.(0).(0) in
  let rregs_name = Db.fresh_name db "rightregs" in
  let rregs = Expand.mk_cell ~db tbl rregs_name rref in
  (* --- inherited interfaces (fig 2.4) --- *)
  let inherit_and_declare ~from_cell ~into_cell ~a_node ~b_node ~inner_from
      ~inner_into =
    let inner =
      Interface_table.find_exn tbl ~from:inner_from ~into:inner_into ~index:1
    in
    let placement (n : Graph.node) = Option.get n.Graph.placement in
    let iface =
      Interface.inherit_interface ~inner ~a_in_c:(placement a_node)
        ~b_in_d:(placement b_node)
    in
    Interface_table.declare tbl ~from:from_cell.Cell.cname
      ~into:into_cell.Cell.cname ~index:1 iface
  in
  (* topregs sits so its reference register is above the array's
     top-left cell *)
  inherit_and_declare ~from_cell:tregs ~into_cell:array_cell ~a_node:tref
    ~b_node:(at 1 (ysize + 1))
    ~inner_from:Sample_lib.topreg ~inner_into:Sample_lib.basic_cell;
  inherit_and_declare ~from_cell:array_cell ~into_cell:bregs
    ~a_node:(at 1 1) ~b_node:bref ~inner_from:Sample_lib.basic_cell
    ~inner_into:Sample_lib.bottomreg;
  inherit_and_declare ~from_cell:array_cell ~into_cell:rregs
    ~a_node:(at xsize 1) ~b_node:rref ~inner_from:Sample_lib.basic_cell
    ~inner_into:Sample_lib.rightreg;
  (* --- the whole multiplier --- *)
  let arrayi = Graph.mk_instance array_cell in
  let tri = Graph.mk_instance tregs in
  let bri = Graph.mk_instance bregs in
  let rri = Graph.mk_instance rregs in
  Graph.connect tri arrayi 1;
  Graph.connect bri arrayi 1;
  Graph.connect rri arrayi 1;
  let whole_name = Db.fresh_name db "thewholething" in
  let whole = Expand.mk_cell ~db tbl whole_name arrayi in
  Obs.count "mult.generated";
  { whole; array_cell; sample }
