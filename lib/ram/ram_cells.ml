open Rsg_geom
open Rsg_layout
open Rsg_core

let bitcell = "bitcell"

let wldrv = "wldrv"

let precharge = "precharge"

let senseamp = "senseamp"

(* the bit pitch matches the PLA square pitch so decoder rows align
   with word lines *)
let bit_width = 20

let bit_height = Rsg_pla.Pla_cells.square

let wldrv_width = 24

let box x y w h = Box.of_size ~origin:(Vec.make x y) ~width:w ~height:h

let make_bitcell () =
  let c = Cell.create bitcell in
  (* bit lines *)
  Cell.add_box c Layer.Metal (box 3 0 3 bit_height);
  Cell.add_box c Layer.Metal (box 14 0 3 bit_height);
  (* word line *)
  Cell.add_box c Layer.Poly (box 0 8 bit_width 3);
  (* cross-coupled pair *)
  Cell.add_box c Layer.Diffusion (box 6 3 8 5);
  Cell.add_box c Layer.Diffusion (box 6 12 8 5);
  Cell.add_box c Layer.Contact (box 8 4 3 3);
  c

let make_wldrv () =
  let c = Cell.create wldrv in
  Cell.add_box c Layer.Poly (box 4 8 (wldrv_width - 4) 3);
  Cell.add_box c Layer.Diffusion (box 4 2 10 14);
  Cell.add_box c Layer.Metal (box 0 0 3 bit_height);
  Cell.add_box c Layer.Contact (box 6 8 3 3);
  c

let make_precharge () =
  let c = Cell.create precharge in
  Cell.add_box c Layer.Metal (box 3 0 3 12);
  Cell.add_box c Layer.Metal (box 14 0 3 12);
  Cell.add_box c Layer.Diffusion (box 5 4 10 6);
  Cell.add_box c Layer.Poly (box 0 8 bit_width 2);
  c

let make_senseamp () =
  let c = Cell.create senseamp in
  Cell.add_box c Layer.Metal (box 3 0 3 16);
  Cell.add_box c Layer.Metal (box 14 0 3 16);
  Cell.add_box c Layer.Diffusion (box 4 4 12 8);
  Cell.add_box c Layer.Poly (box 2 6 16 2);
  Cell.add_box c Layer.Contact (box 8 5 3 3);
  c

let pair asm_name a ~at b ~label ~at_label =
  let asm = Cell.create asm_name in
  ignore (Cell.add_instance asm ~at:Vec.zero a);
  ignore (Cell.add_instance asm ~at b);
  Cell.add_label asm (string_of_int label) at_label;
  asm

let assemblies_with ~cao () =
  let bc = make_bitcell () in
  let wd = make_wldrv () in
  let pc = make_precharge () in
  let sa = make_senseamp () in
  [ pair "ram-bit-h" bc bc ~at:(Vec.make bit_width 0) ~label:1
      ~at_label:(Vec.make bit_width 10);
    pair "ram-bit-v" bc bc ~at:(Vec.make 0 bit_height) ~label:2
      ~at_label:(Vec.make 10 bit_height);
    pair "ram-wldrv-bit" wd bc ~at:(Vec.make wldrv_width 0) ~label:1
      ~at_label:(Vec.make wldrv_width 10);
    pair "ram-wldrv-v" wd wd ~at:(Vec.make 0 bit_height) ~label:2
      ~at_label:(Vec.make 12 bit_height);
    pair "ram-bit-pre" bc pc ~at:(Vec.make 0 bit_height) ~label:1
      ~at_label:(Vec.make 10 bit_height);
    pair "ram-bit-sense" bc sa ~at:(Vec.make 0 (-16)) ~label:1
      ~at_label:(Vec.make 10 0);
    pair "ram-cao-wldrv" cao wd ~at:(Vec.make Rsg_pla.Pla_cells.square 0)
      ~label:1
      ~at_label:(Vec.make Rsg_pla.Pla_cells.square 10) ]

let build () =
  (* one sample holding both the RAM cells and the PLA/decoder cells;
     the docking assembly must reference the same connect-ao
     definition the PLA assemblies define *)
  let s, pla_decls =
    Sample.of_assemblies (Rsg_pla.Pla_cells.assemblies ())
  in
  let cao = Db.find_exn s.Sample.db Rsg_pla.Pla_cells.connect_ao in
  let ram_decls =
    List.concat_map (Sample.extract s) (assemblies_with ~cao ())
  in
  (s, pla_decls @ ram_decls)
