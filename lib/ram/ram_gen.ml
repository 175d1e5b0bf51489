open Rsg_geom
open Rsg_layout
open Rsg_core

type t = {
  cell : Cell.t;
  array_cell : Cell.t;
  decoder_cell : Cell.t;
  words : int;
  bits : int;
  sample : Sample.t;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let cell_of sample name =
  match Db.find sample.Sample.db name with
  | Some c -> c
  | None -> failwith ("Ram_gen: sample lacks cell " ^ name)

let generate ?sample ~words ~bits () =
  if not (is_power_of_two words) || words < 2 then
    invalid_arg "Ram_gen.generate: words must be a power of two >= 2";
  if bits < 1 then invalid_arg "Ram_gen.generate: bits >= 1";
  let sample =
    match sample with Some s -> s | None -> fst (Ram_cells.build ())
  in
  let db = sample.Sample.db and tbl = sample.Sample.table in
  let bc = cell_of sample Ram_cells.bitcell in
  let wd = cell_of sample Ram_cells.wldrv in
  let pc = cell_of sample Ram_cells.precharge in
  let sa = cell_of sample Ram_cells.senseamp in
  (* --- the array ---------------------------------------------------- *)
  let drivers = Array.init words (fun _ -> Graph.mk_instance wd) in
  let grid = Array.init words (fun _ -> Array.init bits (fun _ -> Graph.mk_instance bc)) in
  for r = 1 to words - 1 do
    Graph.connect drivers.(r - 1) drivers.(r) 2
  done;
  for r = 0 to words - 1 do
    Graph.connect drivers.(r) grid.(r).(0) 1;
    for c = 1 to bits - 1 do
      Graph.connect grid.(r).(c - 1) grid.(r).(c) 1
    done
  done;
  for c = 0 to bits - 1 do
    let pre = Graph.mk_instance pc in
    Graph.connect grid.(words - 1).(c) pre 1;
    let sense = Graph.mk_instance sa in
    Graph.connect grid.(0).(c) sense 1
  done;
  let array_name = Db.fresh_name db "ramarray" in
  let array_cell = Expand.mk_cell ~db tbl array_name drivers.(0) in
  (* --- the decoder macrocell ---------------------------------------- *)
  let n = log2 words in
  let dec = Rsg_pla.Gen.generate_decoder ~sample ~name:"ramdecoder" n in
  let decoder_cell = dec.Rsg_pla.Gen.cell in
  (* --- dock them through an inherited interface (fig 2.4) ----------- *)
  (* inner: connect-ao drives a word-line driver placed one pitch to
     its right (from the sample). *)
  let inner =
    Interface_table.find_exn tbl ~from:Rsg_pla.Pla_cells.connect_ao
      ~into:Ram_cells.wldrv ~index:1
  in
  (* placement of the row-0 connect-ao inside the decoder: rightmost
     column of the AND plane, bottom row *)
  let cao_in_dec =
    Transform.make
      (Vec.make (2 * n * Rsg_pla.Pla_cells.square) 0)
  in
  (* the row-0 word-line driver is the array's root: the origin *)
  let wd_in_array = Transform.identity in
  let inherited =
    Interface.inherit_interface ~inner ~a_in_c:cao_in_dec ~b_in_d:wd_in_array
  in
  Interface_table.declare tbl ~from:decoder_cell.Cell.cname
    ~into:array_cell.Cell.cname ~index:1 inherited;
  let deci = Graph.mk_instance decoder_cell in
  let arri = Graph.mk_instance array_cell in
  Graph.connect deci arri 1;
  let ram_name = Db.fresh_name db "ram" in
  let cell = Expand.mk_cell ~db tbl ram_name deci in
  { cell; array_cell; decoder_cell; words; bits; sample }

(* -------------------------------------------------------------------- *)

module Model = struct
  type ram = t

  type m = { dec : Rsg_pla.Truth_table.t; store : int array; width : int }

  let create (ram : ram) =
    let dec =
      Rsg_pla.Gen.read_back
        { Rsg_pla.Gen.cell = ram.decoder_cell;
          table = Rsg_pla.Gen.minterm_table (log2 ram.words);
          sample = ram.sample }
    in
    (* the extracted decoder must decode one-hot *)
    for addr = 0 to ram.words - 1 do
      let out = Rsg_pla.Truth_table.eval_int dec addr in
      if out <> 1 lsl addr then
        failwith
          (Printf.sprintf "Ram model: address %d decodes to %d" addr out)
    done;
    { dec; store = Array.make ram.words 0; width = ram.bits }

  let row_of m addr =
    let out = Rsg_pla.Truth_table.eval_int m.dec addr in
    let rec log2 v = if v <= 1 then 0 else 1 + log2 (v / 2) in
    if out = 0 || out land (out - 1) <> 0 then
      failwith "Ram model: decode not one-hot";
    log2 out

  let write m ~addr v =
    if v < 0 || v >= 1 lsl m.width then invalid_arg "Ram.Model.write";
    m.store.(row_of m addr) <- v

  let read m ~addr = m.store.(row_of m addr)
end

let structure_counts t = (Flatten.stats t.cell).Flatten.by_cell

let docking_aligned t =
  let caos = Flatten.positions t.cell Rsg_pla.Pla_cells.connect_ao in
  let drivers = Flatten.positions t.cell Ram_cells.wldrv in
  List.length caos = List.length drivers
  && List.for_all2
       (fun (c : Vec.t) (d : Vec.t) ->
         d.Vec.x = c.Vec.x + Rsg_pla.Pla_cells.square && d.Vec.y = c.Vec.y)
       caos drivers
