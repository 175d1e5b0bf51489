open Rsg_geom
open Rsg_layout
open Rsg_core
module Obs = Rsg_obs.Obs

type t = { cell : Cell.t; table : Truth_table.t; sample : Sample.t }

let cell_of sample name =
  match Db.find sample.Sample.db name with
  | Some c -> c
  | None -> failwith ("Pla.Gen: sample lacks cell " ^ name)

(* Shared plane builder: rows of [and-sq x 2n][connect-ao][or-sq x m]
   (m = 0 for decoders), buffers on top, crosspoints from the
   personality.  Returns the root node. *)
let build_structure sample (tt : Truth_table.t) ~with_or_plane =
  let asq = cell_of sample Pla_cells.and_sq in
  let osq = cell_of sample Pla_cells.or_sq in
  let cao = cell_of sample Pla_cells.connect_ao in
  let ib = cell_of sample Pla_cells.inbuf in
  let ob = cell_of sample Pla_cells.outbuf in
  let ac = cell_of sample Pla_cells.and_cross in
  let oc = cell_of sample Pla_cells.or_cross in
  let n = tt.Truth_table.n_inputs in
  let m = if with_or_plane then tt.Truth_table.n_outputs else 0 in
  let p = List.length tt.Truth_table.terms in
  if p = 0 then failwith "Pla.Gen: no product terms";
  let and_cols = 2 * n in
  let terms = Array.of_list tt.Truth_table.terms in
  (* grid rows: index r = 0 .. p-1 *)
  let and_grid = Array.make_matrix and_cols p None in
  let cao_col = Array.make p None in
  let or_grid = Array.make_matrix (max m 1) p None in
  for r = 0 to p - 1 do
    for c = 0 to and_cols - 1 do
      and_grid.(c).(r) <- Some (Graph.mk_instance asq)
    done;
    cao_col.(r) <- Some (Graph.mk_instance cao);
    for k = 0 to m - 1 do
      or_grid.(k).(r) <- Some (Graph.mk_instance osq)
    done
  done;
  let aget c r = Option.get and_grid.(c).(r) in
  let cget r = Option.get cao_col.(r) in
  let oget k r = Option.get or_grid.(k).(r) in
  (* horizontal chains along each row *)
  for r = 0 to p - 1 do
    for c = 1 to and_cols - 1 do
      Graph.connect (aget (c - 1) r) (aget c r) 1
    done;
    Graph.connect (aget (and_cols - 1) r) (cget r) 1;
    if m > 0 then begin
      Graph.connect (cget r) (oget 0 r) 1;
      for k = 1 to m - 1 do
        Graph.connect (oget (k - 1) r) (oget k r) 1
      done
    end
  done;
  (* vertical ties at the first column *)
  for r = 1 to p - 1 do
    Graph.connect (aget 0 (r - 1)) (aget 0 r) 2
  done;
  (* buffers above the top row *)
  for i = 0 to n - 1 do
    let b = Graph.mk_instance ib in
    Graph.connect (aget (2 * i) (p - 1)) b 1
  done;
  for k = 0 to m - 1 do
    let b = Graph.mk_instance ob in
    Graph.connect (oget k (p - 1)) b 1
  done;
  (* programming crosspoints *)
  for r = 0 to p - 1 do
    Array.iteri
      (fun i lit ->
        let put c =
          let x = Graph.mk_instance ac in
          Graph.connect (aget c r) x 1
        in
        match lit with
        | Truth_table.T -> put (2 * i)
        | Truth_table.F -> put ((2 * i) + 1)
        | Truth_table.X -> ())
      terms.(r).Truth_table.lits;
    if m > 0 then
      Array.iteri
        (fun k driven ->
          if driven then begin
            let x = Graph.mk_instance oc in
            Graph.connect (oget k r) x 1
          end)
        terms.(r).Truth_table.outs
  done;
  aget 0 0

let generate ?sample ?(name = "pla") tt =
  Obs.span "pla.generate" (fun () ->
      let sample =
        match sample with Some s -> s | None -> fst (Pla_cells.build ())
      in
      let root =
        Obs.span "pla.graph" (fun () ->
            build_structure sample tt ~with_or_plane:true)
      in
      let cell_name = Db.fresh_name sample.Sample.db name in
      let cell =
        Expand.mk_cell ~db:sample.Sample.db sample.Sample.table cell_name root
      in
      Obs.count "pla.generated";
      { cell; table = tt; sample })

let minterm_table n =
  if n < 1 || n > 16 then invalid_arg "Pla.Gen.generate_decoder";
  let p = 1 lsl n in
  let terms =
    List.init p (fun v ->
        { Truth_table.lits =
            Array.init n (fun i ->
                if v land (1 lsl i) <> 0 then Truth_table.T else Truth_table.F);
          outs = Array.init p (fun k -> k = v) })
  in
  Truth_table.make ~n_inputs:n ~n_outputs:p terms

let generate_decoder ?sample ?(name = "decoder") n =
  Obs.span "pla.generate_decoder" (fun () ->
      let sample =
        match sample with Some s -> s | None -> fst (Pla_cells.build ())
      in
      let tt = minterm_table n in
      let root =
        Obs.span "pla.graph" (fun () ->
            build_structure sample tt ~with_or_plane:false)
      in
      let cell_name = Db.fresh_name sample.Sample.db name in
      let cell =
        Expand.mk_cell ~db:sample.Sample.db sample.Sample.table cell_name root
      in
      Obs.count "pla.generated";
      { cell; table = tt; sample })

(* --- extraction-based verification --------------------------------- *)

let read_back t =
  let tt = t.table in
  let n = tt.Truth_table.n_inputs in
  let p = List.length tt.Truth_table.terms in
  let sq = Pla_cells.square and off = Pla_cells.cross_offset in
  let grid_of (v : Vec.t) =
    let x = v.Vec.x - off and y = v.Vec.y - off in
    if x mod sq <> 0 || y mod sq <> 0 then
      failwith "read_back: crosspoint off grid";
    (x / sq, y / sq)
  in
  let lits = Array.make_matrix p n Truth_table.X in
  List.iter
    (fun v ->
      let c, r = grid_of v in
      if c < 0 || c >= 2 * n || r < 0 || r >= p then
        failwith "read_back: and crosspoint outside plane";
      let i = c / 2 in
      lits.(r).(i) <- (if c mod 2 = 0 then Truth_table.T else Truth_table.F))
    (Flatten.positions t.cell Pla_cells.and_cross);
  let m = tt.Truth_table.n_outputs in
  let has_or = Flatten.positions t.cell Pla_cells.or_sq <> [] in
  let outs = Array.make_matrix p (max m 1) false in
  if has_or then begin
    (* or plane starts after 2n and columns + the connect-ao column *)
    let or_x0 = ((2 * n) + 1) * sq in
    List.iter
      (fun (v : Vec.t) ->
        let c, r = grid_of (Vec.sub v (Vec.make or_x0 0)) in
        if c < 0 || c >= m || r < 0 || r >= p then
          failwith "read_back: or crosspoint outside plane";
        outs.(r).(c) <- true)
      (Flatten.positions t.cell Pla_cells.or_cross)
  end
  else
    (* decoder: row r drives output r *)
    for r = 0 to p - 1 do
      outs.(r).(r) <- true
    done;
  Truth_table.make ~n_inputs:n ~n_outputs:m
    (List.init p (fun r -> { Truth_table.lits = lits.(r); outs = outs.(r) }))

let verify t =
  Obs.span "pla.verify" (fun () ->
      let back = read_back t in
      Truth_table.to_strings back = Truth_table.to_strings t.table
      && Truth_table.equal back t.table)

let stats t =
  (Flatten.stats t.cell).Flatten.by_cell
