open Rsg_geom
open Rsg_layout
open Rsg_core

type fold = {
  pairs : (int * int) list;
  singles : int list;
  row_order : int array;
  split : int array;
}

type t = {
  cell : Cell.t;
  table : Truth_table.t;
  fold : fold;
  sample : Sample.t;
}

(* rows.(i) lists the product-term rows where input column [i] carries
   a non-X literal.  Computed once per table — successors/acyclic/topo
   walk these lists on every edge, so recomputing them per call made
   planning quadratic in the accepted pairs. *)
let rows_table (tt : Truth_table.t) =
  let rows = Array.make tt.Truth_table.n_inputs [] in
  List.iteri
    (fun r term ->
      Array.iteri
        (fun i lit ->
          if lit <> Truth_table.X then rows.(i) <- r :: rows.(i))
        term.Truth_table.lits)
    tt.Truth_table.terms;
  Array.map List.rev rows

let disjoint tt i j =
  let rows = rows_table tt in
  List.for_all (fun r -> not (List.mem r rows.(j))) rows.(i)

(* precedence: accepted pair (i, j) demands every row of i before
   every row of j.  Edges derived on demand from the accepted list. *)
let successors rows accepted r =
  List.concat_map
    (fun (i, j) -> if List.mem r rows.(i) then rows.(j) else [])
    accepted

let acyclic_rows rows accepted p =
  (* DFS cycle check over the derived precedence graph *)
  let color = Array.make p 0 in
  let rec visit r =
    if color.(r) = 1 then false
    else if color.(r) = 2 then true
    else begin
      color.(r) <- 1;
      let ok = List.for_all visit (successors rows accepted r) in
      color.(r) <- 2;
      ok
    end
  in
  let rec go r = r >= p || (visit r && go (r + 1)) in
  go 0

let acyclic (tt : Truth_table.t) accepted =
  acyclic_rows (rows_table tt) accepted (List.length tt.Truth_table.terms)

let topo_order rows accepted p =
  (* Kahn with smallest-index selection for a stable order *)
  let indeg = Array.make p 0 in
  let edges = Hashtbl.create 64 in
  for r = 0 to p - 1 do
    List.iter
      (fun r' ->
        if not (Hashtbl.mem edges (r, r')) then begin
          Hashtbl.add edges (r, r') ();
          indeg.(r') <- indeg.(r') + 1
        end)
      (successors rows accepted r)
  done;
  let out = Array.make p 0 in
  let placed = Array.make p false in
  for k = 0 to p - 1 do
    let next = ref (-1) in
    for r = p - 1 downto 0 do
      if (not placed.(r)) && indeg.(r) = 0 then next := r
    done;
    if !next < 0 then failwith "Folding.topo_order: cycle";
    placed.(!next) <- true;
    out.(k) <- !next;
    List.iter
      (fun r' ->
        if Hashtbl.mem edges (!next, r') then begin
          Hashtbl.remove edges (!next, r');
          indeg.(r') <- indeg.(r') - 1
        end)
      (successors rows accepted !next)
  done;
  out

(* Build the full fold record from an accepted pair list.  Shared by
   the greedy planner and the search optimizer: validates column
   bounds, pairwise disjointness and precedence acyclicity, then
   derives singles, the topological row order and the split points. *)
let fold_of_pairs (tt : Truth_table.t) pairs =
  let n = tt.Truth_table.n_inputs in
  let p = List.length tt.Truth_table.terms in
  let rows = rows_table tt in
  let paired = Array.make n false in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n || i = j then
        invalid_arg "Folding.fold_of_pairs: column out of range";
      if paired.(i) || paired.(j) then
        invalid_arg "Folding.fold_of_pairs: column folded twice";
      if not (List.for_all (fun r -> not (List.mem r rows.(j))) rows.(i))
      then invalid_arg "Folding.fold_of_pairs: columns share a row";
      paired.(i) <- true;
      paired.(j) <- true)
    pairs;
  if not (acyclic_rows rows pairs p) then
    invalid_arg "Folding.fold_of_pairs: precedence cycle";
  let singles = List.filter (fun i -> not paired.(i)) (List.init n Fun.id) in
  let row_order = topo_order rows pairs p in
  let pos = Array.make p 0 in
  Array.iteri (fun k r -> pos.(r) <- k) row_order;
  let split =
    Array.of_list
      (List.map
         (fun (_, j) ->
           match rows.(j) with
           | [] -> p
           | js -> List.fold_left (fun acc r -> min acc pos.(r)) p js)
         pairs
      @ List.map (fun _ -> p) singles)
  in
  { pairs; singles; row_order; split }

let plan (tt : Truth_table.t) =
  let n = tt.Truth_table.n_inputs in
  let p = List.length tt.Truth_table.terms in
  let rows = rows_table tt in
  let paired = Array.make n false in
  let accepted = ref [] in
  for i = 0 to n - 1 do
    if not paired.(i) then begin
      let ri = rows.(i) in
      let j = ref (i + 1) in
      let found = ref false in
      while (not !found) && !j < n do
        if not paired.(!j) then begin
          let rj = rows.(!j) in
          let disjoint = List.for_all (fun r -> not (List.mem r rj)) ri in
          if disjoint && acyclic_rows rows ((i, !j) :: !accepted) p then begin
            accepted := (i, !j) :: !accepted;
            paired.(i) <- true;
            paired.(!j) <- true;
            found := true
          end
        end;
        incr j
      done
    end
  done;
  fold_of_pairs tt (List.rev !accepted)

let n_slots f = List.length f.pairs + List.length f.singles

let columns_saved _tt f = 2 * List.length f.pairs

(* ------------------------------------------------------------------ *)

let cell_of sample name =
  match Db.find sample.Sample.db name with
  | Some c -> c
  | None -> failwith ("Folding: sample lacks cell " ^ name)

let generate_fold ?sample ?(name = "folded-pla") tt f =
  let sample =
    match sample with Some s -> s | None -> fst (Pla_cells.build ())
  in
  let asq = cell_of sample Pla_cells.and_sq in
  let osq = cell_of sample Pla_cells.or_sq in
  let cao = cell_of sample Pla_cells.connect_ao in
  let ib = cell_of sample Pla_cells.inbuf in
  let ob = cell_of sample Pla_cells.outbuf in
  let ac = cell_of sample Pla_cells.and_cross in
  let oc = cell_of sample Pla_cells.or_cross in
  let terms = Array.of_list tt.Truth_table.terms in
  let p = Array.length terms in
  let slots = Array.of_list (f.pairs @ List.map (fun i -> (i, -1)) f.singles) in
  let nslots = Array.length slots in
  let and_cols = 2 * nslots in
  let m = tt.Truth_table.n_outputs in
  (* placeholder node; every used entry is overwritten below *)
  let dummy = Graph.mk_instance asq in
  let grid = Array.make_matrix and_cols p dummy in
  let cao_col = Array.make p dummy in
  let or_grid = Array.make_matrix (max m 1) p dummy in
  for pr = 0 to p - 1 do
    for c = 0 to and_cols - 1 do
      grid.(c).(pr) <- Graph.mk_instance asq
    done;
    cao_col.(pr) <- Graph.mk_instance cao;
    for k = 0 to m - 1 do
      or_grid.(k).(pr) <- Graph.mk_instance osq
    done
  done;
  for pr = 0 to p - 1 do
    for c = 1 to and_cols - 1 do
      Graph.connect grid.(c - 1).(pr) grid.(c).(pr) 1
    done;
    Graph.connect grid.(and_cols - 1).(pr) cao_col.(pr) 1;
    Graph.connect cao_col.(pr) or_grid.(0).(pr) 1;
    for k = 1 to m - 1 do
      Graph.connect or_grid.(k - 1).(pr) or_grid.(k).(pr) 1
    done
  done;
  for pr = 1 to p - 1 do
    Graph.connect grid.(0).(pr - 1) grid.(0).(pr) 2
  done;
  (* buffers: top for the first input of every slot, bottom for the
     second input of folded slots *)
  Array.iteri
    (fun s (_, j) ->
      let top = Graph.mk_instance ib in
      Graph.connect grid.(2 * s).(p - 1) top 1;
      if j >= 0 then begin
        let bottom = Graph.mk_instance ib in
        Graph.connect grid.(2 * s).(0) bottom 2
      end)
    slots;
  for k = 0 to m - 1 do
    let b = Graph.mk_instance ob in
    Graph.connect or_grid.(k).(p - 1) b 1
  done;
  (* crosspoints through the fold *)
  for pr = 0 to p - 1 do
    let r = f.row_order.(pr) in
    Array.iteri
      (fun s (i, j) ->
        let lit_of input =
          if input < 0 then Truth_table.X else terms.(r).Truth_table.lits.(input)
        in
        let owner =
          if lit_of i <> Truth_table.X then i
          else if j >= 0 && lit_of j <> Truth_table.X then j
          else -1
        in
        if owner >= 0 then begin
          let col =
            match terms.(r).Truth_table.lits.(owner) with
            | Truth_table.T -> 2 * s
            | Truth_table.F -> (2 * s) + 1
            | Truth_table.X -> assert false
          in
          let x = Graph.mk_instance ac in
          Graph.connect grid.(col).(pr) x 1
        end)
      slots;
    Array.iteri
      (fun k driven ->
        if driven then begin
          let x = Graph.mk_instance oc in
          Graph.connect or_grid.(k).(pr) x 1
        end)
      terms.(r).Truth_table.outs
  done;
  let cell_name = Db.fresh_name sample.Sample.db name in
  let cell =
    Expand.mk_cell ~db:sample.Sample.db sample.Sample.table cell_name
      grid.(0).(0)
  in
  { cell; table = tt; fold = f; sample }

let generate ?sample ?name tt = generate_fold ?sample ?name tt (plan tt)

(* ------------------------------------------------------------------ *)

let read_back t =
  let tt = t.table in
  let f = t.fold in
  let n = tt.Truth_table.n_inputs and m = tt.Truth_table.n_outputs in
  let p = List.length tt.Truth_table.terms in
  let slots = Array.of_list (f.pairs @ List.map (fun i -> (i, -1)) f.singles) in
  let nslots = Array.length slots in
  let sq = Pla_cells.square and off = Pla_cells.cross_offset in
  let grid_of (v : Vec.t) =
    let x = v.Vec.x - off and y = v.Vec.y - off in
    if x mod sq <> 0 || y mod sq <> 0 then failwith "read_back: off grid";
    (x / sq, y / sq)
  in
  let rows = rows_table tt in
  let lits = Array.make_matrix p n Truth_table.X in
  List.iter
    (fun v ->
      let col, pr = grid_of v in
      if col < 0 || col >= 2 * nslots || pr < 0 || pr >= p then
        failwith "read_back: and crosspoint outside folded plane";
      let s = col / 2 in
      let r = f.row_order.(pr) in
      let i, j = slots.(s) in
      (* undo the fold: the crosspoint belongs to whichever input of
         the slot participates in this term *)
      let owner =
        if List.mem r rows.(i) then i
        else if j >= 0 && List.mem r rows.(j) then j
        else failwith "read_back: crosspoint in a foreign row"
      in
      lits.(r).(owner) <-
        (if col mod 2 = 0 then Truth_table.T else Truth_table.F))
    (Flatten.positions t.cell Pla_cells.and_cross);
  let or_x0 = ((2 * nslots) + 1) * sq in
  let outs = Array.make_matrix p (max m 1) false in
  List.iter
    (fun (v : Vec.t) ->
      let k, pr = grid_of (Vec.sub v (Vec.make or_x0 0)) in
      if k < 0 || k >= m || pr < 0 || pr >= p then
        failwith "read_back: or crosspoint outside plane";
      outs.(f.row_order.(pr)).(k) <- true)
    (Flatten.positions t.cell Pla_cells.or_cross);
  Truth_table.make ~n_inputs:n ~n_outputs:m
    (List.init p (fun r -> { Truth_table.lits = lits.(r); outs = outs.(r) }))

let verify t =
  let back = read_back t in
  Truth_table.to_strings back = Truth_table.to_strings t.table
  && Truth_table.equal back t.table
