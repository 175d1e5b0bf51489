open Rsg_geom

exception Inexact of { value : int; num : int; den : int }

let coord ~num ~den v =
  let scaled = v * num in
  if scaled mod den <> 0 then raise (Inexact { value = v; num; den })
  else scaled / den

let vec ~num ~den (v : Vec.t) =
  Vec.make (coord ~num ~den v.Vec.x) (coord ~num ~den v.Vec.y)

let box ~num ~den (b : Box.t) =
  Box.make
    ~xmin:(coord ~num ~den b.Box.xmin)
    ~ymin:(coord ~num ~den b.Box.ymin)
    ~xmax:(coord ~num ~den b.Box.xmax)
    ~ymax:(coord ~num ~den b.Box.ymax)

let cell ?suffix ~num ?(den = 1) root =
  if num <= 0 || den <= 0 then invalid_arg "Scale.cell";
  let suffix =
    match suffix with
    | Some s -> s
    | None ->
      if den = 1 then Printf.sprintf "-s%d" num
      else Printf.sprintf "-s%dd%d" num den
  in
  let cells, index = Flatten.postorder root in
  (* children come first, so every call's definition is already built *)
  let built = Array.make (List.length cells) root in
  List.iteri
    (fun k (c : Cell.t) ->
      let c' = Cell.create (c.Cell.cname ^ suffix) in
      List.iter
        (fun obj ->
          match obj with
          | Cell.Obj_box (layer, b) -> Cell.add_box c' layer (box ~num ~den b)
          | Cell.Obj_label l ->
            Cell.add_label c' l.Cell.text (vec ~num ~den l.Cell.at)
          | Cell.Obj_instance i ->
            ignore
              (Cell.add_instance c' ~orient:i.Cell.orientation
                 ~at:(vec ~num ~den i.Cell.point_of_call)
                 built.(index i.Cell.def)))
        (Cell.objects c);
      built.(k) <- c')
    cells;
  built.(index root)
