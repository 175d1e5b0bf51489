open Rsg_geom

(* (x,y) -> (y,x): reflect about y (x -> -x) then one clockwise
   quarter turn ((x,y) -> (y,-x)). *)
let transpose = Orient.make ~rot:1 ~refl:true

let cell ?suffix o root =
  let suffix =
    match suffix with Some s -> s | None -> "-" ^ Orient.name o
  in
  let oi = Orient.invert o in
  let cells, index = Flatten.postorder root in
  (* children come first, so every call's definition is already built *)
  let built = Array.make (List.length cells) root in
  List.iteri
    (fun k (c : Cell.t) ->
      let c' = Cell.create (c.Cell.cname ^ suffix) in
      List.iter
        (fun obj ->
          match obj with
          | Cell.Obj_box (layer, b) -> Cell.add_box c' layer (Box.transform o b)
          | Cell.Obj_label l ->
            Cell.add_label c' l.Cell.text (Orient.apply o l.Cell.at)
          | Cell.Obj_instance i ->
            (* conjugate the placement so contents land at o(original) *)
            ignore
              (Cell.add_instance c'
                 ~orient:(Orient.compose (Orient.compose o i.Cell.orientation) oi)
                 ~at:(Orient.apply o i.Cell.point_of_call)
                 built.(index i.Cell.def)))
        (Cell.objects c);
      built.(k) <- c')
    cells;
  built.(index root)
