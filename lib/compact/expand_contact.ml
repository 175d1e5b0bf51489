open Rsg_geom

let cuts_along rules lo hi =
  (* positions of cut intervals within [lo + overlap, hi - overlap] *)
  let size = Rules.cut_size rules
  and gap = Rules.cut_spacing rules
  and margin = Rules.cut_overlap rules in
  let lo = lo + margin and hi = hi - margin in
  let avail = hi - lo in
  if avail < size then invalid_arg "Expand_contact: contact too small";
  let n = 1 + ((avail - size) / (size + gap)) in
  let used = (n * size) + ((n - 1) * gap) in
  let start = lo + ((avail - used) / 2) in
  List.init n (fun i ->
      let a = start + (i * (size + gap)) in
      (a, a + size))

let cuts_for rules (b : Box.t) =
  let xs = cuts_along rules b.Box.xmin b.Box.xmax in
  let ys = cuts_along rules b.Box.ymin b.Box.ymax in
  List.concat_map
    (fun (x0, x1) ->
      List.map
        (fun (y0, y1) -> Box.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1)
        ys)
    xs

let expand_box rules b =
  (Layer.Metal, b) :: (Layer.Poly, b)
  :: List.map (fun cut -> (Layer.Contact_cut, cut)) (cuts_for rules b)

let expand_cell rules cell =
  let f = Rsg_layout.Flatten.(protos_flat (prototypes cell)) in
  let out = Rsg_layout.Cell.create (cell.Rsg_layout.Cell.cname ^ "-masks") in
  Array.iter
    (fun (layer, box) ->
      match layer with
      | Layer.Contact ->
        List.iter
          (fun (l, b) -> Rsg_layout.Cell.add_box out l b)
          (expand_box rules box)
      | _ -> Rsg_layout.Cell.add_box out layer box)
    f.Rsg_layout.Flatten.flat_boxes;
  out
