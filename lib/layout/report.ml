open Rsg_geom

type layer_usage = { lu_layer : Layer.t; lu_boxes : int; lu_area : int }

type t = {
  r_cell : string;
  r_bbox : Box.t option;
  r_instances : int;
  r_leaf_instances : int;
  r_boxes : int;
  r_layers : layer_usage list;
  r_hierarchy : tree;
}

and tree = { t_name : string; t_count : int; t_children : tree list }

let rec tree_of ?(count = 1) (cell : Cell.t) =
  let groups : (string, int * Cell.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (i : Cell.instance) ->
      let name = i.Cell.def.Cell.cname in
      match Hashtbl.find_opt groups name with
      | Some (n, def) -> Hashtbl.replace groups name (n + 1, def)
      | None -> Hashtbl.replace groups name (1, i.Cell.def))
    (Cell.instances cell);
  let children =
    Hashtbl.fold (fun _ (n, def) acc -> tree_of ~count:n def :: acc) groups []
    |> List.sort (fun a b -> String.compare a.t_name b.t_name)
  in
  { t_name = cell.Cell.cname; t_count = count; t_children = children }

(* Per-layer usage without geometry: each distinct celltype's own
   boxes, weighted by how often the design places it.  Orientation and
   offset keep a box's area, so the sums equal the flat's. *)
let of_cell cell =
  let protos = Flatten.prototypes cell in
  let stats = Flatten.protos_stats protos in
  let placed = Flatten.placements protos in
  let n = List.length Layer.all in
  let boxes = Array.make n 0 and area = Array.make n 0 in
  List.iteri
    (fun i c ->
      let k = placed.(i) in
      List.iter
        (fun (layer, box) ->
          let l = Layer.to_index layer in
          boxes.(l) <- boxes.(l) + k;
          area.(l) <- area.(l) + (k * Box.area box))
        (Cell.boxes c))
    (Flatten.protos_order protos);
  let layers =
    List.filter_map
      (fun l ->
        if boxes.(l) = 0 then None
        else
          Some
            { lu_layer = Layer.of_index_exn l;
              lu_boxes = boxes.(l);
              lu_area = area.(l) })
      (List.init n Fun.id)
  in
  { r_cell = cell.Cell.cname;
    r_bbox = stats.Flatten.bbox;
    r_instances = stats.Flatten.n_instances;
    r_leaf_instances = stats.Flatten.n_leaf_instances;
    r_boxes = stats.Flatten.n_boxes;
    r_layers = layers;
    r_hierarchy = tree_of cell }

(* one shared pad buffer, extended two spaces per level on the way
   down and truncated on the way up: deep hierarchies cost one buffer,
   not a fresh ever-longer indent string per level *)
let pp_tree_indent ppf base tree =
  let pad = Buffer.create 32 in
  Buffer.add_string pad base;
  let rec walk tree =
    Format.fprintf ppf "%s%s" (Buffer.contents pad) tree.t_name;
    if tree.t_count > 1 then Format.fprintf ppf " x%d" tree.t_count;
    Format.pp_print_newline ppf ();
    let depth = Buffer.length pad in
    Buffer.add_string pad "  ";
    List.iter walk tree.t_children;
    Buffer.truncate pad depth
  in
  walk tree

let pp ppf r =
  Format.fprintf ppf "cell %s@." r.r_cell;
  (match r.r_bbox with
  | Some b ->
    Format.fprintf ppf "  bbox       %a (%d x %d, area %d)@." Box.pp b
      (Box.width b) (Box.height b) (Box.area b)
  | None -> Format.fprintf ppf "  bbox       (empty)@.");
  Format.fprintf ppf "  instances  %d (%d leaf)@." r.r_instances
    r.r_leaf_instances;
  Format.fprintf ppf "  boxes      %d@." r.r_boxes;
  if r.r_layers <> [] then begin
    Format.fprintf ppf "  %-12s %8s %10s %9s@." "layer" "boxes" "area"
      "of bbox";
    let denom =
      match r.r_bbox with
      | Some b when Box.area b > 0 -> float_of_int (Box.area b)
      | _ -> nan
    in
    List.iter
      (fun u ->
        Format.fprintf ppf "  %-12s %8d %10d %8.1f%%@." (Layer.name u.lu_layer)
          u.lu_boxes u.lu_area
          (100.0 *. float_of_int u.lu_area /. denom))
      r.r_layers
  end;
  Format.fprintf ppf "  hierarchy:@.";
  pp_tree_indent ppf "    " r.r_hierarchy
