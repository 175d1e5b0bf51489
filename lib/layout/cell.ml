open Rsg_geom

type t = { cname : string; mutable objects : obj list }

and obj =
  | Obj_box of Layer.t * Box.t
  | Obj_label of label
  | Obj_instance of instance

and label = { text : string; at : Vec.t }

and instance = {
  point_of_call : Vec.t;
  orientation : Orient.t;
  def : t;
}

let create cname = { cname; objects = [] }

let add_box c layer box = c.objects <- Obj_box (layer, box) :: c.objects

let add_label c text at = c.objects <- Obj_label { text; at } :: c.objects

let instance ?(orient = Orient.north) ~at def =
  { point_of_call = at; orientation = orient; def }

let add_instance_obj c inst = c.objects <- Obj_instance inst :: c.objects

let add_instance c ?orient ~at def =
  let inst = instance ?orient ~at def in
  add_instance_obj c inst;
  inst

let transform_of_instance i =
  Transform.{ orient = i.orientation; offset = i.point_of_call }

let objects c = List.rev c.objects

let instances c =
  List.filter_map
    (function Obj_instance i -> Some i | Obj_box _ | Obj_label _ -> None)
    (objects c)

let boxes c =
  List.filter_map
    (function Obj_box (l, b) -> Some (l, b) | Obj_instance _ | Obj_label _ -> None)
    (objects c)

let labels c =
  List.filter_map
    (function Obj_label l -> Some l | Obj_box _ | Obj_instance _ -> None)
    (objects c)

let union_opt acc b =
  match acc with None -> Some b | Some a -> Some (Box.union a b)

let local_bbox c =
  List.fold_left
    (fun acc obj ->
      match obj with
      | Obj_box (_, b) -> union_opt acc b
      | Obj_label l -> union_opt acc (Box.of_corners l.at l.at)
      | Obj_instance _ -> acc)
    None c.objects

(* Recursive bounding box.  The [visiting] list detects instance cycles
   (which would make the layout infinite). *)
exception Instance_cycle of string

let rec bbox_rec visiting c =
  if List.memq c visiting then raise (Instance_cycle c.cname);
  List.fold_left
    (fun acc obj ->
      match obj with
      | Obj_box (_, b) -> union_opt acc b
      | Obj_label l -> union_opt acc (Box.of_corners l.at l.at)
      | Obj_instance i -> (
        match bbox_rec (c :: visiting) i.def with
        | None -> acc
        | Some b ->
          union_opt acc (Transform.apply_box (transform_of_instance i) b)))
    None c.objects

let bbox c = bbox_rec [] c

let instance_bbox i =
  match bbox i.def with
  | None -> None
  | Some b -> Some (Transform.apply_box (transform_of_instance i) b)

