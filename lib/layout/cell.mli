(** Cell definitions and instances (section 2.1).

    A cell is a named collection of objects: boxes on mask layers,
    labelled points, and instances of other cells.  An instance is the
    triplet (point of call, orientation, cell definition): the effect
    of an instance of B in A is to orient B about its own origin, place
    B's origin at the point of call in A's coordinate system, and add
    B's objects to A.

    Cells are deliberately mutable bags of objects — the RSG's
    [mk_cell] operator pushes completed instances onto the object list
    of the cell being built (section 4.4.3). *)

open Rsg_geom

type t = {
  cname : string;
  mutable objects : obj list;  (** in reverse insertion order *)
}

and obj =
  | Obj_box of Layer.t * Box.t
  | Obj_label of label
  | Obj_instance of instance

and label = {
  text : string;  (** interface index digits, or a point name *)
  at : Vec.t;
}

and instance = {
  point_of_call : Vec.t;    (** L' in the thesis *)
  orientation : Orient.t;   (** O' in the thesis *)
  def : t;                  (** pointer to the cell definition *)
}

val create : string -> t
(** Fresh empty cell. *)

val add_box : t -> Layer.t -> Box.t -> unit

val add_label : t -> string -> Vec.t -> unit

val add_instance : t -> ?orient:Orient.t -> at:Vec.t -> t -> instance
(** Adds an instance of the second cell into the first and returns it.
    [orient] defaults to north. *)

val add_instance_obj : t -> instance -> unit
(** Push an already-built instance record. *)

val instance : ?orient:Orient.t -> at:Vec.t -> t -> instance
(** Build an instance record without adding it to any cell. *)

val transform_of_instance : instance -> Transform.t
(** The isometry the instance applies to its definition's objects. *)

val objects : t -> obj list
(** Objects in insertion order. *)

val instances : t -> instance list
(** Just the instances, in insertion order. *)

val boxes : t -> (Layer.t * Box.t) list
(** Just the directly-contained boxes, in insertion order. *)

val labels : t -> label list

val local_bbox : t -> Box.t option
(** Bounding box of the cell's own boxes and labels only (no
    instances); [None] for an empty cell. *)

exception Instance_cycle of string
(** An instance chain revisits this cell, making the layout infinite. *)

val bbox : t -> Box.t option
(** Full recursive bounding box including instances.  Cycle-safe:
    recursion through an instance chain that revisits a cell raises
    {!Instance_cycle}. *)

val instance_bbox : instance -> Box.t option
(** Bounding box of an instance in the calling coordinate system. *)
