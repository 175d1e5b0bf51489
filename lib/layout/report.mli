(** Human-readable layout reports.

    Summaries a designer working with the RSG would want after a
    generation run: the hierarchy tree with call counts, per-layer
    box counts and areas, and the headline totals.  Drives the CLI's
    [stats] subcommand and the examples. *)

open Rsg_geom

type layer_usage = {
  lu_layer : Layer.t;
  lu_boxes : int;        (** flattened box count *)
  lu_area : int;         (** summed box area (overlaps double-count) *)
}

type t = {
  r_cell : string;
  r_bbox : Box.t option;
  r_instances : int;
  r_leaf_instances : int;
  r_boxes : int;
  r_layers : layer_usage list;   (** only layers actually used, by index *)
  r_hierarchy : tree;
}

and tree = {
  t_name : string;
  t_count : int;           (** how many times called at this position *)
  t_children : tree list;  (** distinct subcells, by name *)
}

val of_cell : Cell.t -> t

val pp : Format.formatter -> t -> unit
(** Multi-line report: totals, layer table, hierarchy tree. *)
