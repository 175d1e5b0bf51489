(** Expanding a connectivity graph into a layout — the [mk_cell]
    operator (sections 3.1 and 4.4.3).

    A root node is selected and arbitrarily placed (origin, north);
    the graph is then traversed breadth-first and each partial
    instance's calling parameters are computed from an already-placed
    neighbour with

    {v Ob = Oa o Oab        Lb = Oa Vab + La v}

    selecting [Iab] or its inverse according to the edge direction when
    both endpoints have the same celltype (section 3.4).

    The same connectivity graph expands, for a given interface table,
    to a unique layout modulo one global isometry (section 3.4): the
    root choice merely picks the representative of the equivalence
    class.

    {2 Transactional expansion}

    Expansion is {e transactional}: {!run} derives placements into a
    private map keyed by node id and never touches the graph, so a
    failed expansion leaves every node's [placement] exactly as it was
    and the same graph can be re-expanded after the table or graph is
    repaired.  {!commit} writes a defect-free report back into the
    nodes; the classic {!place_component} / {!mk_cell} entry points are
    thin wrappers over run-then-commit and keep their historical
    exception behaviour.

    In [`Collect] mode {!run} keeps traversing past defects and
    returns {e all} missing interfaces and inconsistent-cycle
    mismatches, each with the offending edge, both transforms and the
    traversal path from the root — the structured diagnosis behind
    [rsg doctor]. *)

open Rsg_geom
open Rsg_layout

exception Missing_interface of { from : string; into : string; index : int }

exception Inconsistent_cycle of {
  cell : string;            (** celltype of the doubly-constrained node *)
  expected : Transform.t;   (** placement implied by the extra edge *)
  actual : Transform.t;     (** placement from the tree traversal *)
}

exception Already_placed of string

type mode = [ `Fail_fast | `Collect ]
(** [`Fail_fast] stops at the first defect (the wrapper entry points
    then raise it); [`Collect] records every defect and keeps
    expanding whatever remains derivable. *)

type defect =
  | Missing of {
      from : string;        (** celltype of the placed edge source *)
      into : string;        (** celltype of the unplaceable peer *)
      index : int;          (** interface index of the offending edge *)
      path : string list;   (** traversal path, root to the source *)
    }
  | Mismatch of {
      cell : string;        (** celltype of the doubly-constrained node *)
      from : string;        (** celltype sourcing the closing edge *)
      index : int;          (** interface index of the closing edge *)
      expected : Transform.t;  (** placement implied by the closing edge *)
      actual : Transform.t;    (** placement from the spanning tree *)
      path : string list;      (** traversal path, root to the node *)
    }

type report = {
  r_root : Graph.node;
  r_placements : (Graph.node * Transform.t) list;
  (** tentative placements in traversal order; in [`Collect] mode
      nodes reachable only through missing interfaces are absent *)
  r_defects : defect list;     (** in discovery order *)
  r_component : int;           (** nodes in the component *)
  r_edges_walked : int;        (** edge slots examined *)
}

val interface_for :
  Interface_table.t ->
  placed:Graph.node -> edge:Graph.edge -> Interface.t option
(** The interface that derives [edge.peer]'s placement from [placed]'s,
    honouring edge direction for same-celltype pairs. *)

val run :
  ?root_placement:Transform.t ->
  ?check_cycles:bool ->
  ?mode:mode ->
  Interface_table.t -> Graph.node -> report
(** Derive placements for the component of the root without mutating
    any node.  [root_placement] defaults to the identity;
    [check_cycles] (default true) verifies that redundant (non-tree)
    edges agree with the tree placement; [mode] defaults to
    [`Fail_fast].  Raises {!Already_placed} if any reachable node was
    previously expanded — that is a precondition, not a defect. *)

val commit : report -> Graph.node list
(** Write a defect-free, fully-placed report's placements into the
    graph and return the nodes in traversal order.  Raises
    [Invalid_argument] if the report has defects or did not place the
    whole component. *)

val place_component :
  ?root_placement:Transform.t ->
  ?check_cycles:bool ->
  Interface_table.t -> Graph.node -> Graph.node list
(** Fill in the [placement] of every node reachable from the root
    (returned in traversal order): {!run} in [`Fail_fast] mode
    followed by {!commit}.  Raises {!Missing_interface} or
    {!Inconsistent_cycle} on the first defect — with the graph left
    untouched — and {!Already_placed} if any reachable node was
    previously expanded. *)

val mk_cell :
  ?db:Db.t ->
  ?check_cycles:bool ->
  Interface_table.t -> string -> Graph.node -> Cell.t
(** [mk_cell tbl name root] runs {!place_component} and builds a new
    cell containing one completed instance per node; registers it in
    [db] when provided. *)

val both_readings :
  Interface_table.t ->
  placed:Transform.t -> from:string -> into:string -> index:int ->
  (Transform.t * Transform.t) option
(** For a same-celltype interface, the two placements an {e undirected}
    edge would permit — [(using I°aa, using (I°aa)^-1)].  This is the
    ambiguity of Figures 3.5/3.6 that directed edges resolve; exposed
    for experiment E16.  [None] if the interface is absent. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable diagnosis: component summary, then every defect
    with its offending edge, transforms and traversal path. *)
