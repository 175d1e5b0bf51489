(** Connectivity graphs (Chapter 3).

    Vertices are {e partial instances}: the cell type is known but the
    location and orientation are unspecified until the graph is
    expanded into a layout.  Edges carry interface index numbers.

    Per section 3.4 the data structure is {e bilateral} (each endpoint
    can reach the other, because the traversal root is not known while
    the graph is being built by macros) while the edges themselves are
    {e directed} (so that the two possible readings of a same-celltype
    interface I°aa vs (I°aa)^-1 can be told apart; direction
    information between different celltypes exists but is not used). *)

open Rsg_geom
open Rsg_layout

type node = {
  id : int;                               (** unique per generator *)
  def : Cell.t;                           (** celltype *)
  mutable placement : Transform.t option; (** filled in by expansion *)
  mutable edges : edge list;              (** reverse insertion order *)
}

and edge = {
  dir : direction;  (** as seen from the node owning the edge list *)
  index : int;      (** interface index number (edge weight) *)
  peer : node;
}

and direction = Emanating | Terminating

type generator
(** A node-id allocator.  Ids identify nodes in the hash tables of
    {!reachable} and [Expand], so two nodes of one traversal must
    never share an id: draw all nodes of a graph from one generator. *)

val generator : ?first:int -> unit -> generator
(** A fresh allocator, starting at [first] (default 1).  Use a
    dedicated generator to build graphs with dense, reproducible ids
    (tests, serialisation) independent of whatever else the process
    has built. *)

val mk_instance : ?gen:generator -> Cell.t -> node
(** The [mk_instance] operator (section 4.4.1): a fresh pseudo-instance
    node with empty edge list and blank calling parameters, its id
    drawn from [gen] (default {!default_generator}). *)

val connect : node -> node -> int -> unit
(** [connect a b index] — the [connect] operator (section 4.4.2): adds
    a directed edge from [a] to [b] with the given interface index,
    recorded bilaterally (an [Emanating] entry on [a], a [Terminating]
    entry on [b]).  Raises [Invalid_argument] on a self-loop
    [connect a a i], which would record both entries on one node and
    double-count in {!degree}. *)

val edges : node -> edge list
(** Edge list in insertion order. *)

val reachable : node -> node list
(** Every node in the connected component of the argument, in
    breadth-first order starting from it. *)

val component_size : node -> int * int
(** [(nodes, edges)] of the component, computed in a single
    breadth-first traversal. *)

val edge_count : node -> int
(** Number of distinct edges in the component. *)

val is_spanning_tree : node -> bool
(** True when the component has exactly [n - 1] edges — the thesis
    notes the graph need only be a spanning tree, cycles being
    redundant (section 3.1). *)
