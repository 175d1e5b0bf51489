(** Constraint generation (section 6.4.1).

    Two generators over the same pair rules:

    - {!Naive}: every pair of y-overlapping boxes on interacting
      layers gets a constraint between their opposing edges,
      regardless of what lies between them — the scheme the thesis
      implemented first, whose indiscriminate edge pairs overconstrain
      fragmented geometry (Figures 6.4/6.5: an n-fragment bus is
      forced to n times the minimum width).

    - {!Visibility}: the corrected method in the spirit of Figure 6.7.
      The thesis's fix was a scan line recording which edges a viewer
      can see, making box merging implicit; pure edge visibility is
      unsound, however, once compaction reorders edges (a hidden box
      connected to its cover can slide out past it).  We therefore
      realise the same idea at the {e net} level: a union-find over
      touching connected-layer geometry merges boxes into electrical
      nets; no spacing constraint is ever generated {e within} a net
      (so the Figure 6.5 fragmented bus collapses freely), and
      spacing always applies {e across} nets, which is sound under
      any edge reordering.

    Pair rules: same-net touching boxes keep their overlap
    (connectivity constraints; contacts keep their enclosure margin);
    cross-net geometry on interacting layers keeps its spacing;
    properly-overlapping non-connecting layers (a device, e.g. poly
    crossing diffusion) are frozen rigid relative to each other. *)

open Rsg_geom

type item = { layer : Layer.t; box : Box.t }

type method_ = Naive | Visibility

type gen = {
  graph : Cgraph.t;
  left : int array;   (** constraint variable of item i's left edge *)
  right : int array;
  items : item array;
}

val order_by : int -> (int -> int) -> int array
(** [order_by n key] is [0 .. n - 1] ordered by ([key i], [i]): the
    order of every (key, index) sort in the plane sweeps.  [key] is
    called once per index.  Each index is packed with its key as
    [(key i - min) * n + i] and the packed ints are sorted in place by
    an int-specialised introsort (median-of-three quicksort, insertion
    sort below 16 elements, heap sort past [2 log n] levels), so no
    comparison closure runs and nothing is allocated beyond the
    returned array.  Keys spread too far to pack ([(max - min) * n]
    past [max_int]) fall back to a comparison sort with the same
    result. *)

val sweep_pairs : ?halo:int -> Box.t array -> (int -> int -> unit) -> unit
(** Plane sweep reporting every pair of boxes within Chebyshev
    distance [halo] (default 0: overlapping or abutting closed boxes).
    The callback receives the two indices, each unordered pair exactly
    once.  O((n + k) log n) on bounded-overlap layout geometry — the
    shared pair-finding engine of net merging and the design-rule
    checker ({!Rsg_drc.Drc}). *)

val nets_of : Rules.t -> item array -> int array
(** Electrical net of each item: union-find over touching geometry on
    connecting layers (net ids are representative item indices). *)

val generate :
  ?stretchable:(int -> bool) -> Rules.t -> method_ -> item array -> gen
(** Boxes for which [stretchable] is true (default: none) get a
    min-width inequality instead of a rigid width, enabling bus/device
    sizing.  Every left edge is bounded below by the origin. *)

val items_of_cell : Rsg_layout.Cell.t -> item array
(** A cell's prototype flat ({!Rsg_layout.Flatten.protos_flat}) as
    scanline items (labels dropped). *)

val items_of_flat : Rsg_layout.Flatten.flat -> item array
(** Already-flattened geometry to scanline items — lets callers feed
    one {!Rsg_layout.Flatten.protos_flat} build to several passes. *)

val apply : gen -> int array -> item array
(** Rebuild items from solved edge positions (y coordinates are
    untouched — this is 1-D x compaction). *)

val width : item array -> int
(** Bounding-box width of the items. *)

val height : item array -> int

val transpose : item array -> item array
(** Swap x and y of every box: y-dimension compaction is x-dimension
    compaction of the transposed layout (the thesis's compactor is
    strictly one-dimensional; two passes approximate 2-D, section
    6.1's remark on one-dimensional greediness notwithstanding). *)

type violation = {
  v_a : int;
  v_b : int;
  v_required : int;
  v_actual : int;
}

val check : Rules.t -> item array -> violation list
(** Independent post-hoc spacing check: interacting non-connecting
    pairs closer than their rule (but not overlapping devices), and
    connecting pairs separated by less than their spacing. *)
