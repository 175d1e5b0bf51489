(** Axis-aligned integer rectangles.

    Boxes are the only geometric primitive VLSI layouts are built from
    in the RSG (section 2.1: "objects in A can be boxes of various
    layers, points, and instances").  A box is stored by its lower-left
    and upper-right corners and is kept normalised
    ([xmin <= xmax], [ymin <= ymax]). *)

type t = { xmin : int; ymin : int; xmax : int; ymax : int }

val make : xmin:int -> ymin:int -> xmax:int -> ymax:int -> t
(** Normalising constructor: swaps coordinates as needed. *)

val of_corners : Vec.t -> Vec.t -> t

val of_size : origin:Vec.t -> width:int -> height:int -> t
(** Box with lower-left corner [origin].  [width] and [height] must be
    non-negative; raises [Invalid_argument] otherwise. *)

val width : t -> int

val height : t -> int

val area : t -> int

val center2 : t -> Vec.t
(** Twice the center point (exact on the integer grid). *)

val translate : Vec.t -> t -> t

val transform : Orient.t -> t -> t
(** Apply an orientation about the origin; the result is
    re-normalised, so rectilinear boxes stay rectilinear boxes. *)

val contains : t -> Vec.t -> bool
(** Closed containment (boundary points count). *)

val overlaps : t -> t -> bool
(** True when the closed boxes share at least one point. *)

val intersect : t -> t -> t option

val union : t -> t -> t
(** Smallest box containing both. *)

val subtract : t -> t -> t list
(** [subtract a b] decomposes the closed region of [a] not properly
    covered by [b] into at most four disjoint boxes (full-height side
    strips, then top/bottom pieces clipped to the cut), in a fixed
    deterministic order.  A [b] that only touches [a]'s edge or corner
    removes no interior and returns [[a]] unchanged.  This is how the
    extractor splits a diffusion region into source/drain fragments
    around a gate. *)

val inflate : int -> t -> t
(** Grow (or shrink, for negative amounts) by the same margin on all
    four sides.  Raises [Invalid_argument] if shrinking would invert
    the box. *)

val distance : t -> t -> int
(** Chebyshev (L-infinity) separation of the closed boxes: the largest
    per-axis gap, 0 when they touch or overlap.  This is the metric of
    lambda design rules on rectilinear geometry: [distance a b <= k]
    iff [inflate k a] overlaps [b]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
