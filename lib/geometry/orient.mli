(** The eight rectilinear orientations (the dihedral group D4).

    Section 2.6 of the thesis argues that arbitrary isometries
    represented as angles or 2x2 real matrices are wasteful and
    numerically fragile, and that VLSI layout needs only the eight
    orientations that map vertical/horizontal lines to
    vertical/horizontal lines: the four quarter-turn rotations and the
    four axis/diagonal reflections.  An orientation is represented as a
    pair [(rot, refl)] standing for the operator [R^rot o M^refl] where
    [M] is the reflection about the y axis (x -> -x) applied {e first},
    and [R] is the quarter-turn rotation.

    The rotation direction is fixed so that the four named rotations
    reproduce the coordinate-mapping table of Figure 2.5:

    {v
      orientation   x image   y image
      North         ( x,  y)
      East          ( y, -x)
      South         (-x, -y)
      West          (-y,  x)
    v} *)

type t = private { rot : int; refl : bool }
(** [rot] is in [0..3] quarter turns; [refl] selects a prior reflection
    about the y axis.  The representation is private so values are
    always normalised; build them with {!make} or the constants. *)

val make : rot:int -> refl:bool -> t
(** [make ~rot ~refl] normalises [rot] modulo 4 (negative values
    allowed). *)

val north : t
(** The identity transform. *)

val east : t

val south : t

val west : t

val mirror_y : t
(** Reflection about the y axis: (x, y) -> (-x, y). *)

val mirror_x : t
(** Reflection about the x axis: (x, y) -> (x, -y). *)

val identity : t
(** Alias for {!north}. *)

val all : t list
(** The eight orientations, [north] first. *)

val rotations : t list
(** The four pure rotations in Figure 2.5 order: N, E, S, W. *)

val is_reflection : t -> bool
(** True when the orientation reverses handedness (refl set). *)

val compose : t -> t -> t
(** [compose o2 o1] is the operator applying [o1] first and then [o2],
    i.e. [o2 o o1] in the thesis's notation.  Computed with the
    closed-form rules of section 2.6.2. *)

val invert : t -> t
(** Group inverse, by the rules of section 2.6.1: a reflection is its
    own inverse; a rotation inverts its angle. *)

val apply : t -> Vec.t -> Vec.t
(** Apply the orientation to a vector: reflection first (if any), then
    the quarter-turn rotations, using only coordinate permutations and
    negations (Figure 2.5). *)

val equal : t -> t -> bool

val to_index : t -> int
(** Dense index in [0..7]: [rot + (if refl then 4 else 0)]. *)

val of_index : int -> t
(** Inverse of {!to_index}.  Raises [Invalid_argument] outside 0..7. *)

val name : t -> string
(** Compass name, e.g. ["north"], ["mirror-east"]. *)

val of_name : string -> t option
(** Parse the output of {!name} (case-insensitive). *)

val pp : Format.formatter -> t -> unit
