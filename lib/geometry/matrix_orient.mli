(** Reference 2x2 integer-matrix representation of orientations.

    Section 2.6 of the thesis discusses representing orientations as
    2x2 matrices and rejects it as wasteful: matrices can express every
    linear map of the plane while only eight values are ever needed,
    and composition/inversion are comparatively costly.  This module
    implements that rejected representation faithfully so that

    - property tests can check the compact {!Orient.t} representation
      against it through the obvious isomorphism, and
    - the E3 ablation bench can measure the cost difference the thesis
      claims.

    Matrices here are restricted to orientation matrices (entries in
    {-1, 0, 1}, orthogonal), but the implementation performs full
    matrix arithmetic as a general 2x2 package would. *)

type t = { a : int; b : int; c : int; d : int }
(** Row-major: the map (x, y) -> (a x + b y, c x + d y). *)

val identity : t

val of_orient : Orient.t -> t

val to_orient : t -> Orient.t
(** Raises [Invalid_argument] if the matrix is not one of the eight
    orientation matrices. *)

val compose : t -> t -> t
(** [compose m2 m1] is the matrix product [m2 * m1] (apply [m1]
    first). *)

val invert : t -> t
(** Inverse via the adjugate; raises [Invalid_argument] when the
    determinant is not +-1 (never happens for orientation
    matrices). *)

val apply : t -> Vec.t -> Vec.t

val equal : t -> t -> bool
