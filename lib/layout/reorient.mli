(** Re-expressing a whole hierarchy under a global orientation.

    [cell o c] returns a cell whose flattened geometry is exactly
    [o] applied to [c]'s: boxes are transformed, instance placements
    are conjugated ([T' = o o T o o^-1]) and definitions are rewritten
    along {!Flatten.postorder}, shared subcells once.  A subcell is
    shared when it is the same cell (physical identity), not when it
    has the same name: same-named celltypes of different content are
    rewritten apart.  Raises {!Flatten.Depth_exceeded} past 64
    levels.

    Uses include y-direction compaction (compact the transposed cell:
    the transposition [(x, y) -> (y, x)] is the D4 element
    [east o mirror-y]) and building mirrored cell libraries. *)

open Rsg_geom

val transpose : Orient.t
(** The reflection about the 45-degree line: (x, y) -> (y, x). *)

val cell : ?suffix:string -> Orient.t -> Cell.t -> Cell.t
(** [suffix] defaults to ["-" ^ Orient.name o]. *)
