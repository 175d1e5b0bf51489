(** Lambda scaling.

    Chapter 6 motivates the leaf-cell compactor with technology
    transport: "a library of cells ... designed in an older technology
    can quickly become obsolete as new process technologies with
    smaller geometries become available."  Uniform lambda scaling is
    the trivial half of transport (Mead-Conway's premise); the
    compactor handles the non-uniform rest.  This module provides the
    trivial half exactly: every coordinate in a hierarchy multiplied
    by num/den, shared subcells scaled once.  A subcell is shared when
    it is the same cell (physical identity), not when it has the same
    name: same-named celltypes of different content are scaled apart. *)

open Rsg_geom

exception Inexact of { value : int; num : int; den : int }
(** A coordinate that [num/den] does not scale to an integer. *)

val box : num:int -> den:int -> Box.t -> Box.t

val cell : ?suffix:string -> num:int -> ?den:int -> Cell.t -> Cell.t
(** Deep-scale a cell and everything it instantiates, walking
    {!Flatten.postorder}: each distinct celltype is scaled once and
    sharing is preserved.  Cell names get [suffix] (default
    ["-s<num>[d<den>]"]).  [den] defaults to 1.  Raises {!Inexact} for
    non-integral results, [Invalid_argument] for non-positive factors
    and {!Flatten.Depth_exceeded} past 64 levels. *)
