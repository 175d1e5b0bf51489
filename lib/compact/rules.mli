(** Design rule tables (Chapter 6).

    Minimum widths and same/inter-layer spacings in lambda, plus the
    contact-expansion parameters of section 6.4.3.  The defaults are
    Mead-Conway NMOS-flavoured; alternative tables model a "new
    process technology with smaller geometries" for the
    technology-transport experiments. *)

open Rsg_geom

type t

val default : t
(** Mead-Conway-like: metal width 3 / spacing 3, poly 2/2, diffusion
    2/3, poly-diff spacing 1, cut 2x2 with spacing 2 and overlap 1. *)

val tight : t
(** A scaled-down target technology (smaller geometries) for leaf-cell
    technology transport. *)

val min_width : t -> Layer.t -> int

val spacing : t -> Layer.t -> Layer.t -> int option
(** [None] when the two layers do not interact (no spacing rule). *)

val max_spacing : t -> int
(** Largest spacing value in the deck — the interaction horizon: two
    boxes farther apart than this can never violate a spacing rule of
    this deck (the shell depth of {!Hcompact}'s interface
    abstractions). *)

val digest : t -> string
(** Raw 16-byte MD5 of the deck's full rule content, canonically
    ordered: equal digests mean identical constraint behaviour.  Keys
    the per-prototype constraint cache alongside the subtree hash. *)

val connects : t -> Layer.t -> Layer.t -> bool
(** True when overlapping geometry on the two layers is electrical
    connection rather than a violation (same layer, or contact over
    metal/poly/diffusion). *)

(** Contact-expansion parameters (fig 6.9). *)

val cut_size : t -> int

val cut_spacing : t -> int

val cut_overlap : t -> int
(** Metal/poly overlap required around the cut field. *)
