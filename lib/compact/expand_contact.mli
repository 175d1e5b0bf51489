(** Synthetic-layer expansion (section 6.4.3, Figure 6.9).

    Design rules arising from layer interaction (contacts, gates)
    cannot be expressed as pairwise minimum spacings, so editors like
    Magic introduce synthetic layers: a [Contact] box stands for
    metal + poly + one or more contact cuts, and is translated into
    real mask layers at mask-creation time, with the number and
    placement of cuts looked up from the contact's size. *)

open Rsg_geom

val cuts_for : Rules.t -> Box.t -> Box.t list
(** The contact-cut field for a contact box: as many cuts of
    [cut_size], spaced [cut_spacing], as fit inside the box minus
    [cut_overlap] on each side, centred; at least one (a contact
    smaller than cut + 2*overlap raises [Invalid_argument]). *)

val expand_box : Rules.t -> Box.t -> (Layer.t * Box.t) list
(** Full expansion of one contact: the metal and poly plates (the
    contact's own extent) plus the cut field. *)

val expand_cell : Rules.t -> Rsg_layout.Cell.t -> Rsg_layout.Cell.t
(** Expansion over a flattened cell, for mask output. *)
