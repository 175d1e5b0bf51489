(** Native multiplier layout generator (Chapter 5).

    Builds the complete pipelined-multiplier layout directly against
    the core API — the same structure the Appendix B design file
    describes: an (xsize)-by-(ysize+1) personalised array of basic
    cells (carry-save rows plus the carry-propagate row), skewing /
    deskewing register stacks on three sides, connected through
    inherited interfaces.  Used on its own and as the reference that
    the interpreted design file must reproduce exactly (experiment
    E17). *)

open Rsg_layout
open Rsg_core

type t = {
  whole : Cell.t;       (** the complete multiplier ("thewholething") *)
  array_cell : Cell.t;  (** the inner personalised array *)
  sample : Sample.t;    (** sample used (cells + interface table) *)
}

val generate : ?sample:Sample.t -> xsize:int -> ysize:int -> unit -> t
(** [xsize] = multiplier bits (columns), [ysize] = multiplicand bits
    (carry-save rows); both must be >= 2.  A fresh {!Sample_lib}
    sample is built unless one is supplied.  The generated cells are
    registered in the sample's cell table under fresh names. *)

val expected_mask_counts : xsize:int -> ysize:int -> (string * int) list
(** How many instances of each mask/register cell the generator is
    specified to emit, derived from the personalisation rules —
    an independent accounting the tests check both generators
    against. *)
