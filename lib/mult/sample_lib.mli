(** The multiplier sample layout (Figure 5.5, Appendix C).

    Provides the leaf cells of the pipelined-multiplier family — the
    basic adder cell, its personalisation masks (cell type, clock
    phase, carry interface), the three register cells and the register
    direction masks — together with assembly cells that define every
    interface {e by example}: each assembly places two instances with
    the desired relative position and drops a numeric label in their
    overlap, exactly as a designer would in the graphical editor.

    Geometry is synthetic (the real NMOS masks of Appendix E are not
    reproducible) but structurally faithful: masks sit {e inside} the
    bounding box of the cell they encode, demonstrating the
    overlap-friendly placement that bounding-box abutment cannot
    express (section 2.3). *)

open Rsg_core

(** Cell names, as used by the parameter file of Appendix C. *)

val basic_cell : string   (** "cell" — AND gate + full adder + outputs *)

val type1 : string        (** type I personalisation mask *)

val type2 : string

val clock1 : string

val clock2 : string

val car1 : string         (** carry-interface masks (fig 5.3) *)

val car2 : string

val topreg : string       (** "tr" *)

val bottomreg : string    (** "br" *)

val rightreg : string     (** "rr" *)

val dir_masks : string list
(** goboth, goleft, goright, gosleft, gosright. *)

(** Interface index numbers (see the parameter file). *)

val h_index : int         (** cell-to-cell horizontal, pitch 48 *)

val v_index : int         (** cell-to-cell vertical, pitch 64 *)

val cell_width : int

val cell_height : int

val assemblies : unit -> Rsg_layout.Cell.t list
(** Fresh assembly cells (new cell/instance structures each call). *)

val build : unit -> Sample.t * Sample.declaration list
(** Extract the sample: every leaf cell registered, every interface
    declared from its labelled example. *)

val param_file : xsize:int -> ysize:int -> string
(** The Appendix C parameter file personalising the Appendix B design
    file onto this sample, for an xsize-by-ysize multiplier. *)
