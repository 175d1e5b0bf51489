(** The RAM sample layout.

    Leaf cells for a static RAM — the six-transistor bit cell, the
    word-line driver, the bit-line precharge and the sense amplifier —
    plus the by-example assemblies for their interfaces, including the
    interface between the word-line driver and the {e decoder's}
    connect-ao driver cell ({!Rsg_pla.Pla_cells}), which is what lets
    a generated decoder macrocell dock onto the RAM array through
    interface inheritance. *)

open Rsg_core

val bitcell : string

val wldrv : string     (** word-line driver, left of each row *)

val precharge : string (** top of each column *)

val senseamp : string  (** bottom of each column *)

val build : unit -> Sample.t * Sample.declaration list
(** RAM cells plus the PLA/decoder cells in one sample (the decoder
    interface needs both). *)
