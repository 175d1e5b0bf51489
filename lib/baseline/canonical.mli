(** The canonical-architecture compiler baseline (Figure 1.2).

    Models a Macpitts-like silicon compiler: every function is mapped
    onto one canonical architecture — a bit-sliced datapath of
    general-purpose slices (register + ALU + bus routing in every
    slice, used or not) sequenced by a control array — rather than an
    architecture matched to the function.  The layout is generated
    with the same RSG core (slices tiled by interface, control PLA
    from {!Rsg_pla.Gen}), so the area numbers are measured from real
    generated geometry, not estimated.

    For an m-by-n multiply the datapath holds three operand/result
    words and performs the {!Shift_add} sequence in n+1 control steps
    — the architecture mismatch the thesis blames for Macpitts-era
    compilers needing about five times the area of a matched
    design. *)

open Rsg_layout

type t = {
  datapath : Cell.t;
  control : Cell.t;
  slices : int;
  area : int;           (** bounding-box area of datapath + control *)
  cycles_per_multiply : int;
}

val generate : m:int -> n:int -> t
(** Compile an m-by-n multiply onto the canonical architecture. *)
