(** Weinberger arrays (section 1.2.1).

    The control-path structure Macpitts compiled into: a regular NOR
    array in which gates are columns, signals are rows, and a
    programming transistor at a crossing makes the signal an input of
    the gate.  Another of the "specific architectures" the thesis
    says first-generation module generators hard-coded — and that the
    RSG expresses as one more connectivity procedure over a small
    sample.

    A program is a list of NOR gates over signals; signal ids
    [0 .. n_primary-1] are the primary inputs and [n_primary + k] is
    the output of gate [k].  Gates may only read earlier signals
    (combinational, no feedback).

    Layout verification is extraction-based like the PLA's: crossing
    and output-tap masks are read back from the generated geometry
    and must reconstruct the program. *)

open Rsg_core

type program = {
  n_primary : int;
  gates : int list array;  (** gate k's input signal ids *)
}

exception Bad_program of string

val validate : program -> unit
(** Checks signal ranges and the forward-reference rule. *)

val n_signals : program -> int

val eval : program -> bool array -> bool array
(** NOR-evaluate; returns all signal values (primaries then gate
    outputs). *)

val inverter : program
(** The one-gate example: out = NOT in. *)

val of_truth_table : Truth_table.t -> program * int array
(** Compile two-level AND/OR logic to NOR gates (the double-rail
    trick: one inverter per input, one NOR per product term over the
    appropriately-polarised signals, and a NOR-NOR pair per output).
    Returns the program and the signal id of each output.  The
    compiled program NOR-evaluates to exactly the truth table —
    Macpitts's control path as the thesis describes it. *)

val eval_outputs : program -> int array -> bool array -> bool array
(** Evaluate and select the given output signals. *)

type t = {
  cell : Rsg_layout.Cell.t;
  prog : program;
  sample : Sample.t;
}

val generate : ?sample:Sample.t -> ?name:string -> program -> t

val verify : t -> bool
(** The program read back from the layout's crossing and tap masks
    is the original exactly, and the layout's row/column counts
    match. *)
