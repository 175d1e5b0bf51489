(** PLA personality: truth tables in the HPLA sense — a number of
    inputs, outputs and product terms, where each term selects
    true/complement/don't-care per input and drives a subset of the
    outputs. *)

type literal = T | F | X
(** input appears true, complemented, or not at all in a term *)

type term = { lits : literal array; outs : bool array }

type t = { n_inputs : int; n_outputs : int; terms : term list }

exception Malformed of string

val make : n_inputs:int -> n_outputs:int -> term list -> t
(** Validates dimensions; raises {!Malformed}. *)

val of_strings : (string * string) list -> t
(** Terms as [("10-", "01")] pairs: '1' true, '0' complement, '-'
    don't care; outputs '1'/'0'.  All rows must agree in width. *)

val to_strings : t -> (string * string) list

val eval_int : t -> int -> int
(** Inputs/outputs packed little-endian. *)

val n_crosspoints : t -> int * int
(** Programmed crosspoints in the (AND, OR) planes. *)

val equal : t -> t -> bool
(** Same dimensions and the same function on every input vector
    (decided by exhaustive evaluation — PLAs are small). *)
