(** The cell definition table.

    Maps cell names to definitions.  The thesis implements this (like
    the interface table and environment frames) with hash tables for
    fast lookup during design-file execution, where variables routinely
    resolve to cell names (section 4.5, Table 4.1). *)

type t

exception Duplicate_cell of string
(** A different cell with this name is already registered. *)

val create : ?size:int -> unit -> t

val add : t -> Cell.t -> unit
(** Register a cell.  Raises {!Duplicate_cell} if a different cell
    with the same name is already present (re-adding the same cell is
    a no-op). *)

val find : t -> string -> Cell.t option

val find_exn : t -> string -> Cell.t
(** Raises [Not_found]. *)

val mem : t -> string -> bool

val names : t -> string list
(** Sorted cell names. *)

val cells : t -> Cell.t list
(** Cells sorted by name. *)

val length : t -> int

val fresh_name : t -> string -> string
(** [fresh_name db base] returns [base] if unused, otherwise
    [base-2], [base-3], ... *)

val unique_names : Cell.t list -> string array
(** One name per cell of a list of physically distinct cells, in list
    order: a cell keeps its own name unless an earlier cell of the list
    took it, and then gets the {!fresh_name} of it ([name-2],
    [name-3], ...) among the names given so far.  The CIF and DEF
    writers name the celltypes they write this way. *)
