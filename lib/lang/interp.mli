(** The design-file interpreter (Chapter 4).

    Evaluates a design file against a global environment set up from a
    parameter file, a cell definition table initialised from a sample
    layout, and the interface table.  The variable scoping of Table 4.1
    applies: procedure environment, then global environment, then the
    cell table; values that resolve to symbols (from the parameter
    file) are re-resolved through the same chain, which is how
    [corecell = basiccell] in a parameter file retargets a design file
    onto a different sample layout. *)

open Rsg_layout
open Rsg_core

exception Runtime_error of string

type state = {
  global : Value.env;
  procs : (string, Ast.proc) Hashtbl.t;
  cells : Db.t;                     (** the cell definition table *)
  table : Interface_table.t;        (** the interface table *)
  mutable created : Cell.t list;    (** cells built by [mk_cell], newest first *)
  out : Format.formatter;           (** where [print] writes *)
  read_fn : unit -> int;            (** supplies values for [read] *)
  mutable depth : int;              (** procedure call depth (guarded) *)
  file : string option;             (** source name for error locations *)
  mutable cur_line : int;           (** line of the innermost {!Ast.At} seen *)
}

val create :
  ?cells:Db.t ->
  ?table:Interface_table.t ->
  ?out:Format.formatter ->
  ?read_fn:(unit -> int) ->
  ?file:string ->
  unit -> state
(** Fresh interpreter.  [cells]/[table] default to empty; pass a
    sample's [db]/[table] to generate against it.  [read_fn] defaults
    to a function that raises.  When [file] is given, top-level
    runtime errors are re-raised with a [file:line:] prefix taken from
    the innermost {!Ast.At} node evaluated before the failure. *)

val of_sample : ?out:Format.formatter -> ?file:string -> Sample.t -> state
(** Interpreter initialised from an extracted sample layout. *)

val load_params : state -> Param.t -> unit
(** Install parameter-file bindings in the global environment. *)

val define_global : state -> string -> Value.t -> unit
(** Bind one global directly — the host-side half of delayed binding:
    e.g. a PLA's encoding table is installed as a two-index array just
    before the design file runs (HPLA's "postponing its encoding",
    section 1.2.3). *)

val array2_of_matrix : bool array array -> Value.t
(** Pack a boolean matrix as a two-index array value,
    [a.row.col] 1-based, plus ["rows"]/["cols"] are NOT included —
    pass dimensions as separate parameters. *)

val run_string : state -> string -> Value.t

val last_created : state -> Cell.t option
(** Most recent [mk_cell] result — the generated layout. *)
