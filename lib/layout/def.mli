(** The native line-oriented layout format.

    Section 4.5: "Two layout file formats (CIF and DEF) are
    supported."  CIF is implemented faithfully in {!Cif}; DEF was an
    MIT-internal format whose specification is lost, so this is a
    plausible reconstruction: a simple hierarchical text format, one
    object per line, human-diffable, loss-free for everything the
    cell model holds.

    {v
    ; comment
    cell <name>
    b <layer> <xmin> <ymin> <xmax> <ymax>
    l <text> <x> <y>
    c <cellname> <x> <y> <orientation>
    end
    top <name>
    v} *)

type read_result = { db : Db.t; top : Cell.t option }

exception Parse_error of { line : int; message : string }
(** Malformed input: the 1-based line and what is wrong with it.  A
    token the message quotes is passed through [String.escaped] and cut
    to about 40 bytes. *)

val to_string : Cell.t -> string
(** One [cell] block per celltype of {!Flatten.postorder}
    (children first); a [top] line names the root.  Celltypes are told
    apart by identity, not by name: a later celltype whose name an
    earlier one already took is written, and called, as [name-2],
    [name-3], ... ({!Db.unique_names}), as {!Cif.to_string} does.
    Raises {!Flatten.Depth_exceeded} past 64 levels, as every pass
    does, and [Failure] for a cell or label name holding a blank. *)

val write_file : string -> Cell.t -> unit

val of_string : string -> read_result
(** Raises {!Parse_error} on malformed input, a second cell of the
    same name included.  Cells must be defined before they are
    called. *)

val read_file : string -> read_result
