(** CIF 2.0 subset writer and reader.

    CIF was one of the two layout file formats the RSG supported
    (section 4.5).  We emit hierarchical symbol definitions ([DS]/[DF])
    with the common [9 name;] and [94 label x y;] extensions, boxes,
    layer selections and calls with [MX], [R] and [T] transformations.

    Coordinates are written doubled (one lambda = two CIF units) so
    that box centers — which CIF requires — stay exact integers.  The
    reader reverses the doubling and accepts only geometry on that
    grid. *)

type read_result = {
  db : Db.t;               (** every symbol read, by name *)
  top : Cell.t option;     (** synthetic "(top)" cell holding top-level calls *)
}

exception Parse_error of { line : int; message : string }
(** Malformed input: the 1-based line of the offending token and what
    is wrong with it.  A token the message quotes is passed through
    [String.escaped] and cut to about 40 bytes, so hostile bytes never
    reach a terminal. *)

val to_string : Cell.t -> string
(** Serialise [cell] and every celltype it references, one symbol per
    celltype of {!Flatten.postorder} (children first), ending with a
    top-level call of [cell].  Celltypes are told apart by identity,
    not by name: a later celltype whose name an earlier one already
    took is written as [name-2], [name-3], ... ({!Db.unique_names}), so
    same-named celltypes of different content all survive.  Raises
    {!Flatten.Depth_exceeded} past 64 levels, as every pass does. *)

val write_file : string -> Cell.t -> unit

val of_string : string -> read_result
(** Parse a CIF stream produced by {!to_string} (or a compatible
    subset).  Raises {!Parse_error} on malformed input, a second
    symbol of the same name included. *)

val read_file : string -> read_result

val roundtrip_equal : Cell.t -> Cell.t -> bool
(** Structural equality on the flattened geometry of two cells — the
    property the writer/reader pair preserves. *)
