(** The definitions the CLI and the serve daemon share: manifest-line
    job specifications (for [rsg batch], the daemon's [generate] and
    [batch] ops), the builtin-or-CIF targets of [drc], [erc],
    [extract], [compact] and [place], and the builtin lint designs.

    A job spec is one line of the batch-manifest grammar:
    {v NAME KIND key=value ... v}
    with kinds [multiplier] ([size=N]), [pla] ([table=FILE] or
    [rows=IN:OUT,...], [fold=true]), [rom] ([data=FILE] or
    [words=W,W,...], [word-bits=N]), [decoder] ([n=N]) and [ram]
    ([words=N bits=N]); [#] starts a comment and blank lines are
    skipped.  Parsing yields a {!Rsg_store.Batch.job} — name, kind,
    content-addressed store key, human label and a generator thunk —
    so the CLI and the daemon agree byte-for-byte on what a spec means
    and on the cache key it hits.

    Parsing and target resolution are [result]-valued: a daemon must
    turn a bad spec into a structured error response, never an [exit].
    The generator thunks themselves may still raise (generation bugs
    are {!Protocol.Job_failed}, not bad requests); only {e parsing} is
    total. *)

val parse_line : int -> string -> (Rsg_store.Batch.job option, string) result
(** Parse one manifest line (1-based [lineno] for error messages).
    [Ok None] for blank or comment-only lines.  File references
    ([table=], [data=]) are read eagerly, a PLA's truth table is
    built and a ROM's word count and words are checked, so unreadable
    files, bad rows and words that do not fit are parse errors, not
    generation-time surprises. *)

val parse_manifest : string -> (Rsg_store.Batch.job list, string) result
(** Parse a whole manifest (any number of lines).  Rejects an empty
    job list and duplicate job names, as [rsg batch] does. *)

val top_cell_of_cif : string -> Rsg_layout.Cell.t
(** The top cell of a CIF file: the single cell its top-level call
    places (or the call's own cell when it places several), else the
    one symbol no other symbol instantiates.  Raises [Failure] when
    neither exists, and whatever {!Rsg_layout.Cif.read_file} raises. *)

val target_cell : string -> (Rsg_layout.Cell.t, string) result
(** Resolve a target: a builtin generator name ([pla] (a fixed 3-input
    table), [ram] (8x4), [multiplier] (8x8), [decoder] (3 bits)) or a
    path to a CIF file whose top cell ({!top_cell_of_cif}) is wanted.
    Anything else is [Error "T is neither a file nor a builtin (pla,
    ram, multiplier, decoder)"]. *)

val mult_lint_config : size:int -> Rsg_lint.Design_lint.config
(** Lint environment of the builtin multiplier design at [size] x
    [size]: its sample library's cells and its parameter file. *)

val pla_lint_config :
  ninputs:int -> noutputs:int -> nterms:int -> Rsg_lint.Design_lint.config
(** Lint environment of the builtin PLA design, with its host-installed
    [lits] and [outs] tables as globals. *)

val lint_builtin :
  string -> (string * Rsg_lint.Design_lint.config * string) option
(** [lint_builtin "mult"] and [lint_builtin "pla"] are the builtin
    designs' file label, lint environment (an 8x8 multiplier; a PLA
    of 3 inputs, 2 outputs and 4 terms) and design text; [None] for
    any other name. *)
