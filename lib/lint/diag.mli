(** The shared diagnostic core of the static analyzer.

    The lint front ends — {!Design_lint} over the design-file AST and
    {!Graph_lint} over connectivity graphs — and the electrical rule
    checker ([lib/erc]) emit the same typed diagnostic record: a
    stable code ([L1xx] for design-file findings, [L2xx] for graph
    findings, [E3xx] for electrical findings), a severity, an optional
    source location, a message and a cross-reference to the thesis
    section (or, for ERC, the verification flow) that defines the
    violated rule.  Reports render as text and JSON
    following the [lib/drc] violation-report pattern, so tooling can
    consume either checker uniformly. *)

type severity = Error | Warning | Info

type span = { s_line : int; s_col : int; s_end_line : int; s_end_col : int }
(** A source region: 1-based lines, 0-based columns, end exclusive.
    [s_line = s_end_line && s_col = s_end_col] is a zero-width span (a
    point, e.g. an insertion position). *)

type t = {
  code : string;          (** stable diagnostic code, e.g. ["L101"] *)
  severity : severity;
  file : string option;
  line : int option;      (** 1-based source line, when known *)
  span : span option;     (** precise source region, when known *)
  message : string;
  section : string;       (** thesis section defining the rule *)
}

type report = {
  r_source : string;   (** what was analyzed: file name or description *)
  r_checked : int;     (** items examined (forms or edges) *)
  r_diags : t list;    (** sorted: by line, then code, then message *)
}

val section_of_code : string -> string

val make :
  ?severity:severity -> ?file:string -> ?line:int -> ?span:span -> string ->
  ('a, Format.formatter, unit, t) format4 -> 'a
(** [make ?file ?line code fmt ...] builds a diagnostic; severity and
    section come from the code table unless [severity] overrides it
    (e.g. L101 downgrades to [Warning] when the parameter environment
    is unknown, since the name may be supplied by a parameter file).
    When [span] is given and [line] is not, the line is taken from the
    span's start. *)

val excerpt : text:string -> span -> string
(** Render the cited region of [text] with caret underlining, the way
    compilers cite source: each line prefixed with its number, the
    spanned columns underlined with [^].  Edge cases are normalised
    rather than raised: a zero-width span renders a single caret at
    the position, a span whose start lies past the end of the text
    renders a [<past end of input>] marker, columns past the end of a
    line clamp to the line, inverted spans collapse to their start,
    and multi-line spans render at most four lines with a
    [... n more lines] tail.  Used by [rsg lint]'s text output and the
    ERC report printer. *)

val of_exn : ?file:string -> exn -> t option
(** Convert the typed failures of the lint-adjacent paths into
    diagnostics: {!Rsg_lang.Sexp.Parse_error} /
    {!Rsg_lang.Parser.Syntax_error} (L100),
    {!Rsg_layout.Db.Duplicate_cell} (L109),
    {!Rsg_layout.Cell.Instance_cycle} (L110) and
    {!Rsg_core.Interface_table.Conflict} (L207).  [None] for any other
    exception. *)

val compare_diag : t -> t -> int
(** The report order: by line (unknown last), then code, then
    message. *)

val report : source:string -> checked:int -> t list -> report
(** Sort diagnostics deterministically and count them under Obs. *)

val errors : report -> t list

val warnings : report -> t list

val clean : report -> bool
(** No [Error]-severity diagnostics.  Warnings and notes (e.g. L203 on
    every pitched regular structure) do not make a design unclean. *)

val codes : report -> string list
(** Distinct diagnostic codes present, sorted. *)

val pp : Format.formatter -> t -> unit
(** One line: [file:line: severity CODE message (section)]. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Rsg_obs.Json.t
(** Machine-readable mirror of {!pp_report}:
    [{"source":...,"checked":n,"errors":n,"warnings":n,"infos":n,
      "diagnostics":[{"code":...,"severity":...,"file":...,"line":...,
      "span":[line,col,end_line,end_col],"message":...,"section":...},
      ...]}], with [null] for an absent file, line or span. *)
