(** The one JSON value type and printer: every JSON document the
    system writes (the serve protocol's requests and replies, the
    CLI's [--json] reports and summaries, {!Obs.to_json}, the bench
    harness's [BENCH_E*.json]) is a {!t} printed by {!to_string}.

    The value model is RFC 8259's: objects, arrays, strings with
    escapes, integers and floats, booleans, null.  Parsing is a
    single recursive-descent pass over the byte string and never
    raises — a malformed request must become a structured
    [bad_request] response, not an exception unwinding a connection
    thread.  Printing escapes control characters, so CIF text, cell
    names and error messages embed safely. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed).
    Trailing non-whitespace bytes, bad escapes, unterminated
    structures and deep nesting (> 128 levels) are errors, described
    well enough to echo back to a client. *)

val to_string : t -> string
(** Compact single-line serialisation (never contains a newline, as
    the serve framing requires).  A float prints as the shortest of
    [%.15g], [%.16g] and [%.17g] that reads back to the same double;
    non-finite floats print as [null]. *)

(** Accessors return [None] on shape mismatch rather than raising. *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] on missing field or non-object). *)

val to_int_opt : t -> int option
(** Accepts [Int], and any [Float] that is exactly integral. *)

val to_list_opt : t -> t list option

val mem_string : string -> t -> string option
(** [mem_string k v] is [member k v >>= to_string_opt]. *)

val mem_int : string -> t -> int option

val mem_bool : string -> t -> bool option
