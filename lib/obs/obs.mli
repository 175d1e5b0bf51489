(** Lightweight observability: counters, wall-clock timers and span
    trees.

    The hot paths of the generator (graph expansion, constraint
    generation, Bellman-Ford, the PLA and multiplier builders) call
    {!span} and {!count}; when recording is disabled — the default —
    both are cheap no-ops, so instrumented code pays one branch.  When
    enabled, spans nest into a tree keyed by name (re-entering a name
    under the same parent accumulates rather than growing the tree, so
    a loop of ten thousand expansions stays one node) and counters
    accumulate process-wide totals.

    {b Domains.}  Each domain records spans into its own tree, so
    recording takes no lock and spans opened on different domains
    never interleave.  The systhreads of one domain share its tree and
    its stack of open spans, so spans opened by two threads of one
    domain at once can nest into each other.  A {!Rsg_par.Par}
    fan-out records into the submitter's tree: each participant [k]
    records its share under its own [par.domain<k>] node ({!branch},
    {!within}) beneath the submitter's innermost span.  The readers ({!spans}, {!pp}, {!to_json}) and {!reset}
    work on the calling domain's tree, which therefore covers every
    fan-out it submitted.  Spans opened on another domain outside any
    fan-out (the serve daemon's job workers, a raw [Domain.spawn])
    stay in that domain's own tree, which nothing reads.

    Counters are one process-wide table guarded by a lock: a count
    made on any domain, in a fan-out or not, is kept.

    Typical use, as in [bin/rsg_cli.ml] and [bench/main.ml]:

    {[
      Obs.enable ();
      ... run the generator ...
      Obs.dump ()            (* human-readable tree to stderr *)
      (* or *) print_string (Json.to_string (Obs.to_json ()))
    ]} *)

val enable : unit -> unit
(** Start recording (and implicitly {!reset} nothing — prior data is
    kept so enable/disable can bracket phases).  Recording is on or
    off for every domain at once. *)

val disable : unit -> unit

val is_enabled : unit -> bool
(** Recording is on. *)

val reset : unit -> unit
(** Drop the calling domain's spans and every counter; recording state
    unchanged. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the named process-wide counter, from any
    domain.  No-op when disabled. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] under [name] beneath the calling
    domain's innermost open span.  Time is recorded even when [f]
    raises.  When disabled, equivalent to [f ()]. *)

type branch
(** A span node handed from one domain to another. *)

val branch : string -> branch
(** [branch name] is the node [name] beneath the calling domain's
    innermost open span, created if absent; it is not entered. *)

val within : branch -> (unit -> 'a) -> 'a
(** [within b f] runs [f ()] on the calling domain with [b] as its
    innermost open span, entering [b] once and adding the elapsed time
    to it, so spans [f] opens land beneath [b] in the tree [b] was
    created in.  Only one domain at a time may be within [b], and the
    tree's own domain must not read it meanwhile: a fan-out creates one
    branch per participant before it starts, and the submitter reads
    its tree only after the join. *)

val counters : unit -> (string * int) list
(** Recorded counters, sorted by name. *)

type span_node = {
  sp_name : string;
  sp_total : float;  (** accumulated wall-clock seconds *)
  sp_count : int;    (** number of times entered *)
  sp_children : span_node list;  (** in first-entry order *)
}

val spans : unit -> span_node list
(** The calling domain's top-level spans, in first-entry order. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable report: the span tree with per-phase seconds,
    percentages of the enclosing span and entry counts, then the
    counter table. *)

val dump : ?oc:out_channel -> unit -> unit
(** Print {!pp} to [oc] (default [stderr]). *)

val to_json : unit -> Json.t
(** The same data as a JSON object
    [{"spans": [...], "counters": {...}}]; each span's [seconds] is
    rounded to the microsecond. *)
