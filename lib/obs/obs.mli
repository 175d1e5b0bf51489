(** Lightweight observability: counters, wall-clock timers and a span
    tree, shared process-wide.

    The hot paths of the generator (graph expansion, constraint
    generation, Bellman-Ford, the PLA and multiplier builders) call
    {!span} and {!count}; when recording is disabled — the default —
    both are cheap no-ops, so instrumented code pays one branch.  When
    enabled, spans nest into a tree keyed by name (re-entering a name
    under the same parent accumulates rather than growing the tree, so
    a loop of ten thousand expansions stays one node) and counters
    accumulate process-wide totals.

    Typical use, as in [bin/rsg_cli.ml] and [bench/main.ml]:

    {[
      Obs.enable ();
      ... run the generator ...
      Obs.dump ()            (* human-readable tree to stderr *)
      (* or *) print_string (Obs.to_json ())
    ]} *)

val enable : unit -> unit
(** Start recording (and implicitly {!reset} nothing — prior data is
    kept so enable/disable can bracket phases). *)

val disable : unit -> unit

val is_enabled : unit -> bool
(** Recording is on and the calling domain is not inside {!suspend}. *)

val suspend : (unit -> 'a) -> 'a
(** [suspend f] runs [f ()] with recording off on the calling domain,
    on every {!Rsg_par.Par} worker while it runs a fan-out submitted
    from [f], and on every domain spawned while [f] runs; other
    domains keep recording.  Work that fans out from a domain other
    than the span tree's owner runs under it, because the span tree
    must only be touched from one domain. *)

val suspended : unit -> bool
(** The calling domain is inside {!suspend}. *)

val with_suspended : bool -> (unit -> 'a) -> 'a
(** [with_suspended s f] runs [f ()] with the calling domain's
    suspension set to [s], restoring it afterwards.  A resident worker
    runs each job under its submitter's {!suspended}, whatever state
    the worker was created in. *)

val reset : unit -> unit
(** Drop all recorded spans and counters; recording state unchanged. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the named counter.  No-op when disabled.
    Unlike spans, counters are domain-safe: the table is guarded by a
    lock, so pool workers (lib/par, the serve job pool) may count
    directly instead of handing deltas back to the coordinator. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] under [name] in the span tree rooted at
    the innermost enclosing span.  Time is recorded even when [f]
    raises.  When disabled, equivalent to [f ()]. *)

val record : ?count:int -> string -> float -> unit
(** [record name seconds] adds an externally-timed span under the
    innermost enclosing span, as if [span name] had run for [seconds]
    ([count] entries, default 1).  For work timed off the main thread:
    the span tree is process-global mutable state and must only be
    touched from one domain, so parallel workers time themselves and
    the coordinator records the measurements after joining.  No-op
    when disabled. *)

val counters : unit -> (string * int) list
(** Recorded counters, sorted by name. *)

type span_node = {
  sp_name : string;
  sp_total : float;  (** accumulated wall-clock seconds *)
  sp_count : int;    (** number of times entered *)
  sp_children : span_node list;  (** in first-entry order *)
}

val spans : unit -> span_node list
(** Top-level spans, in first-entry order. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable report: the span tree with per-phase seconds,
    percentages of the enclosing span and entry counts, then the
    counter table. *)

val dump : ?oc:out_channel -> unit -> unit
(** Print {!pp} to [oc] (default [stderr]). *)

val to_json : unit -> string
(** The same data as a JSON object
    [{"spans": [...], "counters": {...}}]. *)
