(** A small dependency-free domain pool over OCaml 5 [Domain].

    [map] and [chunked_map] fan an array of independent tasks out
    across [domains] participants (the calling domain plus
    [domains - 1] resident helpers) with atomic self-scheduling: participants grab
    the next unclaimed chunk of indices until the array is exhausted,
    so uneven task costs balance automatically.  Results are written
    into their input slot, which makes the output — and anything
    derived from it in input order — independent of how the runtime
    schedules the domains.  [~domains:1] is the escape hatch: it runs
    the plain sequential [Array.map] on the calling domain, bit-identical
    by construction.

    {b The crew.}  Every fan-out runs on one process-wide crew of
    resident helper domains, built on {!Pool}'s worker loop.
    - The crew is created by the first fan-out that needs a helper,
      never at initialisation: OCaml 5.1's Thread library cannot start
      once a second domain exists, so a crew spawned at start-up would
      kill any program that links threads.
    - It grows to the largest [domains] any fan-out has asked for and
      never shrinks; a fan-out at [d] uses [d - 1] helpers and never
      more.  Helpers live until the process exits.
    - One fan-out holds the crew at a time.  A fan-out nested in a
      task, or submitted from another domain while the crew is busy,
      runs all its tasks inline on its caller.

    A resident helper has two costs a per-call spawn did not.
    [Unix.fork] fails once one exists ("Unix.fork may not be called
    while other domains were created"); nothing in this repository
    forks, and [Sys.command] still works.  And an idle helper still
    joins every stop-the-world minor collection, so sequential phases
    burn some extra CPU once a crew exists.

    Tasks must be independent: [f] must not touch shared mutable state.
    While {!Rsg_obs.Obs} records, a fan-out that holds the crew opens
    one [par.domain<k>] node per participant beneath the caller's
    [par.map] / [par.chunked_map] span; participant [k] is entered
    there once, for its busy time, and the spans its tasks open land
    beneath it, so the caller's span tree shows every task and each
    domain's utilisation.  The tasks of an inline fan-out record
    directly beneath its [par.map] / [par.chunked_map] span.

    If a task raises, every participant still finishes its share and
    then one of the raised exceptions is re-raised on the caller; the
    helpers survive it. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_domains : unit -> int
(** Pool size used when [?domains] is omitted: the [RSG_DOMAINS]
    environment variable when set to a positive integer, otherwise
    {!recommended}.  CI sets [RSG_DOMAINS] to run the whole test suite
    at fixed pool sizes. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] is [Array.map f xs] computed on [domains]
    domains.  Chunk size is picked for roughly uniform per-element
    cost.  [domains] defaults to {!default_domains}; it is clamped to
    [1 .. length xs]. *)

val chunked_map : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!map} with an explicit scheduling granularity.  [chunk]
    (default 1) is the number of consecutive elements claimed per
    atomic fetch — use 1 when per-element cost is large or very
    uneven (e.g. one DRC rule per element). *)

(** A resident worker pool for long-running processes.

    A [Pool.t] keeps [domains] worker domains alive, feeding them tasks
    off one locked queue; the crew behind {!map} is made of one-worker
    pools.  [max_pending] bounds the queue: a full
    queue makes {!Pool.try_submit} return [false] instead of letting
    latency grow without bound, which is exactly the admission-control
    surface a service needs for graceful saturation.

    Tasks are [unit -> unit] closures that must not raise for control
    flow (a raised exception is swallowed so it cannot take the worker
    down; report errors through the closure's own channel).  Spans a
    task opens are recorded in its worker domain's own {!Rsg_obs.Obs}
    tree; only a fan-out's shares record under the submitter's
    [par.domain<k>] nodes. *)
module Pool : sig
  type t

  val create : ?max_pending:int -> domains:int -> unit -> t
  (** Spawn [max 1 domains] resident workers.  [max_pending] [<= 0]
      (the default) leaves the queue unbounded. *)

  val size : t -> int
  (** Number of worker domains. *)

  val try_submit : t -> (unit -> unit) -> bool
  (** Enqueue a task; [false] when the queue is at [max_pending] or
      the pool is shutting down — the task was {e not} accepted. *)

  val pending : t -> int
  (** Tasks queued but not yet started. *)

  val shutdown : t -> unit
  (** Drain: workers finish every queued task, then exit and are
      joined.  Subsequent {!try_submit}s return [false].  Idempotent. *)
end
