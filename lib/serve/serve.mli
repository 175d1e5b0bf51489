(** The resident generation service.

    [run] binds a Unix-domain socket and serves the {!Protocol} over
    it until asked to stop (SIGTERM/SIGINT when [handle_signals], or a
    [shutdown] request).  The layering:

    - One {e accept loop} (the calling thread) multiplexes the
      listener and an internal stop pipe through [select].
    - One {e connection thread} per client parses newline-delimited
      requests and answers control ops ([stats], [health], [shutdown])
      inline; protocol violations become structured error responses,
      never daemon or connection death.
    - Job ops go through {e admission} onto a bounded
      {!Rsg_par.Par.Pool} of worker domains: a full queue answers
      [queue_full] immediately (graceful saturation — latency is
      bounded by rejecting, not by queueing without limit), an expired
      deadline answers [deadline_expired] without running, and a
      draining daemon answers [draining].
    - [generate] requests are {e coalesced}: requests whose specs map
      to the same content-addressed store key while one is in flight
      attach to that computation instead of enqueueing their own; each
      attached request still gets its own response (its own [cif] /
      [out] rendering of the shared result, and the DRC summary only
      when it asked for [drc]).  One build serves them all: when any
      waiter asks for [drc] the summary is computed once, and a waiter
      that attached during a build without it gets one rebuild.
    - Results are served memory-first: a {!Mcache} under
      [mem_budget] bytes holds recent replies (CIF, box count, DRC
      summary once asked for), below it the {!Rsg_store.Store} on
      disk, below that cold generation (which populates both, saving
      the hierarchy).  A memory entry answers every later request
      for its key without running anything, unless the request asks
      for [drc] and the entry holds no summary; that request rebuilds
      the entry, checking a flat composed for the check alone and
      dropped after it.

    Shutdown is a drain: stop accepting, answer queued-and-running
    jobs, wake idle connections, join everything, remove the socket
    file.  In-flight jobs always complete; only {e new} work is
    refused.

    Responses are written under a per-connection mutex, so concurrent
    job completions interleave whole lines, never bytes.  Obs counters
    ([serve.request], [serve.coalesced], [serve.queue_full],
    [serve.deadline_expired], [serve.mem_hit], ...) are maintained;
    recording is enabled by [run] so they are visible via the [stats]
    op. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains executing jobs *)
  queue_depth : int;
      (** max jobs queued beyond the running ones before admission
          answers [queue_full]; [<= 0] means unbounded *)
  mem_budget : int;  (** in-memory cache budget, bytes *)
  store_dir : string option;  (** on-disk layout store; [None] = no store *)
  job_domains : int;
      (** domain fan-out {e inside} one job (DRC, extraction, batch);
          keep at 1 — cross-job parallelism comes from [workers] *)
  max_request : int;  (** byte cap on one request line *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT drain handlers (the CLI does; an
          in-process test server must not) *)
}

val default_config : socket_path:string -> config
(** 2 workers, queue depth 16, 64 MiB memory budget, no store, 1
    domain per job, 1 MiB request cap, no signal handlers. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve until stopped; returns after the drain completes.
    [on_ready] fires once the socket is listening — the hook an
    in-process harness uses to know it may connect.  Raises
    [Unix.Unix_error] if the socket cannot be bound. *)
