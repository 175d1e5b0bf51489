(** The serve wire protocol: newline-delimited JSON over a
    Unix-domain socket.

    One request per line, one response line per request.  Requests
    carry a client-chosen [id] that the response echoes, so a client
    may pipeline: write any number of request lines before reading
    responses, and correlate by id (responses arrive in completion
    order, not submission order).

    Request object:
    {v
      {"id": "r1", "op": "generate", "spec": "m8 multiplier size=8",
       "deadline_ms": 2000, "drc": false, "cif": false, "out": "m8.cif"}
    v}
    - [op] — one of [generate], [drc], [erc], [compact], [place],
      [extract], [lint], [batch] (queued jobs); [sleep] (queued;
      load-bench plumbing); [stats], [health], [shutdown] (answered
      inline, never queued).
    - [spec] — op-dependent: a batch-manifest line for [generate]
      ([NAME KIND key=value ...], see {!Jobspec}); a builtin name or
      CIF path for [drc]/[erc]/[extract]/[place]; a builtin design ([mult]/[pla]) or
      design-file path for [lint]; a whole manifest (embedded
      newlines) for [batch]; milliseconds for [sleep].
    - [deadline_ms] — optional admission deadline: the job must
      {e start} within this many milliseconds of arrival or it is
      answered with a [deadline_expired] error instead of running
      (a non-positive value is expired on arrival).  Execution is
      never preempted: an admitted-and-started job always completes.
    - [drc] — for [generate]: also design-rule check the result
      (reported in the response, not a gate).
    - [cif] — for [generate]: include the layout as CIF text in the
      response.
    - [out] — for [generate]: write the layout to this server-side
      path.

    Success response: [{"id": ..., "ok": true, "result": {...}}].
    Error response:
    [{"id": ..., "ok": false, "error": "<code>", "message": "..."}]
    where [<code>] is one of the {!error} codes below.  A request
    whose id could not be parsed is answered with [id: null].  Every
    protocol violation — malformed JSON, oversized line, unknown op —
    produces an error {e response}; none of them terminates the
    daemon or the connection (except [too_large], which closes the
    connection after responding, since the stream may be
    arbitrarily far from the next frame boundary). *)

type error =
  | Bad_request of string  (** malformed JSON, missing field, unknown op *)
  | Too_large of { limit : int }  (** request line over the byte cap *)
  | Queue_full  (** admission queue at capacity — retry later *)
  | Deadline_expired  (** job did not start before its deadline *)
  | Job_failed of string  (** the job itself raised or reported failure *)
  | Draining  (** daemon is shutting down; no new jobs admitted *)

val error_code : error -> string
(** Stable wire code: [bad_request], [too_large], [queue_full],
    [deadline_expired], [job_failed], [draining]. *)

type op =
  | Generate of { spec : string; drc : bool; cif : bool; out : string option }
  | Drc of { spec : string }
  | Erc of { spec : string }
  | Compact of { spec : string }
  | Place of { spec : string; blocks : int; seed : int; iters : int;
               chains : int }
      (** annealed macro arrangement of [blocks] copies of the
          target; [blocks]/[iters]/[chains]/[seed] default to
          3/32/2/1.  A started job is never preempted, so the request
          is a [bad_request] unless [blocks] is in 1..16, [iters] in
          0..256 and [chains] in 1..4. *)
  | Extract of { spec : string }
  | Lint of { spec : string }
  | Batch of { spec : string }
  | Sleep of { ms : int }
  | Stats
  | Health
  | Shutdown

type request = {
  rq_id : Rsg_obs.Json.t;  (** echoed verbatim; [Null] when absent *)
  rq_op : op;
  rq_deadline_ms : int option;
}

val parse_request : string -> (request, Rsg_obs.Json.t * error) result
(** Parse one request line.  On error, returns the best-effort id
    (so the error response still correlates) with the error. *)

val ok_response : id:Rsg_obs.Json.t -> Rsg_obs.Json.t -> string
(** Serialise a success response line (no trailing newline). *)

val error_response : id:Rsg_obs.Json.t -> error -> string
