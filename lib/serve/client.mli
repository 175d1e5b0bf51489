(** Client side of the serve protocol: connect, frame, correlate.

    A connection is synchronous per call but supports pipelining
    explicitly: {!pipeline} writes every request before reading any
    response, which is what lets one client exercise coalescing and
    admission behaviour deterministically (the daemon sees the whole
    burst before the first job finishes).  Responses are returned in
    arrival order — the daemon answers in {e completion} order, so
    callers correlate by the [id] field, not by position. *)

type t

val connect : ?attempts:int -> string -> (t, string) result
(** Connect to a daemon socket.  [attempts] (default 1) > 1 retries
    with a short backoff — for harnesses that start the daemon and
    connect without a ready-handshake. *)

val close : t -> unit

val send : t -> Rsg_obs.Json.t -> (unit, string) result
(** Write one request line. *)

val send_line : t -> string -> (unit, string) result
(** Write one raw line verbatim (a newline is appended).  For harness
    use: lets scripts exercise the daemon's handling of malformed
    frames through the normal client. *)

val recv : t -> (Rsg_obs.Json.t, string) result
(** Read one response line (blocking).  [Error] on EOF or a response
    the daemon somehow framed unparseably. *)

val request : t -> Rsg_obs.Json.t -> (Rsg_obs.Json.t, string) result
(** [send] then [recv]: the simple synchronous call. *)

val pipeline : t -> Rsg_obs.Json.t list -> (Rsg_obs.Json.t list, string) result
(** Write all requests, then read exactly as many responses, in
    arrival order. *)

val response_ok : Rsg_obs.Json.t -> bool
(** Whether a response has ["ok"] [true]. *)
