(** Traffic-replay load generator for the serve daemon.

    [run] opens [concurrency] connections (one thread each) and has
    every thread replay the request list [repeat] times, synchronously
    — send, await, time — starting from a thread-specific offset so
    concurrent threads hit a mix of keys rather than marching in
    lockstep.  Per-request latencies are collected and merged; the
    result carries the sorted latency array so callers can report any
    percentile, plus a per-error-code breakdown (a [queue_full]
    rejection is an answered request with bounded latency — exactly
    what the admission design promises under saturation — so it counts
    as an error {e outcome}, not a transport failure). *)

type result = {
  l_sent : int;
  l_ok : int;
  l_errors : (string * int) list;  (** error code -> count, sorted *)
  l_latencies : float array;  (** seconds, sorted ascending, one per response *)
  l_seconds : float;  (** wall clock for the whole replay *)
}

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [0..100]: nearest-rank on a
    sorted array; [0.] when empty. *)

val run :
  socket:string ->
  concurrency:int ->
  repeat:int ->
  Rsg_obs.Json.t list ->
  (result, string) Stdlib.result
(** Replay; [Error] only on connect failure.  Requests are rewritten
    with fresh unique [id]s, so callers may pass the same template
    list to every run. *)
