(** Parallel batch runner over a shared layout store.

    Takes a manifest of independent generation jobs — each a name, a
    cache key and a closure that produces the layout from scratch —
    and fans them across the {!Rsg_par.Par} domain pool.  Each job
    first consults the store: a verified hit loads the stored
    hierarchy, a miss (or corrupt entry) runs the closure and installs
    the hierarchy.  Either way the box count comes from the prototype
    cache's census; no flattened geometry is built or kept.  Results
    come back in manifest order regardless of scheduling, so summaries
    and outputs are bit-identical for any domain count.

    Observability: each job runs in an {!Rsg_obs.Obs} span
    [batch.<name>] and bumps one of the counters [batch.hit],
    [batch.miss], [batch.corrupt] and [batch.failed]. *)

open Rsg_layout

type job = {
  j_name : string;  (** unique within the manifest; orders output *)
  j_kind : string;  (** generator family, informational *)
  j_key : Store.key;
  j_label : string;  (** label stored in the cache entry *)
  j_gen : unit -> Cell.t;  (** cold path: generate from scratch *)
}

type outcome =
  | Hit  (** loaded from the store *)
  | Generated  (** cold-generated (and saved when a store is given) *)
  | Regenerated of Codec.error
      (** entry was corrupt; regenerated and re-saved *)
  | Failed of string  (** [j_gen] raised *)

type result = {
  r_job : job;
  r_outcome : outcome;
  r_seconds : float;  (** wall-clock for this job, timed in-worker *)
  r_cell : Cell.t option;  (** [None] iff [Failed] *)
  r_boxes : int;  (** flattened box count, 0 on failure *)
}

val run : ?domains:int -> ?store:Store.t -> job list -> result list
(** Execute the manifest.  [domains] defaults to
    [Par.default_domains ()]; without [store] every job runs cold and
    nothing is saved.  Results are in manifest order. *)

val outcome_name : outcome -> string
(** [hit], [generated], [regenerated] or [failed]. *)

val to_json : result list -> Rsg_obs.Json.t
(** The batch summary of [rsg batch --json] and the serve daemon's
    [batch] op:
    [{"jobs":[{"name":..,"kind":..,"outcome":..,"boxes":n,"key":..},..],
      "total":n,"hits":n,"failed":n}], jobs in manifest order.  It holds
    no timings, so it is byte-stable across runs and domain counts. *)
