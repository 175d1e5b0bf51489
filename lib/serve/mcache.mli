(** Hot in-memory cache of generate replies, for the serve daemon's
    warm path.

    {!Rsg_store.Store.find} verifies and decodes an entry from disk on
    every hit — exactly right for a one-shot CLI, wasteful for a
    resident daemon answering the same key hundreds of times.  This
    layer keeps what a recent [generate] reply needs — its CIF text,
    its box count and, once a request asked for one, its DRC summary
    — and nothing else: no cell and no flattened geometry, which a
    later request recomposes from the store's hierarchy if it must.
    Each entry is charged its CIF length plus one fixed per-entry
    overhead (the record, the DRC summary, the key and the table
    slot), so the charge is what the entry really holds; inserting
    evicts least-recently-used entries while the total would exceed
    the byte budget.

    Thread-safety: every operation takes the cache's own mutex, so
    connection threads and worker completions may call it freely.
    Counters [serve.mem_hit], [serve.mem_miss] and [serve.mem_evict]
    are kept in {!Rsg_obs.Obs}. *)

type t

type entry = {
  me_cif : string;  (** serialised once at insert; reused by every hit *)
  me_boxes : int;  (** flattened box count *)
  me_drc : Rsg_obs.Json.t option;
      (** the reply's DRC summary, when the request that built the
          entry asked for one *)
}

val create : budget_bytes:int -> t
(** A cache that holds at most [budget_bytes] worth of entries (one
    oversized entry is still admitted alone, so a tiny budget degrades
    to caching the most recent entry rather than nothing). *)

val find : t -> drc:bool -> string -> entry option
(** Lookup by store-key hex; a hit refreshes recency.  An entry
    without a DRC summary does not answer a [~drc:true] lookup: that
    is a miss. *)

val add : t -> string -> entry -> unit
(** Insert (or refresh) an entry, evicting LRU entries as needed.
    Entries sit on a recency list, so a hit and each eviction cost
    O(1) whatever the number of entries. *)

val stats : t -> int * int
(** [(entries, bytes)] currently resident. *)
