(** Content-addressed on-disk cache of generated layouts.

    Every pipeline stage of the RSG is a pure function of its inputs:
    a connectivity graph plus a parameter set deterministically expands
    into a placed layout, so the generated database is fully determined
    by (design text, parameters, rule deck, scale, codec version).
    The store exploits that: entries are {!Codec}-encoded layout
    databases filed under a {!key} — a stable digest of exactly those
    inputs — so a warm run loads the finished hierarchy in O(file
    read) instead of re-parsing, re-expanding and re-checking; a
    check that needs flat geometry recomposes it from that hierarchy
    through the prototype cache.

    The v2 codec makes entries useful even after an edit misses the
    key: the prototype table inside each entry is content-addressed by
    subtree digest, so an incremental run {!harvest}s the {e previous}
    entry for the same design (found through a per-design [.latest]
    pointer, see {!save}'s [stem]) and reuses every prototype whose
    digest is unchanged — cached hierarchical-DRC levels replay, and
    only the dirty prototypes and their ancestors are recomputed.

    Corrupt or stale entries can never poison a run: {!find} verifies
    the codec checksum and version and reports damage as {!Corrupt}
    (counted under [store.corrupt] in {!Rsg_obs.Obs}); the damaged
    file is deleted after reporting, so a bad entry costs exactly one
    regeneration — the next run re-warms instead of tripping over it
    again.  Entries from an older codec generation are not damage:
    they fail with [Bad_version], count as [store.stale] and are
    removed as a clean {!Miss}.  Writes are atomic and durable (temp
    file + fsync + rename, see {!Codec.write_file}), so concurrent
    batch jobs may share one store directory freely; maintenance
    ({!clear}, {!gc}, {!sweep_tmp}) tolerates losing removal races to
    other processes and reports only what it actually deleted. *)

open Rsg_layout

type t
(** An opened store directory. *)

val open_ : string -> t
(** [open_ dir] uses [dir] as the store, creating it (and missing
    parents one level deep) if needed. *)

val dir : t -> string

val with_lock : ?shared:bool -> t -> (unit -> 'a) -> 'a
(** Run [f] under a best-effort advisory [fcntl] lock on
    [<dir>/.lock] — exclusive by default, [~shared:true] for a read
    lock.  Mutators ({!save}, {!clear}, {!gc}, {!sweep_tmp}) take the
    exclusive lock and the whole-directory reader ({!stats}) the
    shared one, so maintenance walking the store does not race a
    resident writer in {e another process}.  The guarantee is
    deliberately advisory and best-effort: correctness never depends
    on it (entries are installed by atomic rename; removals tolerate
    losing races), locking failures silently fall back to running
    unlocked, fcntl locks do not exclude callers within one process,
    and single-entry reads ({!find}, {!harvest}) stay unlocked on the
    latency-critical path.  Do not nest [with_lock] calls on one
    store: closing any descriptor of the lock file drops the
    process's locks. *)

type key = private string
(** 32-hex-digit content address. *)

val key :
  ?deck:string -> ?scale:string -> design:string -> params:string -> unit -> key
(** Digest of every generation input: the full design text (for
    design-file flows, concatenate the sample's text too — anything
    that shapes geometry belongs here), the canonical parameter
    listing, the rule deck the output was gated against ([""] when
    ungated), the output scale (default ["1"]), plus
    {!Codec.format_version} and a store schema tag.  Any input change
    yields a new key. *)

val key_hex : key -> string

type lookup =
  | Hit of Codec.entry
  | Miss
  | Corrupt of Codec.error
      (** entry existed but failed verification; it has been removed *)

val find : t -> key -> lookup
(** Look a key up, verifying the entry end to end.  Counts
    [store.hit] / [store.miss] / [store.corrupt] in Obs.  An entry in
    an older codec format is deleted and reported as a plain {!Miss}
    (counted [store.stale]) — it is never mis-decoded and never
    surfaces as {!Corrupt}. *)

val save :
  t ->
  key ->
  ?stem:string ->
  label:string ->
  ?flat:Flatten.flat ->
  ?protos:Codec.proto array ->
  Cell.t ->
  unit
(** Encode and atomically install an entry (last writer wins).
    [flat] adds the codec's flat section, which no reader decodes
    ({!Codec.encode}).  [stem] names the design {e independently of its content} —
    generator family plus design identity, excluding parameters and
    text that edits change — and installs a per-stem [.latest]
    pointer to this key, which is what lets a later run of an edited
    design {!harvest} this entry. *)

val latest : t -> stem:string -> key option
(** The key most recently {!save}d under [stem], if its pointer file
    exists and is well-formed.  Pointers are installed by the same
    atomic temp+rename+fsync path as entries, so a crash mid-save
    never leaves a truncated pointer; if one is found anyway
    (pre-atomic writers, tampering) it is removed, counted as
    [store.bad_pointer], and reported as a clean [None] — never an
    error. *)

val harvest : t -> stem:string -> (key * Codec.proto array) option
(** The previous entry for [stem]: follows the [.latest] pointer and
    decodes only the prototype table (the cell table and flat section
    are never touched).  Returns [None] — removing the bad entry, as
    {!find} would — when the pointer dangles or the entry is stale or
    corrupt.  Counts [store.harvest] on success. *)

val path_of : t -> key -> string

(** One cached run of per-prototype passes: the single copy of the
    find-or-harvest → replay → save protocol every [--cache] command
    follows.  A run's {e prior} records — the key's own entry on a
    hit, the stem's previous entry ({!harvest}) on a miss — are
    indexed by subtree hex; passes replay from them and compute the
    rest through {!Rsg_layout.Flatten.cached_map}.  Every step prints
    its [cache:] line to [log].  Without a store nothing is found,
    replayed or saved, and nothing is printed. *)
module Cached : sig
  type store := t

  type t

  val start : log:Format.formatter -> stem:string -> store option -> t
  (** [stem] names the design independently of its content, as in
      {!save}. *)

  val run :
    t ->
    key ->
    redo:string ->
    compute:(Codec.entry option -> 'a) ->
    save:('a -> unit) ->
    'a
  (** Look the key up ({!find}), printing [cache: hit], [cache: miss]
      or [cache: corrupt entry (...), <redo>].  A hit is
      [compute (Some entry)], replaying from the entry's own records.
      Otherwise {!harvest}, [compute None], and [save] the result when
      there is a store. *)

  val replay :
    t -> (Codec.proto -> (string * 'a) list) -> string -> string -> 'a option
  (** [replay r field digest hex] is the artifact the prior record of
      prototype [hex] holds in [field] under the pass's [digest]. *)

  val adopted : t -> string -> bool
  (** The prior holds a record for this subtree hex. *)

  val by_hex : string -> (string * 'a) list -> string -> (string * 'a) list
  (** [by_hex digest results] is the record field {!save} stores for
      a pass whose [results] pair subtree hexes with artifacts. *)

  val save :
    t ->
    key Lazy.t ->
    label:string ->
    ?reused:(string -> bool) ->
    ?reports:(string -> (string * Rsg_drc.Drc.cached_level) list) ->
    ?ercs:(string -> (string * Rsg_erc.Erc.cached_verdict) list) ->
    ?places:(string -> (string * int) list) ->
    ?note:(Codec.proto array -> string) ->
    Flatten.protos Lazy.t ->
    Cell.t ->
    Codec.proto array
  (** Build the prototype table ({!Codec.proto_table}), install the
      entry under the run's stem ({!save}) and print
      [cache: saved <key> (<note>)] ([note] defaults to the record
      count).  Nothing is forced or called without a store; the
      result is the table ([[||]] without a store). *)
end

type entry_stat = {
  es_key : string;
  es_label : string;
  es_bytes : int;
  es_protos : int;  (** prototype-table records in the entry *)
  es_reused : int;
      (** records whose prototype the writing run adopted from a
          previous entry instead of recomputing *)
}

type stats = {
  st_entries : int;
  st_bytes : int;
  st_list : entry_stat list;  (** sorted by key, deterministic *)
  st_sections : Codec.section list;
      (** per-section byte/entry totals aggregated over every readable
          entry ({!Codec.sections}), in payload order *)
}

val stats : t -> stats
(** Unreadable entries are listed with the label ["(corrupt)"]. *)

val clear : t -> int
(** Delete every entry, pointer file and leftover temp file; returns
    how many {e entries} this call removed (not counting files a
    concurrent process deleted first). *)

val sweep_tmp : ?max_age:float -> t -> int
(** Delete orphaned [.rsgdb-*.tmp] files — writers that crashed
    between temp creation and rename — older than [max_age] seconds
    (default 900).  Returns how many were removed (counted
    [store.tmp_swept]).  Run by {!gc}; callable directly for eager
    cleanup. *)

val gc : ?max_age:float -> ?max_bytes:int -> t -> int
(** Delete entries older than [max_age] seconds, then — oldest first —
    until at most [max_bytes] remain; afterwards sweep orphaned temp
    files and pointer files whose entry no longer exists.  Returns how
    many entries were removed. *)
