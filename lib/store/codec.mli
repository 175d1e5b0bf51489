(** Versioned binary codec for layout databases.

    Serialises one cell hierarchy — every distinct cell reachable from
    a root, children before parents, with its boxes, labels and
    instance calls — so a reader gets back the hierarchical layout
    (for CIF/DEF writing, byte-identical to the original) without
    re-expanding anything.  Flat geometry is recomposed from that
    hierarchy through the prototype cache
    ({!Rsg_layout.Flatten.prototypes}) by whichever check needs it.

    The format is deliberately {e not} [Marshal]: OCaml's marshaller is
    not stable across compiler versions, silently accepts any value,
    and gives no integrity guarantee.  This codec instead writes an
    explicit container

    {v magic "RSGL" | u32 version | u32 payload length | u32 CRC-32 | payload v}

    (fixed-width fields little-endian; payload integers as LEB128
    varints, signed values zigzag-encoded; strings length-prefixed;
    an optional trailing flattened-box section is length-prefixed,
    so {!decode} checks its framing and skips it).
    Every decode verifies magic, version, length and checksum and
    raises the typed {!Error} on any mismatch, so a truncated or
    bit-flipped file is detected instead of producing garbage
    geometry.  {!write_file} writes to a temp file in the target
    directory, fsyncs it, and renames it into place, so readers never
    observe a partial entry even across a crash.

    Version 2 adds the {e prototype table} between the label and the
    cell table: one record per distinct subtree digest
    ({!Rsg_layout.Flatten.subtree_digest}), children before parents.
    A record holds the prototype's own boxes and labels plus instance
    calls that reference the child's record {e by table index} — by
    subtree hash, never inlined geometry — together with a [reused]
    marker (did the run that wrote the entry recompute this prototype
    or adopt it from a previous entry?) and the hierarchical DRC
    levels computed for it, keyed by rule-deck digest.  The table is
    the content-addressed face of an entry: {!decode_protos} reads it
    without touching the cell table or the flat section, which is what
    makes incremental-regeneration harvesting and [cache stats]
    cheap.  Version-1 files fail decoding with [Bad_version] — the
    store treats them as stale misses, never mis-decodes them.

    Version 4 extends each prototype record with its {e cached ERC
    verdicts} ({!Rsg_erc.Erc.cached_verdict}): per-level electrical
    censuses plus the root's diagnostic list, keyed by the ERC
    configuration digest ({!Rsg_erc.Erc.config_digest}).  A warm
    [rsg erc --cache] run replays every unchanged prototype's verdict
    without touching its geometry.  Version-3 files fail decoding
    with [Bad_version] and the store treats them as stale clean
    misses.

    Version 5 extends each prototype record with its {e cached
    placement-search evaluations}: compacted areas of annealing
    candidates, keyed by the raw 16-byte MD5 of (candidate digest ^
    rule-deck digest).  A warm [rsg place --cache] or
    [pla --fold-opt --cache] run replays every previously scored
    candidate instead of re-running the compactor.  Version-4 files
    fail decoding with [Bad_version] and the store treats them as
    stale clean misses.

    Version 6 drops the per-record compaction section that versions
    3–5 carried: hierarchical compaction only stitches the root level,
    so interior constraint graphs are neither built nor stored.  Every
    older file fails decoding with [Bad_version] and the store treats
    it as a stale clean miss. *)

open Rsg_layout

val format_version : int
(** Bumped on any incompatible change to the payload layout.  Part of
    the cache key in {!Store}, so stale-format entries are simply
    never looked up — and a direct {!decode} of one fails with
    [Bad_version] rather than misparsing. *)

type error =
  | Bad_magic
  | Bad_version of { found : int; expected : int }
  | Truncated of string           (** which field ran out of bytes *)
  | Checksum_mismatch of { stored : int32; computed : int32 }
  | Malformed of string           (** structurally invalid payload *)

exception Error of error

val pp_error : Format.formatter -> error -> unit

type proto = {
  p_hash : string;
      (** raw 16-byte subtree digest
          ({!Rsg_layout.Flatten.subtree_digest}) *)
  p_cell : Cell.t;
      (** the prototype's own objects; instance calls point at other
          protos' [p_cell]s (children precede parents in the table).
          Named by the hex digest — celltype names are not part of the
          content address *)
  p_reused : bool;
      (** the writing run adopted this prototype from a previous
          entry instead of recomputing it *)
  p_reports : (string * Rsg_drc.Drc.cached_level) list;
      (** hierarchical DRC results for this prototype, keyed by raw
          16-byte rule-deck digest ({!Rsg_drc.Deck.digest}) *)
  p_ercs : (string * Rsg_erc.Erc.cached_verdict) list;
      (** cached electrical verdicts, keyed by raw 16-byte ERC
          configuration digest ({!Rsg_erc.Erc.config_digest}) *)
  p_places : (string * int) list;
      (** cached placement-search evaluations: compacted area keyed by
          raw 16-byte MD5 of (candidate digest ^ rule-deck digest) —
          only the root prototype's record carries them *)
}

type entry = {
  e_label : string;  (** human description, e.g. ["multiplier 8x8"] *)
  e_cell : Cell.t;   (** the root of the decoded hierarchy *)
  e_protos : proto array;
      (** the prototype table, children before parents; empty when the
          writer supplied none *)
}

val proto_table :
  ?reused:(string -> bool) ->
  ?reports:(string -> (string * Rsg_drc.Drc.cached_level) list) ->
  ?ercs:(string -> (string * Rsg_erc.Erc.cached_verdict) list) ->
  ?places:(string -> (string * int) list) ->
  Flatten.protos ->
  proto array
(** Build the prototype table of a flattening cache: one record per
    distinct subtree digest in postorder (congruent celltypes
    collapse into one record).  [reused], [reports], [ercs] and
    [places] are consulted with each hex digest to fill
    the record's metadata; all default to nothing. *)

val encode : ?flat:Flatten.flat -> ?protos:proto array -> label:string -> Cell.t -> string
(** Serialise [cell] (and, when given, its prototype table) into a
    self-contained byte string.  The cell table holds one record per
    celltype of {!Rsg_layout.Flatten.postorder}, so same-named
    celltypes are kept apart and instance sharing survives the round
    trip; it raises {!Rsg_layout.Flatten.Depth_exceeded} past 64
    levels.  The flat section is written only for a caller that
    passes [flat], and is never decoded. *)

val decode : string -> entry
(** Parse and verify a byte string produced by {!encode}.  A flat
    section's flag and length are checked and the section skipped.
    Raises {!Error} on any corruption, version or framing problem. *)

val decode_label : string -> string
(** Cheap peek at the entry's label: verifies the container framing
    (magic, version, length, checksum) but decodes only the label —
    used by cache listings.  Raises {!Error} like {!decode}. *)

val decode_protos : string -> string * proto array
(** The label and the prototype table, skipping the cell table and
    the flat section entirely — the harvesting path of incremental
    regeneration and the [cache stats] listing.  Raises {!Error} like
    {!decode}. *)

(** One payload section's byte/entry accounting, from {!sections}. *)
type section = { s_name : string; s_bytes : int; s_entries : int }

val sections : string -> section list
(** Per-section breakdown of an encoded entry — container framing,
    label, prototype geometry, cached DRC reports, cached ERC
    verdicts, cached place evals, cell table, flat geometry — in
    payload order.  Entries are records / reports / verdicts / evals /
    cells / flattened boxes as appropriate to the section; an entry
    written without a flat has a one-byte, zero-box flat section.
    Raises {!Error} like {!decode}. *)

val write_file : string -> string -> unit
(** [write_file path data] writes atomically and durably: a fresh
    temp file in [path]'s directory, [fsync], [rename] onto [path],
    then fsync of the directory — a reader (or a post-crash mount)
    sees either the old entry or the complete new one, never a
    prefix. *)

val read_file : string -> entry
(** [decode] of the file's contents.  Raises {!Error} on corruption
    and [Sys_error] on I/O failure. *)

val crc32 : string -> int32
(** The CRC-32 (IEEE 802.3 polynomial) used for the payload checksum;
    exposed for tests. *)
