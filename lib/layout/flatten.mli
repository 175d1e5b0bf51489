(** Hierarchical flattening and layout statistics.

    Expands a cell's instance hierarchy into absolute-coordinate
    geometry.  Every pass that walks a hierarchy walks it through this
    module: {!postorder} lists the distinct celltypes once each,
    children before parents, and the CIF and DEF writers, the codec's
    cell table, {!Scale} and {!Reorient} go through it cell by cell.

    {!prototypes} flattens each {e distinct} celltype once into local
    coordinates and materialises instances by composing the cached
    array with each instance transform, memoizing the eight D4
    orientation variants — O(distinct cells + instances + output
    boxes) instead of re-walking every subtree, and {!protos_stats}
    needs no geometry materialisation at all.  On the regular
    structures this generator emits (thousands of instances of a
    handful of celltypes) this is the fast path; a shared {!protos}
    value serves stats, DRC input and extraction in one build.

    {!flatten} and {!instance_placements} walk the whole instance tree
    once per instance (iteratively, so depth is bounded only by
    [max_depth]).  They are the reference walks that the tests and
    perfbench's oracles compare the prototype path against; no pass
    composes its geometry through them.

    Every walk raises {!Depth_exceeded} past [max_depth] (default 64)
    levels. *)

open Rsg_geom

exception Depth_exceeded of { cell : string; max_depth : int }
(** Raised when expansion descends more than [max_depth] levels —
    in practice an accidental instance cycle.  [cell] is the cell
    being entered when the limit was hit. *)

type flat = {
  flat_boxes : (Layer.t * Box.t) array;  (** absolute coordinates *)
  flat_labels : (string * Vec.t) array;
  flat_bbox : Box.t option;  (** bounding box of [flat_boxes] *)
}

val flatten : ?max_depth:int -> Cell.t -> flat
(** Reference walk: fully expand [cell], accumulating boxes, labels
    and the bounding box in one pass.  [max_depth] (default 64) bounds
    descent so accidental instance cycles fail fast with
    {!Depth_exceeded}. *)

val flat_bbox : flat -> Box.t option

type stats = {
  n_boxes : int;            (** boxes after flattening *)
  n_instances : int;        (** instances expanded (all levels) *)
  n_leaf_instances : int;   (** instances of cells containing no instances *)
  by_cell : (string * int) list;  (** flattened instance count per cell name, sorted *)
  box_area : int;           (** total flattened box area (overlaps counted twice) *)
  bbox : Box.t option;
}

val postorder : Cell.t -> Cell.t list * (Cell.t -> int)
(** The distinct celltypes reachable from a cell, children before
    parents (the cell itself last), each celltype once: cells are
    identified physically, so two different cells that share a name
    are both listed.  Children are visited in object order.  The
    function gives a listed cell's position in the list in O(1) and
    raises [Not_found] for any other cell.  Iterative; raises
    {!Depth_exceeded} past 64 levels. *)

val positions : Cell.t -> string -> Vec.t list
(** [positions cell name]: the absolute offset of every instance, at
    any level below [cell], of a celltype named [name], sorted by
    {!Rsg_geom.Vec.compare}.  Composed per distinct celltype along
    {!postorder}; equal to filtering {!instance_placements}. *)

val stats : ?max_depth:int -> Cell.t -> stats
(** Computed through the prototype cache: O(distinct cells +
    instances), no geometry is materialised. *)

(** {1 The prototype cache} *)

type protos
(** Flattening cache for one root cell: every distinct celltype
    reachable from the root (identified physically, so renamed or
    same-named cells never alias), its lightweight summary, and —
    built on first demand — its fully flattened local-coordinate
    geometry plus memoized D4 orientation variants. *)

val prototypes : ?max_depth:int -> Cell.t -> protos
(** Analyse the hierarchy under [cell]: distinct celltypes in
    children-before-parents order and per-cell summaries.  Flat
    geometry is not built until {!protos_flat} asks for it.  Raises
    {!Depth_exceeded} like {!flatten}. *)

val protos_flat : protos -> flat
(** The root's flattened geometry, identical to [flatten root]
    (same boxes, same order).  Memoized: repeated calls return the
    same arrays, which callers must treat as read-only. *)

val protos_stats : protos -> stats
(** Same result as {!stats} on the root; free once the [protos] value
    exists. *)

val distinct_cells : protos -> int
(** Number of distinct celltypes in the hierarchy (root included). *)

val protos_order : protos -> Cell.t list
(** The root's {!postorder}.  Every per-prototype artifact — flat
    arrays, subtree digests, hierarchical DRC levels, the codec's
    prototype table — is keyed to it. *)

val protos_root : protos -> Cell.t

val proto_flat : protos -> Cell.t -> flat
(** The fully flattened {e local-coordinate} geometry of one distinct
    celltype (any cell of {!protos_order}); the root's equals
    {!protos_flat}.  Builds the prototype arrays on first demand;
    returned arrays are shared and must be treated as read-only.
    Raises [Not_found] for a cell outside the hierarchy. *)

val cell_bbox : protos -> Cell.t -> Box.t option
(** Local-coordinate bounding box of a distinct celltype's flattened
    geometry, from the summaries — no geometry is materialised. *)

val proto_index : protos -> Cell.t -> int
(** Position of a distinct celltype in {!protos_order} (cells are
    identified physically).  Raises [Not_found] for a cell outside the
    hierarchy. *)

val placements : protos -> int array
(** How often each distinct celltype occurs in the whole design,
    indexed like {!protos_order}; the root's count is 1. *)

(** {1 Per-prototype passes} *)

val representatives : protos -> int array
(** Per index of {!protos_order}, the first index whose celltype has
    the same subtree digest: the one celltype that answers for all
    congruent ones. *)

val cached_map :
  ?domains:int ->
  cached:(string -> 'a option) ->
  prepare:(int -> unit) ->
  compute:(int -> 'a) ->
  protos ->
  ('a * bool) array
(** Runs every per-prototype pass (hierarchical DRC levels and ERC
    verdicts).  Per index [i] of
    {!protos_order}, the result holds the pass's value and whether it
    was replayed.  Each distinct subtree digest is looked up once in
    [cached] (by {!subtree_hex}) and, on a miss, computed once, for
    its {!representatives} index: [compute i] must depend on the
    celltype's content only, never its name.  [prepare i] runs for
    every miss on the calling domain — force there the lazy inputs
    [compute i] reads, since [Lazy.force] is not domain-safe — then
    the misses are computed in one {!Rsg_par.Par.chunked_map} over
    [domains] and merged in postorder, so results are identical for
    every domain count. *)

(** {1 Subtree content hashing}

    Every distinct celltype gets a digest of its full geometric
    content: its own boxes and labels in object order, plus, for each
    instance call, the {e child's digest} with the call's orientation
    and position — a chained postorder hash, so a digest covers the
    transitive subtree and editing one celltype changes exactly its
    own digest and its ancestors'.  Cell names are excluded: renames
    keep caches warm, and congruent celltypes share artifacts.  This
    is the content address of the {!Rsg_store.Store} prototype
    cache. *)

val subtree_digest : protos -> Cell.t -> string
(** Raw 16-byte MD5 digest of the cell's subtree content.  Computed
    for the whole hierarchy on first call, then O(1). *)

val subtree_hex : protos -> Cell.t -> string
(** {!subtree_digest} in hexadecimal (32 characters). *)

val subtree_hashes : protos -> (Cell.t * string) list
(** All distinct celltypes with their hex digests, in
    {!protos_order}. *)

val seed_proto :
  protos ->
  hash:string ->
  boxes:(Layer.t * Box.t) array ->
  labels:(string * Vec.t) array ->
  unit
(** Pre-load the flattened local arrays of every celltype whose raw
    {!subtree_digest} equals [hash] — the incremental-regeneration
    hook: seeded subtrees are adopted as-is during the prototype
    build, so only dirty celltypes (and their ancestors, whose
    composition consumes the seeded arrays) are recomposed.  The
    caller warrants the arrays are exactly what flattening the
    matching subtree would produce (content-addressing makes this
    safe when the arrays come from a verified cache entry).  Must be
    called before any geometry-building accessor; raises
    [Invalid_argument] once arrays were built. *)

val instance_placements :
  ?max_depth:int -> Cell.t -> (string * Transform.t) list
(** Reference walk: absolute placement of every instance at every
    level, as (cell name, transform) pairs in traversal order. *)
