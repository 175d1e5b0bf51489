(** Scanline design-rule checker.

    Takes flattened layout geometry (a {!Rsg_compact.Scanline.item}
    array or a {!Rsg_layout.Cell.t}) and a {!Deck.t} and returns
    structured violations.  All checks run on {e merged regions}: a
    plane sweep ({!Rsg_compact.Scanline.sweep_pairs}) plus union-find
    fuses same-layer boxes that touch or overlap, so abutting
    fragments of one wire are never reported against each other.

    - width: per y-slab, the maximal merged x-runs of a region are its
      exact horizontal extents; a run shorter than the rule (in either
      axis, via transposition) is a violation.  Only regions containing
      a box narrower than the rule are decomposed — a merged run is
      never shorter than the widest box it contains.
    - spacing: a sweep with the rule distance as halo finds candidate
      pairs; a pair violates when the boxes face each other (strict
      projection overlap in one axis) with a gap below the rule.
      Corner-only proximity is legal — it is what the thesis's
      one-dimensional compactor produces, since its constraints bind
      only facing edges.  One violation per region pair (worst gap).
    - enclosure: the inner box inflated by the margin must be covered
      by the {e union} of the cover layers' geometry (measured by slab
      decomposition of the clipped covers).
    - overlap: merged a∩b intersection regions must reach the rule
      length in some axis. *)

open Rsg_geom

type violation = {
  v_rule : string;  (** stable id, see {!Deck.rule_id} *)
  v_layers : Layer.t list;
  v_boxes : Box.t list;  (** offending geometry (1 or 2 boxes) *)
  v_required : int;
  v_actual : int;  (** measured value; [-1] for unmet enclosure *)
}

type report = {
  r_deck : string;
  r_violations : violation list;  (** sorted by rule id then position *)
  r_boxes : int;
  r_regions : int;
  r_rules : int;
}

val check :
  ?deck:Deck.t -> ?domains:int -> Rsg_compact.Scanline.item array -> report
(** Run every rule of the deck (default {!Deck.default}) over the
    items.  [domains] ({!Rsg_par.Par.default_domains} when omitted)
    fans per-layer region merging and the independent rule checks out
    across that many domains; the report is bit-identical for every
    pool size ([~domains:1] runs fully sequentially on the calling
    domain).  Instrumented with [Obs] spans ([drc.check],
    [drc.regions], then [drc.rules] over per-rule [drc.width]/
    [drc.spacing]/[drc.enclosure]/[drc.overlap]) and counters
    ([drc.checks], [drc.boxes], [drc.violations]). *)

val check_cell : ?deck:Deck.t -> ?domains:int -> Rsg_layout.Cell.t -> report
(** [check] of the flattened cell. *)

val check_flat :
  ?deck:Deck.t -> ?domains:int -> Rsg_layout.Flatten.flat -> report
(** [check] of already-flattened geometry — lets callers feed one
    {!Rsg_layout.Flatten.protos_flat} build to stats, DRC and the
    writers without re-flattening. *)

val clean : report -> bool

(** {1 Hierarchical per-prototype checking}

    A regular structure has thousands of instances of a handful of
    celltypes, and no design rule measures farther than the deck's
    {!Deck.halo} — so it has only a handful of {e distinct local
    situations} a rule can see.  {!check_protos} checks each distinct
    prototype once, in local coordinates, partitioning responsibility
    by depth from each bounding box:

    - witnesses at least one halo inside a prototype's bbox (child
      interiors excluded) belong to that prototype's {e level};
    - the ring within one halo of a child instance belongs to the
      parent's {e context window} for that instance — the child's
      boundary band plus neighbouring instances' and the parent's own
      geometry, clipped to the inflated bbox.  Congruent windows (same
      child subtree hash, orientation, neighbour pattern, nearby own
      geometry) are checked once and multiplied;
    - own geometry away from every child is checked directly.

    Congruence is decided by an integer context key per instance:
    the child's canonical index (one per distinct subtree hash, so
    congruent celltypes share it), its orientation index, the
    neighbour count, each neighbour's (dx, dy, canonical index,
    orientation) in sorted order, then each own box that touches the
    window as (layer index and four coordinates relative to the
    instance offset) in the cell's box order.  Keys are built in one
    reused buffer and hashed over every element; only a key that
    founds a new class is copied.  Grouping therefore costs
    O(neighbours + own boxes) per instance, with no string or digest
    built, and the geometric checks run once per distinct context.

    Work is O(distinct prototypes x distinct contexts) in window
    checks, plus that grouping pass over the instances, and level
    results are reusable across runs:
    a level keyed by (subtree hash, deck digest) is valid as long as
    neither changes — the [cached] hook is how {!Rsg_store.Store}
    entries short-circuit re-checks of clean subtrees.

    Soundness leans on the regular-structure discipline the
    generators obey (shallow abutment: geometry deep inside one
    subtree is not perturbed by a sibling); the hier-vs-flat
    agreement tests pin the equivalence empirically on every layout
    family. *)

type cached_level = {
  cl_violations : (violation * int) list;
  cl_contexts : int;
  cl_distinct : int;
  cl_boxes : int;
}
(** A previously computed level, as replayed from a cache. *)

type level = {
  l_cell : string;  (** prototype cell name *)
  l_hash : string;  (** hex subtree digest ({!Rsg_layout.Flatten.subtree_hex}) *)
  l_placements : int;  (** times this prototype occurs in the design *)
  l_violations : (violation * int) list;
      (** violations in the prototype's local coordinates, each with
          the number of congruent placements that exhibit it at this
          level *)
  l_contexts : int;  (** child instances at this level *)
  l_distinct : int;  (** distinct context windows actually checked *)
  l_boxes : int;  (** boxes fed to this level's window checks *)
  l_cached : bool;  (** replayed via [cached] instead of recomputed *)
}

type hier_report = {
  h_deck : string;
  h_halo : int;
  h_levels : level list;  (** children before parents, root last *)
  h_boxes : int;  (** boxes checked across non-cached levels *)
  h_cached : int;  (** levels replayed from the cache *)
}

val cached_of_level : level -> cached_level
(** The part of a level that [cached] replays, as a store keeps it. *)

val check_protos :
  ?deck:Deck.t ->
  ?domains:int ->
  ?cached:(string -> cached_level option) ->
  Rsg_layout.Flatten.protos ->
  hier_report
(** Check every distinct prototype of the hierarchy.  [cached] is
    consulted with each prototype's hex subtree digest; a [Some]
    replays that level verbatim (the caller warrants it was computed
    with the same deck — key cached levels by (subtree hash, deck
    digest)).  Dirty levels fan out across [domains] workers
    ({!Rsg_par.Par.default_domains} when omitted) through
    {!Rsg_layout.Flatten.cached_map}; results are merged in postorder,
    so the report is bit-identical for every domain count.  Counters:
    [drc.hier.levels], [drc.hier.cached], [drc.hier.boxes],
    [drc.hier.violations]. *)

val hier_clean : hier_report -> bool

val hier_violations : hier_report -> int
(** Total violation count weighted by prototype placements — an upper
    bound, since overlapping context windows within a level can each
    see a shared witness. *)

val pp_hier_report : Format.formatter -> hier_report -> unit

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Rsg_obs.Json.t
(** Machine-readable form:
    [{"deck":..,"boxes":..,"regions":..,"rules":..,"violations":
    [{"rule":..,"layers":[..],"required":..,"actual":..,
    "boxes":[[xmin,ymin,xmax,ymax],..]},..]}]. *)

(** {1 Mutation self-check}

    Confidence test for the checker itself: seed exactly one defect in
    a known-clean layout and assert the checker reports exactly that
    defect. *)

type self_check = {
  sc_layer : Layer.t;
  sc_original : Box.t;
  sc_mutated : Box.t;
      (** the original narrowed to one lambda below the width rule *)
  sc_violation : violation;  (** the single violation reported *)
}

val self_check :
  ?deck:Deck.t ->
  ?domains:int ->
  Rsg_compact.Scanline.item array ->
  (self_check, string) result
(** Verify the layout is clean, then narrow one box to one lambda
    below its layer's width rule (exactly a 1-lambda shrink when the
    box already sits at minimum width) and re-check, expecting exactly
    one violation: a width violation on that layer overlapping the
    mutated box.  Candidates whose shrink perturbs more than the
    width rule (splitting a region, uncovering a contact) are skipped.
    [Error] when the layout was dirty to begin with or no candidate
    yields a clean single-defect result. *)

val self_check_cell :
  ?deck:Deck.t -> ?domains:int -> Rsg_layout.Cell.t -> (self_check, string) result

val pp_self_check : Format.formatter -> self_check -> unit
