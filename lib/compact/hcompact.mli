(** Whole-structure hierarchical compaction.

    The flat compactor ({!Compactor}) must re-derive every constraint
    from fully flattened geometry; on a regular structure that work is
    almost entirely redundant, because thousands of instances share a
    handful of celltypes.  [hier] exploits the prototype DAG instead:

    {ol
    {- {b Condense} — every {e distinct} prototype (one per subtree
       digest, congruent celltypes share) has its internal scanline
       constraint graphs generated exactly once, in x and in y, and
       solved leftmost for its internal pitch bounds [wmin]/[hmin]
       (the per-prototype lambda values).  The per-prototype tasks fan
       out across the {!Rsg_par.Par} domain pool through
       {!Rsg_layout.Flatten.cached_map}; results merge in prototype
       order, so the outcome is bit-identical at any domain count.
       Artifacts are returned to the caller for persisting in
       the store, keyed by subtree hash + rule deck
       ({!Rules.digest}), and previously cached artifacts are accepted
       back through [cached], which skips generation for warm
       prototypes entirely.}
    {- {b Stitch} — the effective root level (wrapper cells with a
       single instance are descended through) is abstracted to rigid
       elements: each child instance and each root-level box.  Elements
       whose geometry touches on connecting layers, or whose bounding
       boxes properly overlap, are fused into rigid clusters (an
       abutted or interlocked seam must keep its exact relative
       placement — that is what preserves connectivity and internal
       design-rule cleanliness without re-deriving interface intent).
       Between clusters, constraints are generated from each
       prototype's {e shell} — the boxes within one interaction
       horizon ({!Rules.max_spacing}) of its bounding-box edge, the
       left/right/top/bottom interface profile of the condensation —
       plus order-preserving floors, and the system is solved with the
       worklist Bellman-Ford, with optional slack distribution and x/y
       alternation reusing the 1-D machinery.}}

    Interior geometry is never rewritten, so a structure whose input
    passes DRC keeps every intra-prototype guarantee; the inter-element
    spacing is re-legislated by the solved system.  Compaction of a
    fully abutted structure (no slack at any seam) is the identity. *)

(** Serialised difference-constraint system: everything needed to
    re-solve without re-generating (variable 0 is the origin). *)
type cgraph = {
  cg_nv : int;
  cg_inits : int array;          (** initial abscissas, length [cg_nv] *)
  cg_cons : Cgraph.constr array; (** insertion order *)
}

val graph_of_cgraph : cgraph -> Cgraph.t
(** Rebuild a solvable {!Cgraph.t} (variable names are generic). *)

(** Condensed per-prototype artifact: the content persisted in the
    store under (subtree hash, rule-deck digest). *)
type pabs = {
  pa_wmin : int;     (** internal leftmost-packed width bound *)
  pa_hmin : int;     (** internal downmost-packed height bound *)
  pa_cx : cgraph;    (** internal x constraint graph *)
  pa_cy : cgraph;    (** internal y constraint graph *)
}

val pabs_constraints : pabs -> int
(** Internal constraint count, x + y. *)

val condense : Rules.t -> Scanline.item array -> pabs
(** Generate and solve one prototype's internal constraint systems.
    Opens {!Scanline.generate}'s {!Rsg_obs.Obs} spans, so pool workers
    run it under {!Rsg_obs.Obs.suspend}, as {!hier} does. *)

type stats = {
  hs_protos : int;            (** distinct prototypes condensed *)
  hs_reused : int;            (** of which served from [cached] *)
  hs_internal_constraints : int;
  hs_stitch_constraints : int;   (** last round, x + y systems *)
  hs_stitch_passes : int;        (** Bellman generations, all rounds *)
  hs_stitch_relaxations : int;
  hs_elements : int;          (** rigid elements at the stitch level *)
  hs_clusters : int;          (** rigid clusters in the final round *)
  hs_rounds : int;            (** x/y alternation rounds run *)
  hs_area_before : int;       (** stitch-level bounding box, input *)
  hs_area_after : int;
  hs_pitch : (string * int * int) list;
      (** per distinct prototype: cell name, wmin, hmin — children
          before parents *)
}

type result = {
  hr_cell : Rsg_layout.Cell.t;
      (** new root; child cell definitions are shared, untouched *)
  hr_stats : stats;
  hr_artifacts : (string * pabs * bool) list;
      (** per distinct prototype: subtree hex, artifact, reused flag —
          hand these to the store for the warm path *)
}

val hier :
  ?domains:int ->
  ?distribute_slack:bool ->
  ?max_rounds:int ->
  ?cached:(string -> pabs option) ->
  Rules.t ->
  Rsg_layout.Cell.t ->
  result
(** Compact [cell].  [domains] sizes the condensation pool (default
    {!Rsg_par.Par.default_domains}); the result is independent of it.
    [cached] maps a subtree hex digest to a previously persisted
    artifact for this rule deck (default: none).  [max_rounds]
    (default 8) bounds the x/y alternation; [distribute_slack]
    (default false) centres non-critical elements in their slack.
    Raises {!Bellman.Infeasible} with a witness on contradictory
    systems. *)
