(** Whole-structure hierarchical compaction: the stitch.

    The flat compactor ({!Compactor}) must re-derive every constraint
    from fully flattened geometry; on a regular structure that work is
    almost entirely redundant, because thousands of instances share a
    handful of celltypes.  [hier] exploits the prototype DAG instead:
    interior geometry is never moved, so only the effective root level
    is compacted.

    The effective root level (wrapper cells with a single instance are
    descended through) is abstracted to rigid elements: each child
    instance and each root-level box.  Elements whose geometry touches
    on connecting layers, or whose bounding boxes properly overlap, are
    fused into rigid clusters (an abutted or interlocked seam must keep
    its exact relative placement — that is what preserves connectivity
    and internal design-rule cleanliness without re-deriving interface
    intent).  Between clusters, constraints are generated from each
    prototype's {e shell} — the boxes within one interaction horizon
    ({!Rules.max_spacing}) of its bounding-box edge, its
    left/right/top/bottom interface profile — plus order-preserving
    floors, and the system is solved with the worklist Bellman-Ford,
    with optional slack distribution and x/y alternation reusing the
    1-D machinery.

    Interior geometry is never rewritten, so a structure whose input
    passes DRC keeps every intra-prototype guarantee; the inter-element
    spacing is re-legislated by the solved system.  Compaction of a
    fully abutted structure (no slack at any seam) is the identity.
    The paper's library compaction with pitch unknowns is {!Leaf}. *)

type stats = {
  hs_protos : int;            (** distinct subtree digests *)
  hs_stitch_constraints : int;   (** last round, x + y systems *)
  hs_stitch_passes : int;        (** Bellman generations, all rounds *)
  hs_stitch_relaxations : int;
  hs_elements : int;          (** rigid elements at the stitch level *)
  hs_clusters : int;          (** rigid clusters in the final round *)
  hs_rounds : int;            (** x/y alternation rounds run *)
  hs_area_before : int;       (** stitch-level bounding box, input *)
  hs_area_after : int;
}

type result = {
  hr_cell : Rsg_layout.Cell.t;
      (** new root; child cell definitions are shared, untouched *)
  hr_stats : stats;
}

val hier :
  ?domains:int ->
  ?distribute_slack:bool ->
  ?max_rounds:int ->
  Rules.t ->
  Rsg_layout.Cell.t ->
  result
(** Compact [cell].  [domains] is ignored — the stitch runs on the
    calling domain; the argument stays only so existing callers still
    compile.  [max_rounds] (default 8) bounds the x/y
    alternation; [distribute_slack] (default false) centres
    non-critical elements in their slack.  Raises {!Bellman.Infeasible}
    with a witness when the stitch system is contradictory — interior
    systems are never built, so that is its only source. *)
