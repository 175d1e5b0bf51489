(** Macro arrangement on the interface grid as an {!Anneal} problem.

    The chip-level floorplans in lib/mult place macros with a fixed
    abutment heuristic; this problem searches arrangements instead.
    Each block gets a slot on a G x G grid (G = block count; pitch =
    largest block dimension + the deck's interaction horizon, so
    arrangements never overlap) and a D4 rotation.  Moves shift a
    block to a free slot, swap two blocks, or rotate one in place.
    Cost is compacted area under {!Rsg_compact.Hcompact.hier} — the
    stitcher closes slot slack down to the deck gap, so the score
    reflects the arrangement topology, not the pitch. *)

type state

type move =
  | Shift of int * int * int  (** block, old slot, new slot *)
  | Swap of int * int
  | Rotate of int * int * int (** block, old index, new index *)

val make : ?rules:Rsg_compact.Rules.t -> Rsg_layout.Cell.t list -> state
(** Start state: all blocks in one row along x with no rotation — the
    fixed floorplan heuristic, i.e. the greedy baseline.  Raises
    [Invalid_argument] on an empty block list. *)

val problem : (state, move) Anneal.problem

val cell : state -> Rsg_layout.Cell.t
(** The arrangement realised as a fresh chip cell (uncompacted);
    depends only on the state, not on evaluation history. *)

val summary_json :
  target:string ->
  strategy:string ->
  seed:int ->
  state Anneal.result ->
  Rsg_obs.Json.t
(** The search summary of [rsg place --json] and the serve daemon's
    [place] op: [target], [blocks], [strategy], [seed], the run's
    [iters] and [chains], [initial_area], [best_area], the [best]
    state's hex digest, and the [computed] and [cached] evaluation
    counts. *)
