(** PLA column folding as an {!Anneal} problem.

    The greedy heuristic ({!Rsg_pla.Folding.plan}) accepts the first
    acyclic pair per column; folding is NP-hard and the greedy order
    can lock out better pairings.  This problem anneals over the
    accepted pair list — moves accept a new pair, reject an existing
    one, or swap one pair for another, each pre-validated against
    {!Rsg_pla.Folding.disjoint} and {!Rsg_pla.Folding.acyclic} so
    every reachable state is a realisable fold.  Cost is the compacted
    area of the folded plane under
    {!Rsg_compact.Hcompact.hier}. *)

type state

type move =
  | Accept of int * int
  | Reject of int * int
  | Swap of (int * int) * (int * int)

val make : ?rules:Rsg_compact.Rules.t -> Rsg_pla.Truth_table.t -> state
(** Start state: the greedy {!Rsg_pla.Folding.plan}, so a
    zero-iteration anneal {e is} the greedy baseline.  [rules]
    (default {!Rsg_compact.Rules.default}) prices the candidates. *)

val pairs : state -> (int * int) list
(** Accepted pairs, canonically sorted. *)

val problem : (state, move) Anneal.problem

val generate : ?name:string -> state -> Rsg_pla.Folding.t
(** Realise the state's fold with a fresh sample library: the layout
    depends only on the fold, byte-identical across domain counts and
    cache temperature. *)
