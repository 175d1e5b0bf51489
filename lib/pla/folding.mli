(** PLA column folding (section 1.2.3).

    The thesis claims the RSG "can also generate more complex PLAs
    such as PLAs with folded rows or columns" — architectures HPLA's
    fixed program could not produce.  This module implements input
    {e column} folding: two inputs whose product-term rows are
    disjoint can share one physical double-column of the AND plane,
    one driven from the top and one from the bottom, provided a row
    ordering exists that puts all of the first input's rows above all
    of the second's.

    Planning is the classical greedy heuristic: candidate pairs are
    accepted when their row-precedence constraints keep the precedence
    relation acyclic; the final row order is a topological sort.
    Optimal folding is NP-hard [Hachtel et al.]; greedy reproduces the
    architecture, which is what the claim is about.

    The folded layout is verified like the straight one: the
    personality is read back from the crosspoint masks (undoing the
    fold and the row permutation) and compared with the input. *)

open Rsg_core

type fold = {
  pairs : (int * int) list;  (** (top input, bottom input), 0-based *)
  singles : int list;        (** unfolded inputs, in slot order after pairs *)
  row_order : int array;     (** physical row -> original term index *)
  split : int array;
      (** per physical slot: first physical row belonging to the
          bottom input (irrelevant for singles) *)
}

val plan : Truth_table.t -> fold
(** Greedy folding plan.  [pairs] is maximal under the greedy order. *)

val disjoint : Truth_table.t -> int -> int -> bool
(** Two input columns never participate in the same product term —
    the static precondition for folding them into one slot. *)

val acyclic : Truth_table.t -> (int * int) list -> bool
(** The row-precedence relation induced by an accepted pair list has a
    topological order, i.e. the fold is realisable. *)

val fold_of_pairs : Truth_table.t -> (int * int) list -> fold
(** Complete fold record for an explicit accepted pair list: derives
    singles, row order and split points.  Raises [Invalid_argument]
    if a column appears twice, two paired columns share a row, or the
    precedence relation is cyclic — i.e. iff the pair list would fail
    [disjoint]/[acyclic].  [fold_of_pairs tt (plan tt).pairs] equals
    [plan tt]. *)

val n_slots : fold -> int
(** Physical input slots = pairs + singles. *)

val columns_saved : Truth_table.t -> fold -> int
(** 2 physical columns per folded pair. *)

type t = {
  cell : Rsg_layout.Cell.t;
  table : Truth_table.t;
  fold : fold;
  sample : Sample.t;
}

val generate : ?sample:Sample.t -> ?name:string -> Truth_table.t -> t
(** The folded PLA layout under the greedy [plan]. *)

val generate_fold :
  ?sample:Sample.t -> ?name:string -> Truth_table.t -> fold -> t
(** The folded PLA layout under an explicit fold (see
    [fold_of_pairs]) — the evaluation kernel for search-based folding
    optimisation. *)

val read_back : t -> Truth_table.t
(** Personality recovered from the folded geometry, row order and
    fold undone. *)

val verify : t -> bool
