(** Graph-based difference-constraint systems (section 6.3).

    Vertices stand for the abscissas of vertical box edges; a directed
    edge [(i, j, w)] states the minimum-spacing constraint
    [x_j - x_i >= w].  Variable 0 is the fixed origin ([x_0 = 0]).
    Weights may be negative (rigid-width back edges), which is why the
    solver is Bellman-Ford rather than Dijkstra. *)

type t

type constr = { c_from : int; c_to : int; c_gap : int }

val create : unit -> t

val origin : int
(** Variable 0, pinned to coordinate 0. *)

val fresh_var : t -> ?name:string -> init:int -> unit -> int
(** [init] is the variable's abscissa in the initial layout — used
    both as the solver's warm start hint and by the sorted-edge
    optimisation of section 6.4.2. *)

val n_vars : t -> int

val init_value : t -> int -> int

val name : t -> int -> string

val add_ge : t -> from:int -> to_:int -> gap:int -> unit
(** [x_to - x_from >= gap]. *)

val add_eq : t -> from:int -> to_:int -> gap:int -> unit
(** [x_to - x_from = gap], as a pair of inequalities. *)

val constraints : t -> constr list
(** In insertion order. *)

val edges : t -> int array * int array * int array
(** The graph's own constraint storage [(from, to, gap)], in insertion
    order: entry [i] of the three arrays is constraint [i] for
    [i < n_constraints t]; later entries are spare capacity.  Shared,
    not copied — read it before the next {!add_ge} and never write
    it.  The solvers' flat view; {!constraints} builds records. *)

val n_constraints : t -> int

val satisfied : t -> int array -> bool
(** Do the given values satisfy every constraint (with [x_0 = 0])? *)
