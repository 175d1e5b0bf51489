(** Design-rule decks and their textual DSL.

    A deck is a named list of geometric rules over {!Layer.t} mask
    layers, in lambda units:

    - [Width (l, w)] — every maximal run of merged layer-[l] geometry
      must be at least [w] wide in both axes;
    - [Spacing (a, b, s)] — facing edges of distinct regions on layers
      [a]/[b] must be at least [s] apart (order-insensitive);
    - [Enclosure (inner, covers, m)] — every point within distance [m]
      of layer [inner] must lie on the union of the [covers] layers;
    - [Overlap (a, b, k)] — where layers [a] and [b] overlap at all,
      the shared region must be at least [k] wide in some axis.

    The textual form is one rule per line ([#] comments):

    {v
deck nmos-lambda
width metal 3
spacing metal metal 2
enclosure contact metal|poly|diffusion 0
overlap poly diffusion 2
    v} *)

open Rsg_geom

type rule =
  | Width of Layer.t * int
  | Spacing of Layer.t * Layer.t * int
  | Enclosure of Layer.t * Layer.t list * int
  | Overlap of Layer.t * Layer.t * int

type t

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val make : ?name:string -> rule list -> t

val name : t -> string

val rules : t -> rule list

val width : t -> Layer.t -> int option

val spacing : t -> Layer.t -> Layer.t -> int option
(** Symmetric in the two layers. *)

val enclosures : t -> (Layer.t * Layer.t list * int) list

val overlaps : t -> (Layer.t * Layer.t * int) list

val default : t
(** The lambda deck of the NMOS layers the generators draw, calibrated
    to the sample library's own discipline: generated PLA, RAM and
    multiplier layouts — before and after compaction — check clean
    against it. *)

val of_compact_rules : ?name:string -> Rsg_compact.Rules.t -> t
(** Bridge from the compactor's pairwise rules (widths and spacings
    only).  Note the compactor's packing gaps can be deliberately
    looser or tighter than the drawn geometry's lambda rules. *)

val of_string : string -> t
(** Parse the DSL.  Raises {!Parse_error}. *)

val read_file : string -> t

val to_string : t -> string
(** Canonical DSL text; [of_string (to_string t)] is [t]. *)

val halo : t -> int
(** The interaction range of the deck: the largest distance any of its
    rules measures across (at least 1).  Geometry farther apart than
    the halo can never violate a rule together — the window margin of
    the hierarchical checker ({!Rsg_drc.Drc.check_protos}). *)

val digest : t -> string
(** Raw 16-byte MD5 of the canonical DSL text — the key under which
    per-prototype check results are cached, so results from a
    different deck are never reused. *)

val rule_id : rule -> string
(** Stable identifier, e.g. ["width.metal"], ["spacing.metal.metal"] —
    the key used in violation reports. *)
