(** Circuit extraction (the thesis's flow used EXCL [23] for this
    step: "using the RSG for layout generation, EXCL for circuit
    extraction, and SPICE for circuit simulation").

    A deliberately small extractor over flattened box geometry:

    - {e nets}: connected components of touching geometry on
      connecting layers (the same union-find the compactor uses);
    - {e devices}: MOS transistors, one per maximal poly-over-diffusion
      overlap region, with gate dimensions;
    - {e terminals}: labels resolved to the net under them.

    Enough to close the generation -> extraction loop in tests: the
    multiplier's transistor census must follow its personalisation
    rules, and every named terminal must land on a distinct net. *)

open Rsg_geom
open Rsg_layout

exception Unknown_terminal of string
(** A terminal name that resolves to no net — raised by {!connected}
    with the offending label, so callers can say which of the two
    names was missing. *)

type device = {
  gate : Box.t;        (** the poly-diffusion overlap region *)
  poly_item : int;
  diff_item : int;
  gate_net : int;      (** net of the poly gate *)
}

type netlist = {
  items : Rsg_compact.Scanline.item array;
  nets : int array;          (** per item, representative index *)
  n_nets : int;              (** distinct conductor nets *)
  devices : device list;
  terminals : (string * int) list;  (** label -> net (labels on conductors) *)
}

val of_items :
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  Rsg_compact.Scanline.item array -> (string * Vec.t) list -> netlist
(** Extract from flat geometry plus labels.  Device detection scans a
    sorted diffusion window per poly box (no all-pairs loop) and fans
    the per-poly scans plus terminal resolution out across [domains]
    domains ({!Rsg_par.Par.default_domains} when omitted); results are
    identical for every pool size.  Instrumented with [Obs] spans
    ([extract.nets], [extract.devices], [extract.terminals]). *)

val of_cell : ?rules:Rsg_compact.Rules.t -> ?domains:int -> Cell.t -> netlist
(** {!of_items} over the cell's prototype flat
    ({!Rsg_layout.Flatten.protos_flat}). *)

val n_devices : netlist -> int

val net_of_terminal : netlist -> string -> int option

val connected : netlist -> string -> string -> bool
(** Do two named terminals share a net?  Raises {!Unknown_terminal}
    naming the first label (left argument checked first) that resolves
    to no net. *)

(** {1 MOS netlists}

    The richer extraction the ERC runs on: each diffusion box is split
    into the fragments left over around its gate regions
    ({!Rsg_geom.Box.subtract}), nets are recomputed over the split
    geometry — so the channel no longer shorts source to drain — and
    every merged transistor becomes a (gate, source, drain) net
    triple. *)

type mos = {
  m_gate : Box.t;      (** union of the merged gate regions *)
  m_gate_net : int;    (** net of the poly gate, in [mn_nets] space *)
  m_source : int option;
      (** net of the diffusion fragments on the left/below side of the
          gate; [None] when the gate runs to the diffusion edge *)
  m_drain : int option;  (** right/above side, same convention *)
}

type mos_netlist = {
  mn_items : Rsg_compact.Scanline.item array;
      (** the input items with each diffusion box replaced by its
          gate-free fragments (deterministic order) *)
  mn_nets : int array;   (** per split item, representative index *)
  mn_n_nets : int;       (** distinct conductor nets after the split *)
  mn_mos : mos array;
  mn_terminals : (string * int) list;
  mn_unresolved : string list;
      (** labels over no conductor (e.g. over a gate channel), in
          input order — [of_items] silently drops these *)
}

val mos_of_items :
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  Rsg_compact.Scanline.item array -> (string * Vec.t) list -> mos_netlist
(** Split-diffusion extraction.  Device census and merging agree with
    {!of_items} ([n_mos] equals [n_devices] on the same geometry);
    results are identical for every pool size.  Instrumented with the
    [extract.mos] Obs span and counter. *)

val mos_of_cell :
  ?rules:Rsg_compact.Rules.t -> ?domains:int -> Cell.t -> mos_netlist
(** {!mos_of_items} over the cell's prototype flat. *)

val n_mos : mos_netlist -> int
