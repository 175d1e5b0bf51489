(** Static electrical rule checking over extracted netlists.

    The thesis's verification flow ran EXCL extraction and SPICE
    simulation downstream of the generator; this module is the static
    half of that loop: structural electrical rules over the
    {!Rsg_extract.Extract.mos_netlist} (gate/source/drain net triples
    from split-diffusion extraction), reported through the
    {!Rsg_lint.Diag} core so lint, DRC and ERC findings render and
    serialize uniformly.

    {2 Rules}

    - [E300] {e supply-short} (error): one net carries both a
      power-rail and a ground-rail terminal name;
    - [E301] {e floating-gate}: a net drives MOS gates but nothing
      drives it — no source/drain, no terminal, no boundary port;
    - [E302] {e undriven-net}: a conductor net with neither drivers
      nor loads (isolated geometry);
    - [E303] {e dangling-device}: a gate runs to the diffusion edge,
      leaving the transistor without a source or drain;
    - [E304] {e fanout-limit}: a net drives more gates than the
      configured limit;
    - [E305] {e no-rail-path}: a net joins transistor channels but no
      source/drain path reaches a supply rail or port;
    - [E306] {e rails-absent} (info): rail names were configured but
      no terminal matched, so rail checks were skipped.

    E301-E305 are warnings by default and errors under
    [strict] — the sample library's personalisation style (masks
    overlaying cells) legitimately leaves e.g. unpersonalised gate
    stubs, and {!Rsg_lint.Diag.clean} already draws the line at
    errors.

    {2 Hierarchy and caching}

    {!check_protos} follows [Drc.check_protos]: one verdict per
    distinct celltype, content-addressed by subtree hash so the store
    can replay it, computed fresh only for dirty prototypes and fanned
    out over the {!Rsg_par.Par} pool.  Unlike the DRC — whose rules
    are local, so responsibility partitions by halo — electrical
    judgement is global: a leaf gate's driver routinely lives in a
    sibling personalisation mask placed deep inside the parent, so
    non-root verdicts carry only censuses (net/device/boundary/rail
    counts) and the root level, whose local flat is the whole design,
    carries the diagnostics.  Results are bit-identical for every
    domain count. *)

open Rsg_geom

type config = {
  vdd_names : string list;  (** terminal names treated as power rails *)
  gnd_names : string list;  (** terminal names treated as ground rails *)
  max_fanout : int;         (** E304 threshold *)
  ports_at_boundary : bool;
      (** treat nets reaching within [Rules.max_spacing] of the design
          bbox edge as externally driven ports *)
  strict : bool;  (** escalate E301-E305 to errors *)
}

val default_config : config
(** vdd/vcc/pwr and gnd/vss/ground (case-insensitive), fanout 16,
    boundary ports on, strict off. *)

val config_digest : config -> Rsg_compact.Rules.t -> string
(** Raw 16-byte MD5 over the full config and the rule deck's
    {!Rsg_compact.Rules.digest} — the deck half of the verdict cache
    key ([strict] is included because stored severities depend on
    it; the deck because connectivity and the boundary band do). *)

type cached_verdict = {
  cv_nets : int;      (** distinct conductor nets in the local flat *)
  cv_devices : int;   (** merged MOS transistors *)
  cv_open : int;      (** nets reaching the local boundary band *)
  cv_rails : int;     (** nets carrying a matched rail terminal *)
  cv_diags : Rsg_lint.Diag.t list;  (** empty on non-root levels *)
}
(** What the store keeps per (subtree hash, config digest): enough to
    replay a level without touching its geometry. *)

type level = {
  l_cell : string;
  l_hash : string;        (** subtree hex digest *)
  l_placements : int;     (** whole-design instance count *)
  l_verdict : cached_verdict;
  l_cached : bool;
}

type report = {
  r_digest : string;      (** hex {!config_digest} *)
  r_levels : level list;  (** postorder, root last *)
  r_cached : int;
  r_nets : int;           (** whole-design nets (root level) *)
  r_devices : int;
  r_rails : int;
}

val check_items :
  ?cfg:config ->
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  Rsg_compact.Scanline.item array ->
  (string * Vec.t) list ->
  cached_verdict * Rsg_lint.Diag.report
(** Adjudicate one flat geometry (root semantics).  The per-net
    classification fans out over [domains]; results are identical for
    every pool size.  Instrumented with the [erc.flat] Obs span. *)

val check_protos :
  ?cfg:config ->
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  ?cached:(string -> cached_verdict option) ->
  Rsg_layout.Flatten.protos ->
  report
(** Hierarchical check.  [cached] is consulted with each prototype's
    subtree hex digest (the caller pairs it with {!config_digest});
    a hit replays the stored verdict without building that level's
    flat.  Fresh non-root censuses fan out over the pool
    ({!Rsg_layout.Flatten.cached_map}); the root is adjudicated on the
    calling domain so its per-net fan can use the pool.  Instrumented
    with [erc.hier]. *)

val check_cell :
  ?cfg:config ->
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  ?cached:(string -> cached_verdict option) ->
  Rsg_layout.Cell.t ->
  report
(** {!check_protos} over [Flatten.prototypes cell]. *)

val to_diags : ?source:string -> report -> Rsg_lint.Diag.report
(** All levels' diagnostics as one sorted report; [checked] is the
    whole-design net count.  [source] defaults to ["erc"]. *)

val clean : report -> bool
(** No error-severity diagnostics ({!Rsg_lint.Diag.clean}). *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Rsg_obs.Json.t
(** Deterministic JSON:
    [{"digest":...,"nets":n,"devices":n,"rails":n,"cached":n,
      "levels":[{"cell":...,"hash":...,"placements":n,"nets":n,
      "devices":n,"open":n,"cached":b},...],
      "diagnostics":<Diag.report_to_json>}]. *)

val self_check :
  ?cfg:config ->
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  Rsg_compact.Scanline.item array ->
  (string * Vec.t) list ->
  (Box.t * Rsg_lint.Diag.t, string) result
(** Mutation self-check: inject a poly strip crossing a diffusion box
    (clear of all existing poly and contacts, so it forms exactly one
    new transistor with a floating gate) and verify the checker
    reports {e exactly} one new E301 and no other per-code count
    change.  Counts, not messages, are compared — net identifiers
    renumber globally when an item is added.  Returns the probe box
    and the new diagnostic, or an error if no admissible probe site
    exists or some site perturbs other codes. *)

val self_check_cell :
  ?cfg:config ->
  ?rules:Rsg_compact.Rules.t ->
  ?domains:int ->
  Rsg_layout.Cell.t ->
  (Box.t * Rsg_lint.Diag.t, string) result
