open Rsg_geom
open Rsg_layout
module Scanline = Rsg_compact.Scanline
module Rules = Rsg_compact.Rules
module Extract = Rsg_extract.Extract
module Diag = Rsg_lint.Diag
module Obs = Rsg_obs.Obs
module Par = Rsg_par.Par

type config = {
  vdd_names : string list;
  gnd_names : string list;
  max_fanout : int;
  ports_at_boundary : bool;
  strict : bool;
}

let default_config =
  { vdd_names = [ "vdd"; "vcc"; "vdd!"; "pwr" ];
    gnd_names = [ "gnd"; "vss"; "gnd!"; "ground" ];
    max_fanout = 16;
    ports_at_boundary = true;
    strict = false }

(* The cache key must cover everything that can change a stored
   verdict: the name lists and fanout limit obviously, [strict]
   because it is baked into the stored severities, and the rule deck
   because connectivity itself ([Rules.connects]) and the boundary
   band ([Rules.max_spacing]) depend on it. *)
let config_digest cfg rules =
  let canon l =
    String.concat "," (List.sort String.compare (List.map String.lowercase_ascii l))
  in
  Digest.string
    (Printf.sprintf "erc1|vdd=%s|gnd=%s|fanout=%d|ports=%b|strict=%b|%s"
       (canon cfg.vdd_names) (canon cfg.gnd_names) cfg.max_fanout
       cfg.ports_at_boundary cfg.strict (Rules.digest rules))

type cached_verdict = {
  cv_nets : int;
  cv_devices : int;
  cv_open : int;
  cv_rails : int;
  cv_diags : Diag.t list;
}

type level = {
  l_cell : string;
  l_hash : string;
  l_placements : int;
  l_verdict : cached_verdict;
  l_cached : bool;
}

type report = {
  r_digest : string;          (* hex of [config_digest] *)
  r_levels : level list;
  r_cached : int;
  r_nets : int;
  r_devices : int;
  r_rails : int;
}

(* ------------------------------------------------------------------ *)
(* One flat adjudication                                              *)
(* ------------------------------------------------------------------ *)

let is_conductor = function
  | Layer.Metal | Layer.Poly | Layer.Diffusion | Layer.Contact
  | Layer.Contact_cut ->
    true
  | Layer.Implant | Layer.Buried | Layer.Overglass -> false

let erode m (b : Box.t) =
  let b' =
    { Box.xmin = b.Box.xmin + m;
      ymin = b.Box.ymin + m;
      xmax = b.Box.xmax - m;
      ymax = b.Box.ymax - m }
  in
  if b'.Box.xmin >= b'.Box.xmax || b'.Box.ymin >= b'.Box.ymax then None
  else Some b'

let box_within (z : Box.t) (w : Box.t) =
  z.Box.xmin <= w.Box.xmin && w.Box.xmax <= z.Box.xmax && z.Box.ymin <= w.Box.ymin
  && w.Box.ymax <= z.Box.ymax

let bstr (b : Box.t) =
  Printf.sprintf "[%d,%d..%d,%d]" b.Box.xmin b.Box.ymin b.Box.xmax b.Box.ymax

(* Full adjudication of one flat geometry.  [adjudicate = false]
   computes only the censuses (net, device, boundary-net and rail-net
   counts) — what a non-root level stores; every judgement about
   drivers and loads needs the whole design's connectivity, because a
   leaf gate's driver routinely lives in a sibling personalisation
   mask deep inside the parent, so floating/undriven/short verdicts
   are only meaningful on the root's flat view. *)
let verdict ~cfg ~rules ?domains ~adjudicate items labels =
  let mn = Extract.mos_of_items ~rules ?domains items labels in
  let n_items = Array.length mn.Extract.mn_items in
  let margin = Rules.max_spacing rules in
  (* per-net attribute tables, keyed by representative item index;
     built sequentially, read-only during the classification fan *)
  let net_bbox : (int, Box.t) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n_items - 1 do
    let it = mn.Extract.mn_items.(i) in
    if is_conductor it.Scanline.layer then begin
      let r = mn.Extract.mn_nets.(i) in
      let b =
        match Hashtbl.find_opt net_bbox r with
        | Some b0 -> Box.union b0 it.Scanline.box
        | None -> it.Scanline.box
      in
      Hashtbl.replace net_bbox r b
    end
  done;
  let design_bbox =
    Hashtbl.fold
      (fun _ b acc ->
        match acc with None -> Some b | Some a -> Some (Box.union a b))
      net_bbox None
  in
  let reaches_boundary r =
    match design_bbox with
    | None -> false
    | Some db -> (
      match erode margin db with
      | None -> true
      | Some core -> not (box_within core (Hashtbl.find net_bbox r)))
  in
  let has_term : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let vdd_on : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let gnd_on : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let mem_name names n =
    List.mem (String.lowercase_ascii n) (List.map String.lowercase_ascii names)
  in
  List.iter
    (fun (name, net) ->
      Hashtbl.replace has_term net ();
      if mem_name cfg.vdd_names name then
        Hashtbl.replace vdd_on net
          (name :: Option.value ~default:[] (Hashtbl.find_opt vdd_on net));
      if mem_name cfg.gnd_names name then
        Hashtbl.replace gnd_on net
          (name :: Option.value ~default:[] (Hashtbl.find_opt gnd_on net)))
    mn.Extract.mn_terminals;
  let gates_on : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let has_sd : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (m : Extract.mos) ->
      Hashtbl.replace gates_on m.Extract.m_gate_net
        (1 + Option.value ~default:0 (Hashtbl.find_opt gates_on m.Extract.m_gate_net));
      Option.iter (fun s -> Hashtbl.replace has_sd s ()) m.Extract.m_source;
      Option.iter (fun d -> Hashtbl.replace has_sd d ()) m.Extract.m_drain)
    mn.Extract.mn_mos;
  let reps =
    let l = Hashtbl.fold (fun r _ acc -> r :: acc) net_bbox [] in
    let a = Array.of_list l in
    Array.sort Int.compare a;
    a
  in
  let is_rail r = Hashtbl.mem vdd_on r || Hashtbl.mem gnd_on r in
  let n_rails = Array.fold_left (fun a r -> if is_rail r then a + 1 else a) 0 reps in
  let n_open =
    Array.fold_left (fun a r -> if reaches_boundary r then a + 1 else a) 0 reps
  in
  let census =
    { cv_nets = mn.Extract.mn_n_nets;
      cv_devices = Extract.n_mos mn;
      cv_open = n_open;
      cv_rails = n_rails;
      cv_diags = [] }
  in
  if not adjudicate then census
  else begin
    let warn = if cfg.strict then Some Diag.Error else None in
    let diags = ref [] in
    let add d = diags := d :: !diags in
    (* E300: one net carrying both a power and a ground rail name —
       always an error, strict or not *)
    Array.iter
      (fun r ->
        match (Hashtbl.find_opt vdd_on r, Hashtbl.find_opt gnd_on r) with
        | Some vs, Some gs ->
          add
            (Diag.make "E300"
               "net %d %s shorts supply rails: carries %s and %s" r
               (bstr (Hashtbl.find net_bbox r))
               (String.concat "," (List.sort String.compare vs))
               (String.concat "," (List.sort String.compare gs)))
        | _ -> ())
      reps;
    (* E306: the deck asked for rail checks but no terminal matched *)
    if n_rails = 0 && (cfg.vdd_names <> [] || cfg.gnd_names <> []) then
      add
        (Diag.make "E306"
           "no terminal matches a supply rail name (vdd: %s; gnd: %s); \
            rail-reachability checks are skipped"
           (String.concat "," cfg.vdd_names)
           (String.concat "," cfg.gnd_names));
    (* E303: a gate running to the diffusion edge leaves the device
       with no source or drain fragment on that side *)
    Array.iteri
      (fun i (m : Extract.mos) ->
        let miss =
          match (m.Extract.m_source, m.Extract.m_drain) with
          | None, None -> Some "source or drain"
          | None, Some _ -> Some "source"
          | Some _, None -> Some "drain"
          | Some _, Some _ -> None
        in
        match miss with
        | Some side ->
          add
            (Diag.make ?severity:warn "E303"
               "transistor %d (gate %s) has no %s diffusion: the gate \
                runs to the diffusion edge"
               i (bstr m.Extract.m_gate) side)
        | None -> ())
      mn.Extract.mn_mos;
    (* rail reachability: breadth-first over the source<->drain channel
       graph, seeded at the rail nets (and, when ports count, at
       boundary nets — an off-chip supply enters through a port) *)
    let reached : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    if n_rails > 0 then begin
      let adj : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      Array.iter
        (fun (m : Extract.mos) ->
          match (m.Extract.m_source, m.Extract.m_drain) with
          | Some s, Some d when s <> d ->
            Hashtbl.replace adj s (d :: Option.value ~default:[] (Hashtbl.find_opt adj s));
            Hashtbl.replace adj d (s :: Option.value ~default:[] (Hashtbl.find_opt adj d))
          | _ -> ())
        mn.Extract.mn_mos;
      let queue = Queue.create () in
      let seed r = if not (Hashtbl.mem reached r) then begin
        Hashtbl.replace reached r ();
        Queue.add r queue
      end in
      Array.iter
        (fun r ->
          if is_rail r || (cfg.ports_at_boundary && reaches_boundary r) then
            seed r)
        reps;
      while not (Queue.is_empty queue) do
        let r = Queue.pop queue in
        List.iter seed (Option.value ~default:[] (Hashtbl.find_opt adj r))
      done
    end;
    (* per-net classification: the tables above are frozen now, so the
       judgements are independent and fan out across the pool; slot
       order keeps the result deterministic for any pool size *)
    let classify r =
      let out = ref [] in
      let n_gates = Option.value ~default:0 (Hashtbl.find_opt gates_on r) in
      let driven =
        Hashtbl.mem has_sd r || Hashtbl.mem has_term r || is_rail r
        || (cfg.ports_at_boundary && reaches_boundary r)
      in
      if n_gates > 0 && not driven then
        out :=
          Diag.make ?severity:warn "E301"
            "gate net %d %s drives %d gate(s) but is driven by no \
             source/drain, terminal or boundary port"
            r (bstr (Hashtbl.find net_bbox r)) n_gates
          :: !out;
      if n_gates = 0 && not driven then
        out :=
          Diag.make ?severity:warn "E302"
            "net %d %s is undriven: no source/drain, terminal or \
             boundary port connects to it"
            r (bstr (Hashtbl.find net_bbox r))
          :: !out;
      if n_gates > cfg.max_fanout then
        out :=
          Diag.make ?severity:warn "E304" "net %d %s drives %d gates (limit %d)"
            r (bstr (Hashtbl.find net_bbox r)) n_gates cfg.max_fanout
          :: !out;
      if n_rails > 0 && Hashtbl.mem has_sd r && not (Hashtbl.mem reached r)
      then
        out :=
          Diag.make ?severity:warn "E305"
            "net %d %s joins transistor channels but no source/drain \
             path reaches a supply rail or port"
            r (bstr (Hashtbl.find net_bbox r))
          :: !out;
      List.rev !out
    in
    let per_net = Par.chunked_map ?domains ~chunk:64 classify reps in
    Array.iter (fun ds -> List.iter add ds) per_net;
    { census with cv_diags = List.sort Diag.compare_diag (List.rev !diags) }
  end

(* ------------------------------------------------------------------ *)
(* Flat entry points                                                  *)
(* ------------------------------------------------------------------ *)

let check_items ?(cfg = default_config) ?(rules = Rules.default) ?domains items
    labels =
  Obs.span "erc.flat" @@ fun () ->
  let v = verdict ~cfg ~rules ?domains ~adjudicate:true items labels in
  Obs.count ~n:(List.length v.cv_diags) "erc.diags";
  (v, Diag.report ~source:"erc" ~checked:v.cv_nets v.cv_diags)

(* ------------------------------------------------------------------ *)
(* Hierarchical checking with per-prototype cached verdicts           *)
(* ------------------------------------------------------------------ *)

(* One verdict per distinct celltype through [Flatten.cached_map].
   Non-root verdicts are censuses (their diag lists are empty by
   construction) and fan out over the pool.  The root — whose local
   flat is the whole design — is adjudicated after the fan-out, on the
   calling domain, so its per-net classification can itself use the
   pool (a fan-out nested in a task runs inline): [cached_map] only
   hands back a thunk for it. *)
let check_protos ?(cfg = default_config) ?(rules = Rules.default) ?domains
    ?(cached = fun _ -> None) protos =
  Obs.span "erc.hier" @@ fun () ->
  let order = Array.of_list (Flatten.protos_order protos) in
  let n = Array.length order in
  let root_idx = n - 1 in
  let flats = Array.map (fun c -> lazy (Flatten.proto_flat protos c)) order in
  let hexes = Array.map (Flatten.subtree_hex protos) order in
  let placements = Flatten.placements protos in
  let compute ?domains ~adjudicate i =
    let f = Lazy.force flats.(i) in
    verdict ~cfg ~rules ?domains ~adjudicate
      (Scanline.items_of_flat f)
      (Array.to_list f.Flatten.flat_labels)
  in
  let verdicts =
    Flatten.cached_map ?domains
      ~cached:(fun hex -> Option.map Lazy.from_val (cached hex))
      ~prepare:(fun i -> if i <> root_idx then ignore (Lazy.force flats.(i)))
      ~compute:(fun i ->
        if i = root_idx then lazy (compute ?domains ~adjudicate:true i)
        else Lazy.from_val (compute ~domains:1 ~adjudicate:false i))
      protos
  in
  let levels =
    Array.to_list
      (Array.mapi
         (fun i (cv, replayed) ->
           { l_cell = order.(i).Cell.cname;
             l_hash = hexes.(i);
             l_placements = placements.(i);
             l_verdict = Lazy.force cv;
             l_cached = replayed })
         verdicts)
  in
  let n_cached =
    List.fold_left (fun a l -> a + if l.l_cached then 1 else 0) 0 levels
  in
  let root = List.nth levels root_idx in
  Obs.count ~n "erc.hier.levels";
  Obs.count ~n:n_cached "erc.hier.cached";
  Obs.count ~n:root.l_verdict.cv_nets "erc.hier.nets";
  Obs.count ~n:(List.length root.l_verdict.cv_diags) "erc.diags";
  { r_digest = Digest.to_hex (config_digest cfg rules);
    r_levels = levels;
    r_cached = n_cached;
    r_nets = root.l_verdict.cv_nets;
    r_devices = root.l_verdict.cv_devices;
    r_rails = root.l_verdict.cv_rails }

let check_cell ?cfg ?rules ?domains ?cached cell =
  check_protos ?cfg ?rules ?domains ?cached (Flatten.prototypes cell)

let to_diags ?(source = "erc") r =
  Diag.report ~source ~checked:r.r_nets
    (List.concat_map (fun l -> l.l_verdict.cv_diags) r.r_levels)

let clean r = Diag.clean (to_diags r)

let pp_report ppf r =
  let d = to_diags r in
  let count sev =
    List.length (List.filter (fun (x : Diag.t) -> x.Diag.severity = sev) d.Diag.r_diags)
  in
  Format.fprintf ppf
    "erc %s: %d net(s), %d device(s), %d rail net(s); %d level(s) (%d \
     cached); %d error(s), %d warning(s), %d note(s)"
    (String.sub r.r_digest 0 8) r.r_nets r.r_devices r.r_rails
    (List.length r.r_levels) r.r_cached (count Diag.Error)
    (count Diag.Warning) (count Diag.Info);
  List.iter
    (fun l ->
      Format.fprintf ppf "@\n  %s %s x%d: %d net(s), %d device(s), %d open%s"
        l.l_cell
        (String.sub l.l_hash 0 8)
        l.l_placements l.l_verdict.cv_nets l.l_verdict.cv_devices
        l.l_verdict.cv_open
        (if l.l_cached then " (cached)" else ""))
    r.r_levels;
  List.iter (fun x -> Format.fprintf ppf "@\n  %a" Diag.pp x) d.Diag.r_diags;
  Format.fprintf ppf "@."

let report_to_json r =
  let module Json = Rsg_obs.Json in
  let level l =
    Json.Obj
      [ ("cell", Json.String l.l_cell);
        ("hash", Json.String l.l_hash);
        ("placements", Json.Int l.l_placements);
        ("nets", Json.Int l.l_verdict.cv_nets);
        ("devices", Json.Int l.l_verdict.cv_devices);
        ("open", Json.Int l.l_verdict.cv_open);
        ("cached", Json.Bool l.l_cached) ]
  in
  Json.Obj
    [ ("digest", Json.String r.r_digest);
      ("nets", Json.Int r.r_nets);
      ("devices", Json.Int r.r_devices);
      ("rails", Json.Int r.r_rails);
      ("cached", Json.Int r.r_cached);
      ("levels", Json.List (List.map level r.r_levels));
      ("diagnostics", Diag.report_to_json (to_diags r)) ]

(* ------------------------------------------------------------------ *)
(* Mutation self-check                                                *)
(* ------------------------------------------------------------------ *)

let count_codes diags =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Diag.t) ->
      Hashtbl.replace tbl d.Diag.code
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.Diag.code)))
    diags;
  tbl

(* Candidate probe: a 2-lambda poly strip crossing a diffusion box
   top to bottom (or left to right), clear of every existing poly,
   contact and other diffusion — so it forms exactly one new
   transistor whose gate hangs on an otherwise untouched net. *)
let probe_sites items =
  let n = Array.length items in
  let clear target (strip : Box.t) =
    let ok = ref true in
    for i = 0 to n - 1 do
      if i <> target then
        match items.(i).Scanline.layer with
        | Layer.Poly | Layer.Diffusion | Layer.Contact | Layer.Contact_cut ->
          if Box.overlaps strip items.(i).Scanline.box then ok := false
        | _ -> ()
    done;
    !ok
  in
  let sites = ref [] in
  for i = 0 to n - 1 do
    let it = items.(i) in
    if it.Scanline.layer = Layer.Diffusion then begin
      let b = it.Scanline.box in
      let w = Box.width b and h = Box.height b in
      if w >= 4 then
        List.iter
          (fun frac ->
            let x0 = b.Box.xmin + max 1 (min (w - 3) (w * frac / 4)) in
            let strip =
              { Box.xmin = x0;
                ymin = b.Box.ymin - 1;
                xmax = x0 + 2;
                ymax = b.Box.ymax + 1 }
            in
            if clear i strip then sites := strip :: !sites)
          [ 2; 1; 3 ];
      if h >= 4 then
        List.iter
          (fun frac ->
            let y0 = b.Box.ymin + max 1 (min (h - 3) (h * frac / 4)) in
            let strip =
              { Box.xmin = b.Box.xmin - 1;
                ymin = y0;
                xmax = b.Box.xmax + 1;
                ymax = y0 + 2 }
            in
            if clear i strip then sites := strip :: !sites)
          [ 2; 1; 3 ]
    end
  done;
  List.rev !sites

let self_check ?(cfg = default_config) ?(rules = Rules.default) ?domains items
    labels =
  Obs.span "erc.self_check" @@ fun () ->
  let base = verdict ~cfg ~rules ?domains ~adjudicate:true items labels in
  let base_counts = count_codes base.cv_diags in
  let try_site strip =
    let mutated =
      Array.append items [| { Scanline.layer = Layer.Poly; box = strip } |]
    in
    let v = verdict ~cfg ~rules ?domains ~adjudicate:true mutated labels in
    let counts = count_codes v.cv_diags in
    let codes =
      List.sort_uniq String.compare
        (Hashtbl.fold (fun c _ acc -> c :: acc) base_counts []
        @ Hashtbl.fold (fun c _ acc -> c :: acc) counts [])
    in
    let delta c =
      Option.value ~default:0 (Hashtbl.find_opt counts c)
      - Option.value ~default:0 (Hashtbl.find_opt base_counts c)
    in
    if List.for_all (fun c -> delta c = if c = "E301" then 1 else 0) codes
    then
      (* the probe gate's net is the strip alone, so the new E301
         cites the strip's own bbox — pick it out by that *)
      List.find_opt
        (fun (d : Diag.t) ->
          d.Diag.code = "E301"
          && (let sub = bstr strip in
              let len = String.length sub and mlen = String.length d.Diag.message in
              let rec at k =
                k + len <= mlen
                && (String.sub d.Diag.message k len = sub || at (k + 1))
              in
              at 0))
        v.cv_diags
      |> Option.map (fun d -> (strip, d))
    else None
  in
  let rec first = function
    | [] ->
      Error
        "self-check found no probe site: no diffusion box admits a \
         clear crossing poly strip that perturbs only E301"
    | s :: tl -> ( match try_site s with Some r -> Ok r | None -> first tl)
  in
  first (probe_sites items)

let self_check_cell ?cfg ?rules ?domains cell =
  let f = Flatten.protos_flat (Flatten.prototypes cell) in
  self_check ?cfg ?rules ?domains
    (Scanline.items_of_flat f)
    (Array.to_list f.Flatten.flat_labels)
