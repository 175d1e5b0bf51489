open Rsg_geom
open Rsg_layout
module Scanline = Rsg_compact.Scanline
module Obs = Rsg_obs.Obs
module Par = Rsg_par.Par

exception Unknown_terminal of string

type device = {
  gate : Box.t;
  poly_item : int;
  diff_item : int;
  gate_net : int;
}

type netlist = {
  items : Scanline.item array;
  nets : int array;
  n_nets : int;
  devices : device list;
  terminals : (string * int) list;
}

let proper_overlap (a : Box.t) (b : Box.t) =
  a.Box.xmin < b.Box.xmax && b.Box.xmin < a.Box.xmax && a.Box.ymin < b.Box.ymax
  && b.Box.ymin < a.Box.ymax

let is_conductor = function
  | Layer.Metal | Layer.Poly | Layer.Diffusion | Layer.Contact
  | Layer.Contact_cut ->
    true
  | Layer.Implant | Layer.Buried | Layer.Overglass -> false

(* first index with keys.(i) >= x *)
let lower_bound keys x =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Raw gate regions — one per maximal poly-over-diffusion overlap —
   in deterministic per-poly order, plus the union-find classes that
   merge touching same-net regions into one transistor.  Diffusion is
   sorted by xmin once; each poly box then scans only the window of
   diffusion boxes whose x-span can reach it, instead of the full
   quadratic product.  The per-poly scans are independent, so they fan
   out across domains; results come back in poly order regardless of
   scheduling. *)
let gate_regions ?domains (items : Scanline.item array) nets =
  let n = Array.length items in
  let layer_indices l =
    let buf = ref [] in
    for i = n - 1 downto 0 do
      if items.(i).Scanline.layer = l then buf := i :: !buf
    done;
    Array.of_list !buf
  in
  let polys = layer_indices Layer.Poly in
  let diffs =
    (* ascending item indices, so (xmin, position) is (xmin, item) *)
    let unsorted = layer_indices Layer.Diffusion in
    Array.map
      (fun k -> unsorted.(k))
      (Scanline.order_by (Array.length unsorted) (fun k ->
           items.(unsorted.(k)).Scanline.box.Box.xmin))
  in
  let diff_xmins =
    Array.map (fun j -> items.(j).Scanline.box.Box.xmin) diffs
  in
  let max_diff_width =
    Array.fold_left
      (fun acc j -> max acc (Box.width items.(j).Scanline.box))
      0 diffs
  in
  let gates_of_poly i =
    let pb = items.(i).Scanline.box in
    let out = ref [] in
    let k = ref (lower_bound diff_xmins (pb.Box.xmin - max_diff_width)) in
    while !k < Array.length diffs && diff_xmins.(!k) < pb.Box.xmax do
      let j = diffs.(!k) in
      let db = items.(j).Scanline.box in
      (if proper_overlap pb db then
         match Box.intersect pb db with
         | Some g ->
           out :=
             { gate = g; poly_item = i; diff_item = j; gate_net = nets.(i) }
             :: !out
         | None -> ());
      incr k
    done;
    List.rev !out
  in
  let per_poly = Par.chunked_map ?domains ~chunk:16 gates_of_poly polys in
  let gates = Array.of_list (List.concat (Array.to_list per_poly)) in
  (* merge touching gate regions of the same gate net, via the shared
     plane sweep instead of the old all-pairs loop *)
  let parent = Array.init (Array.length gates) Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  Scanline.sweep_pairs
    (Array.map (fun d -> d.gate) gates)
    (fun i j ->
      if
        gates.(i).gate_net = gates.(j).gate_net
        && Box.overlaps gates.(i).gate gates.(j).gate
      then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end);
  (gates, Array.init (Array.length gates) find)

let of_items ?(rules = Rsg_compact.Rules.default) ?domains items labels =
  let nets = Obs.span "extract.nets" @@ fun () -> Scanline.nets_of rules items in
  let n = Array.length items in
  (* count distinct nets over conductor items only *)
  let reps = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    if is_conductor items.(i).Scanline.layer then
      Hashtbl.replace reps nets.(i) ()
  done;
  let devices =
    Obs.span "extract.devices" @@ fun () ->
    let gates, classes = gate_regions ?domains items nets in
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    Array.iteri
      (fun i d ->
        let r = classes.(i) in
        match Hashtbl.find_opt tbl r with
        | None ->
          Hashtbl.replace tbl r d;
          order := r :: !order
        | Some d0 ->
          Hashtbl.replace tbl r { d0 with gate = Box.union d0.gate d.gate })
      gates;
    List.rev_map (fun r -> Hashtbl.find tbl r) !order
  in
  let terminals =
    Obs.span "extract.terminals" @@ fun () ->
    let hunt (text, at) =
      let rec go i =
        if i >= n then None
        else if
          is_conductor items.(i).Scanline.layer
          && Box.contains items.(i).Scanline.box at
        then Some (text, nets.(i))
        else go (i + 1)
      in
      go 0
    in
    Array.to_list (Par.map ?domains hunt (Array.of_list labels))
    |> List.filter_map Fun.id
  in
  Obs.count ~n:(List.length devices) "extract.devices";
  { items; nets; n_nets = Hashtbl.length reps; devices; terminals }

let of_cell ?rules ?domains cell =
  let f = Flatten.protos_flat (Flatten.prototypes cell) in
  of_items ?rules ?domains
    (Scanline.items_of_flat f)
    (Array.to_list f.Flatten.flat_labels)

let n_devices nl = List.length nl.devices

let net_of_terminal nl name = List.assoc_opt name nl.terminals

let connected nl a b =
  match net_of_terminal nl a with
  | None -> raise (Unknown_terminal a)
  | Some na -> (
    match net_of_terminal nl b with
    | None -> raise (Unknown_terminal b)
    | Some nb -> na = nb)

(* ------------------------------------------------------------------ *)
(* MOS netlists: diffusion split by the gate into source/drain nets   *)
(* ------------------------------------------------------------------ *)

type mos = {
  m_gate : Box.t;
  m_gate_net : int;
  m_source : int option;
  m_drain : int option;
}

type mos_netlist = {
  mn_items : Scanline.item array;
  mn_nets : int array;
  mn_n_nets : int;
  mn_mos : mos array;
  mn_terminals : (string * int) list;
  mn_unresolved : string list;
}

(* [f] is left of / right of / below / above rect [r] with a shared
   edge of positive length — corner-only touch is no connection. *)
let side_touch (f : Box.t) (r : Box.t) =
  let xov = min f.Box.xmax r.Box.xmax - max f.Box.xmin r.Box.xmin in
  let yov = min f.Box.ymax r.Box.ymax - max f.Box.ymin r.Box.ymin in
  if f.Box.xmax = r.Box.xmin && yov > 0 then Some `Left
  else if f.Box.xmin = r.Box.xmax && yov > 0 then Some `Right
  else if f.Box.ymax = r.Box.ymin && xov > 0 then Some `Below
  else if f.Box.ymin = r.Box.ymax && xov > 0 then Some `Above
  else None

let mos_of_items ?(rules = Rsg_compact.Rules.default) ?domains items labels =
  Obs.span "extract.mos" @@ fun () ->
  let nets0 = Scanline.nets_of rules items in
  let gates, classes = gate_regions ?domains items nets0 in
  let ng = Array.length gates in
  (* gate rects per diffusion item, in raw gate order *)
  let cuts_of_diff : (int, Box.t list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt cuts_of_diff g.diff_item)
      in
      Hashtbl.replace cuts_of_diff g.diff_item (g.gate :: prev))
    gates;
  (* rebuild the item array with each diffusion box replaced by its
     gate-free fragments; non-diffusion items keep their layer and box
     and are remapped to their new index *)
  let n = Array.length items in
  let remap = Array.make n (-1) in
  let out = ref [] and count = ref 0 in
  let frags_of_diff : (int, (int * Box.t) list) Hashtbl.t = Hashtbl.create 16 in
  let push it =
    out := it :: !out;
    let idx = !count in
    incr count;
    idx
  in
  Array.iteri
    (fun j it ->
      if it.Scanline.layer = Layer.Diffusion then begin
        let cuts =
          List.rev
            (Option.value ~default:[] (Hashtbl.find_opt cuts_of_diff j))
        in
        let frags =
          List.fold_left
            (fun fs cut -> List.concat_map (fun f -> Box.subtract f cut) fs)
            [ it.Scanline.box ] cuts
        in
        List.iter
          (fun b ->
            let idx = push { Scanline.layer = Layer.Diffusion; box = b } in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt frags_of_diff j)
            in
            Hashtbl.replace frags_of_diff j ((idx, b) :: prev))
          frags
      end
      else remap.(j) <- push it)
    items;
  let mn_items = Array.of_list (List.rev !out) in
  let mn_nets = Scanline.nets_of rules mn_items in
  let reps = Hashtbl.create 16 in
  Array.iteri
    (fun i it ->
      if is_conductor it.Scanline.layer then Hashtbl.replace reps mn_nets.(i) ())
    mn_items;
  (* source/drain per merged transistor: the nets of the diffusion
     fragments sharing an edge with its gate rects.  Left/below
     fragments are the source side, right/above the drain side — a
     fixed geometric convention, so the triple is deterministic.  A
     side with no fragment (the gate runs to the diffusion edge) stays
     [None]: a dangling device for the ERC. *)
  let mos_tbl : (int, mos) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let pick old n =
    match old with Some m when m <= n -> old | _ -> Some n
  in
  for gi = 0 to ng - 1 do
    let g = gates.(gi) in
    let r = classes.(gi) in
    let cur =
      match Hashtbl.find_opt mos_tbl r with
      | Some m -> m
      | None ->
        order := r :: !order;
        { m_gate = g.gate;
          m_gate_net = mn_nets.(remap.(g.poly_item));
          m_source = None;
          m_drain = None }
    in
    let cur = ref { cur with m_gate = Box.union cur.m_gate g.gate } in
    List.iter
      (fun (idx, b) ->
        match side_touch b g.gate with
        | Some (`Left | `Below) ->
          cur := { !cur with m_source = pick !cur.m_source mn_nets.(idx) }
        | Some (`Right | `Above) ->
          cur := { !cur with m_drain = pick !cur.m_drain mn_nets.(idx) }
        | None -> ())
      (List.rev
         (Option.value ~default:[] (Hashtbl.find_opt frags_of_diff g.diff_item)));
    Hashtbl.replace mos_tbl r !cur
  done;
  let mn_mos =
    Array.of_list (List.rev_map (fun r -> Hashtbl.find mos_tbl r) !order)
  in
  (* terminals against the split geometry; labels over no conductor
     (e.g. over a gate channel) are reported, not dropped *)
  let mn = Array.length mn_items in
  let resolved =
    let hunt (text, at) =
      let rec go i =
        if i >= mn then (text, None)
        else if
          is_conductor mn_items.(i).Scanline.layer
          && Box.contains mn_items.(i).Scanline.box at
        then (text, Some mn_nets.(i))
        else go (i + 1)
      in
      go 0
    in
    Array.to_list (Par.map ?domains hunt (Array.of_list labels))
  in
  let mn_terminals =
    List.filter_map
      (fun (t, n) -> match n with Some n -> Some (t, n) | None -> None)
      resolved
  in
  let mn_unresolved =
    List.filter_map
      (fun (t, n) -> match n with None -> Some t | Some _ -> None)
      resolved
  in
  Obs.count ~n:(Array.length mn_mos) "extract.mos";
  { mn_items;
    mn_nets;
    mn_n_nets = Hashtbl.length reps;
    mn_mos;
    mn_terminals;
    mn_unresolved }

let mos_of_cell ?rules ?domains cell =
  let f = Flatten.protos_flat (Flatten.prototypes cell) in
  mos_of_items ?rules ?domains
    (Scanline.items_of_flat f)
    (Array.to_list f.Flatten.flat_labels)

let n_mos mn = Array.length mn.mn_mos
