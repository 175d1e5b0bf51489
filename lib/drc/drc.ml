open Rsg_geom
module Obs = Rsg_obs.Obs
module Scanline = Rsg_compact.Scanline
module Par = Rsg_par.Par

type violation = {
  v_rule : string;
  v_layers : Layer.t list;
  v_boxes : Box.t list;
  v_required : int;
  v_actual : int;
}

type report = {
  r_deck : string;
  r_violations : violation list;
  r_boxes : int;
  r_regions : int;
  r_rules : int;
}

(* ---- geometry helpers ---------------------------------------------- *)

let union_find n =
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  (find, union)

(* Region ids (representative indices) of boxes merged by closed
   touch, via the shared plane sweep. *)
let regions_of boxes =
  let n = Array.length boxes in
  let find, union = union_find n in
  Scanline.sweep_pairs boxes union;
  Array.init n find

(* Facing-edge gap: the boxes overlap strictly in one axis's
   projection and are separated in the other.  [None] for touching,
   overlapping, or corner-only pairs.  This is the separation the
   thesis's one-dimensional compactor legislates (section 6.4.1
   generates spacing constraints only between edges that face across
   a strict orthogonal overlap), so it is what the checker measures;
   corner-to-corner proximity is legal by construction. *)
let facing_gap (a : Box.t) (b : Box.t) =
  let gx = max (b.Box.xmin - a.Box.xmax) (a.Box.xmin - b.Box.xmax) in
  let gy = max (b.Box.ymin - a.Box.ymax) (a.Box.ymin - b.Box.ymax) in
  if gx > 0 && gy < 0 then Some gx
  else if gy > 0 && gx < 0 then Some gy
  else None

(* Maximal merged x-intervals per y-slab of a box list: calls
   [f ~y0 ~y1 ~x0 ~x1] for every run.  Within one region this is the
   exact horizontal extent of the merged geometry at each height. *)
let slab_runs boxes f =
  let ys =
    List.sort_uniq Int.compare
      (List.concat_map (fun (b : Box.t) -> [ b.Box.ymin; b.Box.ymax ]) boxes)
  in
  let rec go = function
    | y0 :: (y1 :: _ as tl) ->
      let spans =
        List.filter_map
          (fun (b : Box.t) ->
            if b.Box.ymin <= y0 && b.Box.ymax >= y1 then
              Some (b.Box.xmin, b.Box.xmax)
            else None)
          boxes
        |> List.sort compare
      in
      let rec merge = function
        | (a0, a1) :: (b0, b1) :: tl when b0 <= a1 ->
          merge ((a0, max a1 b1) :: tl)
        | iv :: tl -> iv :: merge tl
        | [] -> []
      in
      List.iter (fun (x0, x1) -> f ~y0 ~y1 ~x0 ~x1) (merge spans);
      go (y1 :: List.tl tl)
    | _ -> ()
  in
  go ys

let transpose (b : Box.t) =
  Box.make ~xmin:b.Box.ymin ~ymin:b.Box.xmin ~xmax:b.Box.ymax ~ymax:b.Box.xmax

(* ---- width --------------------------------------------------------- *)

(* A merged run is never shorter than the widest box it contains, so a
   narrow run can only exist in a region that contains a box narrower
   than the rule — regions of all-wide boxes are skipped without
   decomposition. *)
let width_violations layer w boxes reg emit =
  let n = Array.length boxes in
  let narrow_regions = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    if Box.width boxes.(i) < w || Box.height boxes.(i) < w then
      Hashtbl.replace narrow_regions reg.(i) ()
  done;
  let members = Hashtbl.create 8 in
  if Hashtbl.length narrow_regions > 0 then
    for i = 0 to n - 1 do
      if Hashtbl.mem narrow_regions reg.(i) then
        Hashtbl.replace members reg.(i) (boxes.(i) :: (Option.value ~default:[] (Hashtbl.find_opt members reg.(i))))
    done;
  let check_direction boxes back =
    (* gather narrow runs, then coalesce vertically-adjacent runs with
       the same interval so one thin wire reports once *)
    let runs = ref [] in
    slab_runs boxes (fun ~y0 ~y1 ~x0 ~x1 ->
        if x1 - x0 < w then runs := (x0, x1, y0, y1) :: !runs);
    let runs = List.sort compare !runs in
    let rec coalesce = function
      | (x0, x1, y0, y1) :: (x0', x1', y0', y1') :: tl
        when x0 = x0' && x1 = x1' && y1 = y0' ->
        coalesce ((x0, x1, y0, y1') :: tl)
      | r :: tl -> r :: coalesce tl
      | [] -> []
    in
    List.iter
      (fun (x0, x1, y0, y1) ->
        let b = back (Box.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1) in
        emit
          { v_rule = "width." ^ Layer.name layer;
            v_layers = [ layer ];
            v_boxes = [ b ];
            v_required = w;
            v_actual = x1 - x0 })
      (coalesce runs)
  in
  Hashtbl.iter
    (fun _ bs ->
      check_direction bs Fun.id;
      check_direction (List.map transpose bs) transpose)
    members

(* ---- spacing ------------------------------------------------------- *)

let spacing_violations la lb s geom emit =
  match (List.assoc_opt la geom, List.assoc_opt lb geom) with
  | None, _ | _, None -> ()
  | Some (ba, ra), Some (bb, rb) ->
    (* per pair of distinct regions, keep the worst (smallest) gap *)
    let best : (int * int, int * Box.t * Box.t) Hashtbl.t = Hashtbl.create 16 in
    let record ka kb g bi bj =
      let key = if ka <= kb then (ka, kb) else (kb, ka) in
      match Hashtbl.find_opt best key with
      | Some (g', _, _) when g' <= g -> ()
      | _ -> Hashtbl.replace best key (g, bi, bj)
    in
    if Layer.equal la lb then
      Scanline.sweep_pairs ~halo:s ba (fun i j ->
          if ra.(i) <> ra.(j) then
            match facing_gap ba.(i) ba.(j) with
            | Some g when g < s -> record ra.(i) ra.(j) g ba.(i) ba.(j)
            | _ -> ())
    else begin
      let na = Array.length ba in
      let combined = Array.append ba bb in
      Scanline.sweep_pairs ~halo:s combined (fun i j ->
          let i, j = (min i j, max i j) in
          (* cross-layer pairs only; touching or overlapping geometry
             on distinct layers is a device or a contact, not a
             spacing problem *)
          if i < na && j >= na && Box.distance combined.(i) combined.(j) > 0
          then
            match facing_gap combined.(i) combined.(j) with
            | Some g when g < s ->
              record ra.(i) (na + rb.(j - na)) g combined.(i) combined.(j)
            | _ -> ())
    end;
    let la', lb' = if Layer.compare la lb <= 0 then (la, lb) else (lb, la) in
    Hashtbl.iter
      (fun _ (g, bi, bj) ->
        emit
          { v_rule = "spacing." ^ Layer.name la' ^ "." ^ Layer.name lb';
            v_layers = [ la; lb ];
            v_boxes = [ bi; bj ];
            v_required = s;
            v_actual = g })
      best

(* ---- enclosure ----------------------------------------------------- *)

(* area of [q] covered by the union of [covers] (each clipped to [q]) *)
let covered_area q covers =
  let clipped = List.filter_map (Box.intersect q) covers in
  let total = ref 0 in
  slab_runs clipped (fun ~y0 ~y1 ~x0 ~x1 -> total := !total + ((x1 - x0) * (y1 - y0)));
  !total

let enclosure_violations inner covers m geom emit =
  match List.assoc_opt inner geom with
  | None -> ()
  | Some (bi, _) ->
    let cover_boxes =
      List.concat_map
        (fun l ->
          match List.assoc_opt l geom with
          | Some (bs, _) -> Array.to_list bs
          | None -> [])
        covers
    in
    let ni = Array.length bi in
    let combined = Array.append bi (Array.of_list cover_boxes) in
    let candidates = Array.make ni [] in
    Scanline.sweep_pairs ~halo:m combined (fun i j ->
        let i, j = (min i j, max i j) in
        if i < ni && j >= ni then candidates.(i) <- combined.(j) :: candidates.(i));
    Array.iteri
      (fun i box ->
        let q = Box.inflate m box in
        if Box.area q > 0 && covered_area q candidates.(i) < Box.area q then begin
          (* measured margin: the largest m' <= m that would pass *)
          let rec probe m' =
            if m' < 0 then -1
            else
              let q' = Box.inflate m' box in
              if covered_area q' candidates.(i) = Box.area q' then m'
              else probe (m' - 1)
          in
          emit
            { v_rule = "enclosure." ^ Layer.name inner;
              v_layers = inner :: covers;
              v_boxes = [ box ];
              v_required = m;
              v_actual = probe (m - 1) }
        end)
      bi

(* ---- overlap ------------------------------------------------------- *)

let overlap_violations la lb k geom emit =
  match (List.assoc_opt la geom, List.assoc_opt lb geom) with
  | None, _ | _, None -> ()
  | Some (ba, _), Some (bb, _) ->
    let na = Array.length ba in
    let combined = Array.append ba bb in
    let rects = ref [] in
    Scanline.sweep_pairs combined (fun i j ->
        let i, j = (min i j, max i j) in
        if i < na && j >= na then
          match Box.intersect combined.(i) combined.(j) with
          | Some r when Box.area r > 0 -> rects := r :: !rects
          | _ -> ());
    let rects = Array.of_list !rects in
    if Array.length rects > 0 then begin
      let reg = regions_of rects in
      let groups = Hashtbl.create 8 in
      Array.iteri
        (fun i r ->
          Hashtbl.replace groups reg.(i)
            (match Hashtbl.find_opt groups reg.(i) with
            | Some acc -> Box.union acc r
            | None -> r))
        rects;
      Hashtbl.iter
        (fun _ bbox ->
          let extent = max (Box.width bbox) (Box.height bbox) in
          if extent < k then
            emit
              { v_rule = "overlap." ^ Layer.name la ^ "." ^ Layer.name lb;
                v_layers = [ la; lb ];
                v_boxes = [ bbox ];
                v_required = k;
                v_actual = extent })
        groups
    end

(* ---- the checker --------------------------------------------------- *)

let span_of_rule = function
  | Deck.Width _ -> "drc.width"
  | Deck.Spacing _ -> "drc.spacing"
  | Deck.Enclosure _ -> "drc.enclosure"
  | Deck.Overlap _ -> "drc.overlap"

(* One rule against the per-layer merged geometry, violations in a
   local accumulator — rules share nothing, so they can run on any
   domain.  Emission order within a rule is deterministic; the global
   report is sorted below, so rule scheduling never shows. *)
let run_rule geom rule =
  let out = ref [] in
  let emit v = out := v :: !out in
  (match rule with
  | Deck.Width (l, w) -> (
    match List.assoc_opt l geom with
    | Some (boxes, reg) -> width_violations l w boxes reg emit
    | None -> ())
  | Deck.Spacing (a, b, s) -> spacing_violations a b s geom emit
  | Deck.Enclosure (inner, covers, m) ->
    enclosure_violations inner covers m geom emit
  | Deck.Overlap (a, b, k) -> overlap_violations a b k geom emit);
  !out

let check ?(deck = Deck.default) ?domains (items : Scanline.item array) =
  Obs.span "drc.check" @@ fun () ->
  let geom =
    Obs.span "drc.regions" @@ fun () ->
    (* single-pass partition into per-layer buckets, then region
       merging per layer in parallel (each layer's sweep is
       independent) *)
    let buckets = Array.make (List.length Layer.all) [] in
    Array.iter
      (fun (it : Scanline.item) ->
        let k = Layer.to_index it.Scanline.layer in
        buckets.(k) <- it.Scanline.box :: buckets.(k))
      items;
    let present =
      Array.of_list
        (List.filter_map
           (fun layer ->
             match buckets.(Layer.to_index layer) with
             | [] -> None
             | bs -> Some (layer, Array.of_list (List.rev bs)))
           Layer.all)
    in
    Array.to_list
      (Par.map ?domains
         (fun (layer, boxes) -> (layer, (boxes, regions_of boxes)))
         present)
  in
  let rules = Array.of_list (Deck.rules deck) in
  let per_rule =
    Obs.span "drc.rules" @@ fun () ->
    Par.chunked_map ?domains ~chunk:1
      (fun rule -> Obs.span (span_of_rule rule) (fun () -> run_rule geom rule))
      rules
  in
  let out = ref (List.concat (Array.to_list per_rule)) in
  let n_rules = ref (Array.length rules) in
  let n_regions =
    List.fold_left
      (fun acc (_, (_, reg)) ->
        acc
        + (Array.to_list reg |> List.sort_uniq Int.compare |> List.length))
      0 geom
  in
  Obs.count "drc.checks";
  Obs.count ~n:(Array.length items) "drc.boxes";
  let violations =
    List.sort
      (fun a b ->
        let c = String.compare a.v_rule b.v_rule in
        if c <> 0 then c
        else
          compare
            (List.map (fun x -> (x.Box.xmin, x.Box.ymin, x.Box.xmax, x.Box.ymax)) a.v_boxes)
            (List.map (fun x -> (x.Box.xmin, x.Box.ymin, x.Box.xmax, x.Box.ymax)) b.v_boxes))
      !out
  in
  Obs.count ~n:(List.length violations) "drc.violations";
  { r_deck = Deck.name deck;
    r_violations = violations;
    r_boxes = Array.length items;
    r_regions = n_regions;
    r_rules = !n_rules }

let check_cell ?deck ?domains cell =
  check ?deck ?domains (Scanline.items_of_cell cell)

let check_flat ?deck ?domains flat =
  check ?deck ?domains (Scanline.items_of_flat flat)

let clean r = r.r_violations = []

(* ---- hierarchical per-prototype checking --------------------------- *)

module Cell = Rsg_layout.Cell
module Flatten = Rsg_layout.Flatten

(* Context keys: int arrays whose element 0 holds how many elements
   follow, so a key can be built in a longer reused buffer and looked
   up as it stands; only a key that founds a class is copied. *)
module Context = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = a.(0) in
    n = b.(0)
    &&
    let i = ref 1 in
    while !i <= n && a.(!i) = b.(!i) do
      incr i
    done;
    !i > n

  (* every element counts: the polymorphic hash reads only the first
     few, so keys that differ late would collide *)
  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to a.(0) do
      h := (!h * 65599) + a.(i)
    done;
    Hashtbl.hash !h
end)

(* lexicographic order of the [w]-int records at [i] and [j] of [a] *)
let compare_records (a : int array) i j w =
  let c = ref 0 and k = ref 0 in
  while !c = 0 && !k < w do
    c := Int.compare a.(i + !k) a.(j + !k);
    incr k
  done;
  !c

(* sort the [count] records of [w] ints starting at [a.(base)]: in
   place for the few neighbours an instance usually has, through a
   permutation beyond *)
let sort_records (a : int array) base count w =
  let at r = base + (r * w) in
  if count <= 16 then
    for r = 1 to count - 1 do
      let q = ref r in
      while !q > 0 && compare_records a (at (!q - 1)) (at !q) w > 0 do
        for k = at (!q - 1) to at !q - 1 do
          let t = a.(k) in
          a.(k) <- a.(k + w);
          a.(k + w) <- t
        done;
        decr q
      done
    done
  else begin
    let perm = Array.init count Fun.id in
    Array.sort (fun p q -> compare_records a (at p) (at q) w) perm;
    let copy = Array.sub a base (count * w) in
    Array.iteri (fun r p -> Array.blit copy (p * w) a (at r) w) perm
  end

type cached_level = {
  cl_violations : (violation * int) list;
  cl_contexts : int;
  cl_distinct : int;
  cl_boxes : int;
}

type level = {
  l_cell : string;
  l_hash : string;
  l_placements : int;
  l_violations : (violation * int) list;
  l_contexts : int;
  l_distinct : int;
  l_boxes : int;
  l_cached : bool;
}

type hier_report = {
  h_deck : string;
  h_halo : int;
  h_levels : level list;
  h_boxes : int;
  h_cached : int;
}

let cached_of_level l =
  { cl_violations = l.l_violations;
    cl_contexts = l.l_contexts;
    cl_distinct = l.l_distinct;
    cl_boxes = l.l_boxes }

let box_within (outer : Box.t) (b : Box.t) =
  b.Box.xmin >= outer.Box.xmin
  && b.Box.ymin >= outer.Box.ymin
  && b.Box.xmax <= outer.Box.xmax
  && b.Box.ymax <= outer.Box.ymax

(* [None] when shrinking by [m] would invert the box. *)
let erode_opt m (b : Box.t) =
  let xmin = b.Box.xmin + m
  and ymin = b.Box.ymin + m
  and xmax = b.Box.xmax - m
  and ymax = b.Box.ymax - m in
  if xmin > xmax || ymin > ymax then None
  else Some { Box.xmin; ymin; xmax; ymax }

let witness_bbox v =
  match v.v_boxes with
  | [] -> None
  | b :: tl -> Some (List.fold_left Box.union b tl)

let compare_violation a b =
  let c = String.compare a.v_rule b.v_rule in
  if c <> 0 then c
  else
    compare
      ( List.map
          (fun (x : Box.t) -> (x.Box.xmin, x.Box.ymin, x.Box.xmax, x.Box.ymax))
          a.v_boxes,
        a.v_required,
        a.v_actual )
      ( List.map
          (fun (x : Box.t) -> (x.Box.xmin, x.Box.ymin, x.Box.xmax, x.Box.ymax))
          b.v_boxes,
        b.v_required,
        b.v_actual )

(* The hierarchical checker exploits the same regularity as the
   prototype flattener: a design with thousands of instances of a
   handful of celltypes has only a handful of {e distinct local
   situations} a design rule can see, because no rule of the deck
   measures farther than its halo.  Responsibility is partitioned by
   depth from each prototype's bounding box:

   - a prototype's own level answers for witnesses at least one halo
     {e inside} its bbox (the parent cannot perturb them), child
     interiors excluded;
   - the ring within one halo of a child instance's bbox belongs to
     the {e parent}'s context check of that instance: a window of the
     child's boundary band (depth two halos) plus every neighbouring
     instance's and the parent's own geometry clipped to the inflated
     bbox.  Congruent windows — same child subtree hash, orientation,
     neighbour pattern and nearby parent geometry — are checked once
     and multiplied, so a regular array costs O(distinct contexts),
     not O(instances);
   - parent geometry away from every child is checked directly.

   Witnesses are filtered to each check's zone, so no violation is
   reported at two levels; within a level, overlapping context
   windows can each see a shared witness, so totals are upper bounds.
   Soundness leans on the regular-structure discipline the generators
   obey — instances abut or overlap shallowly, and geometry deep
   inside one subtree is not perturbed by another (see DESIGN.md);
   the hier-vs-flat agreement tests pin this empirically. *)
let check_protos ?(deck = Deck.default) ?domains ?(cached = fun _ -> None)
    protos =
  Obs.span "drc.hier" @@ fun () ->
  let halo = Deck.halo deck in
  let margin = 2 * halo in
  let order = Array.of_list (Flatten.protos_order protos) in
  let n = Array.length order in
  let root_idx = n - 1 in
  (* per-prototype flats (and the bands below) are lazy: a level
     replayed from [cached] never touches its geometry, so a run where
     everything (or nearly everything) replays skips the O(design)
     materialisation entirely *)
  let flats = Array.map (fun c -> lazy (Flatten.proto_flat protos c)) order in
  let bboxes = Array.map (Flatten.cell_bbox protos) order in
  let hexes = Array.map (Flatten.subtree_hex protos) order in
  (* congruent celltypes share one canonical index, as they share a
     subtree hex *)
  let canon = Flatten.representatives protos in
  let idx_of = Flatten.proto_index protos in
  let placements = Flatten.placements protos in
  (* boundary bands: a prototype's boxes within [margin] of its bbox
     edge, local coordinates — the only part of a child a parent-level
     window ever needs *)
  let bands =
    Array.init n (fun i ->
        lazy
          (match bboxes.(i) with
          | None -> [||]
          | Some bb -> (
            let boxes = (Lazy.force flats.(i)).Flatten.flat_boxes in
            match erode_opt margin bb with
            | None -> boxes
            | Some core ->
              Array.of_list
                (Array.fold_right
                   (fun (l, b) acc ->
                     if box_within core b then acc else (l, b) :: acc)
                   boxes []))))
  in
  let place orient (off : Rsg_geom.Vec.t) b = Box.translate off (Box.transform orient b) in
  let compute i =
    let c = order.(i) in
    let own = Cell.boxes c in
    let insts =
      Array.of_list
        (List.filter_map
           (fun (inst : Cell.instance) ->
             let j = idx_of inst.Cell.def in
             match bboxes.(j) with
             | None -> None
             | Some bb ->
               let ti = Cell.transform_of_instance inst in
               let off = ti.Rsg_geom.Transform.offset in
               let orient = inst.Cell.orientation in
               Some (j, orient, off, place orient off bb))
           (Cell.instances c))
    in
    let violations = ref [] in
    let boxes_checked = ref 0 in
    let run items =
      boxes_checked := !boxes_checked + Array.length items;
      (check ~deck ~domains:1 items).r_violations
    in
    (* witnesses near this prototype's own boundary belong to whoever
       instantiates it; the root has no caller, so it keeps them *)
    let in_parent_zone =
      if i = root_idx then fun _ -> true
      else
        match bboxes.(i) with
        | None -> fun _ -> false
        | Some bb -> (
          match erode_opt halo bb with
          | None -> fun _ -> false
          | Some z -> fun w -> box_within z w)
    in
    let n_inst = Array.length insts in
    let distinct = ref 0 in
    if n_inst = 0 then begin
      let items =
        Array.map
          (fun (l, b) -> { Scanline.layer = l; box = b })
          (Lazy.force flats.(i)).Flatten.flat_boxes
      in
      List.iter
        (fun v ->
          match witness_bbox v with
          | Some w when in_parent_zone w -> violations := (v, 1) :: !violations
          | _ -> ())
        (run items)
    end
    else begin
      let nbrs = Array.make n_inst [] in
      Scanline.sweep_pairs ~halo:margin
        (Array.map (fun (_, _, _, bb) -> bb) insts)
        (fun a b ->
          nbrs.(a) <- b :: nbrs.(a);
          nbrs.(b) <- a :: nbrs.(b));
      (* group instances by congruent context: same child subtree,
         orientation, neighbour pattern and nearby own geometry, all
         relative to the point of call.  The key holds the child's
         canonical index and orientation, the neighbour count, each
         neighbour's (dx, dy, canonical index, orientation) sorted,
         then each own box touching the window as (layer, box
         relative to the offset) in [own] order. *)
      let classes = Context.create 32 in
      let reps = ref [] in
      let key = ref (Array.make 64 0) in
      let n_own = List.length own in
      for k = 0 to n_inst - 1 do
        let j, orient, off, bb = insts.(k) in
        let w = Box.inflate margin bb in
        let ox = off.Rsg_geom.Vec.x and oy = off.Rsg_geom.Vec.y in
        let nn = List.length nbrs.(k) in
        let need = 4 + (4 * nn) + (5 * n_own) in
        if Array.length !key < need then
          key := Array.make (max need (2 * Array.length !key)) 0;
        let a = !key in
        a.(1) <- canon.(j);
        a.(2) <- Orient.to_index orient;
        a.(3) <- nn;
        let p = ref 4 in
        List.iter
          (fun k' ->
            let j', o', off', _ = insts.(k') in
            a.(!p) <- off'.Rsg_geom.Vec.x - ox;
            a.(!p + 1) <- off'.Rsg_geom.Vec.y - oy;
            a.(!p + 2) <- canon.(j');
            a.(!p + 3) <- Orient.to_index o';
            p := !p + 4)
          nbrs.(k);
        sort_records a 4 nn 4;
        List.iter
          (fun (l, (b : Box.t)) ->
            if Box.overlaps w b then begin
              a.(!p) <- Layer.to_index l;
              a.(!p + 1) <- b.Box.xmin - ox;
              a.(!p + 2) <- b.Box.ymin - oy;
              a.(!p + 3) <- b.Box.xmax - ox;
              a.(!p + 4) <- b.Box.ymax - oy;
              p := !p + 5
            end)
          own;
        a.(0) <- !p - 1;
        match Context.find_opt classes a with
        | Some r -> incr r
        | None ->
          let r = ref 1 in
          Context.add classes (Array.sub a 0 !p) r;
          reps := (r, k) :: !reps
      done;
      List.iter
        (fun (r, k) ->
          incr distinct;
          let count = !r in
          let j, orient, off, bb = insts.(k) in
          let w = Box.inflate margin bb in
          let acc = ref [] in
          Array.iter
            (fun (l, b) ->
              acc := { Scanline.layer = l; box = place orient off b } :: !acc)
            (Lazy.force bands.(j));
          List.iter
            (fun k' ->
              let j', o', off', _ = insts.(k') in
              Array.iter
                (fun (l, b) ->
                  let b = place o' off' b in
                  if Box.overlaps w b then
                    acc := { Scanline.layer = l; box = b } :: !acc)
                (Lazy.force flats.(j')).Flatten.flat_boxes)
            nbrs.(k);
          List.iter
            (fun (l, b) ->
              if Box.overlaps w b then
                acc := { Scanline.layer = l; box = b } :: !acc)
            own;
          let items = Array.of_list (List.rev !acc) in
          let ring_outer = Box.inflate halo bb in
          let ring_inner = erode_opt halo bb in
          (* intersection, not containment: a witness can be far larger
             than the ring (a narrow bus run merged across many seams),
             and any part of it inside the ring makes it this window's
             finding.  Windows hold whole boxes, so a run that reaches
             the ring is never artificially short: extending geometry
             is only omitted beyond the window margin, and a run
             spanning ring to margin already measures at least one
             halo, which no rule exceeds. *)
          List.iter
            (fun v ->
              match witness_bbox v with
              | Some wb
                when Box.overlaps ring_outer wb
                     && not
                          (match ring_inner with
                          | Some z -> box_within z wb
                          | None -> false)
                     && in_parent_zone wb ->
                violations := (v, count) :: !violations
              | _ -> ())
            (run items))
        (List.rev !reps);
      (* own geometry away from every instance *)
      (match own with
      | [] -> ()
      | (_, b0) :: tl ->
        let support =
          List.fold_left (fun acc (_, b) -> Box.union acc b) b0 tl
        in
        let reach = Box.inflate margin support in
        let acc =
          ref
            (List.rev_map (fun (l, b) -> { Scanline.layer = l; box = b }) own)
        in
        Array.iter
          (fun (j, orient, off, bb) ->
            if Box.overlaps reach bb then
              Array.iter
                (fun (l, b) ->
                  acc := { Scanline.layer = l; box = place orient off b } :: !acc)
                (Lazy.force bands.(j)))
          insts;
        let items = Array.of_list (List.rev !acc) in
        List.iter
          (fun v ->
            match witness_bbox v with
            | Some wb
              when in_parent_zone wb
                   && not
                        (Array.exists
                           (fun (_, _, _, bb) ->
                             box_within (Box.inflate halo bb) wb)
                           insts) ->
              violations := (v, 1) :: !violations
            | _ -> ())
          (run items))
    end;
    let vs =
      List.sort
        (fun (a, ca) (b, cb) ->
          match compare_violation a b with 0 -> compare ca cb | c -> c)
        (List.rev !violations)
    in
    { cl_violations = vs;
      cl_contexts = n_inst;
      cl_distinct = !distinct;
      cl_boxes = !boxes_checked }
  in
  (* a fresh level reads its children's bands, or its own flat when no
     child carries geometry *)
  let prepare i =
    match
      List.filter
        (fun j -> bboxes.(j) <> None)
        (List.map
           (fun (inst : Cell.instance) -> idx_of inst.Cell.def)
           (Cell.instances order.(i)))
    with
    | [] -> ignore (Lazy.force flats.(i))
    | kids -> List.iter (fun j -> ignore (Lazy.force bands.(j))) kids
  in
  let levels =
    Array.to_list
      (Array.mapi
         (fun i (cl, replayed) ->
           { l_cell = order.(i).Cell.cname;
             l_hash = hexes.(i);
             l_placements = placements.(i);
             l_violations = cl.cl_violations;
             l_contexts = cl.cl_contexts;
             l_distinct = cl.cl_distinct;
             l_boxes = cl.cl_boxes;
             l_cached = replayed })
         (Flatten.cached_map ?domains ~cached ~prepare ~compute protos))
  in
  let boxes = List.fold_left (fun a l -> a + if l.l_cached then 0 else l.l_boxes) 0 levels in
  let n_cached = List.fold_left (fun a l -> a + if l.l_cached then 1 else 0) 0 levels in
  Obs.count ~n "drc.hier.levels";
  Obs.count ~n:n_cached "drc.hier.cached";
  Obs.count ~n:boxes "drc.hier.boxes";
  Obs.count
    ~n:
      (List.fold_left
         (fun a l -> a + List.length l.l_violations)
         0 levels)
    "drc.hier.violations";
  { h_deck = Deck.name deck;
    h_halo = halo;
    h_levels = levels;
    h_boxes = boxes;
    h_cached = n_cached }

let hier_clean r = List.for_all (fun l -> l.l_violations = []) r.h_levels

let hier_violations r =
  List.fold_left
    (fun a l ->
      a
      + l.l_placements
        * List.fold_left (fun a (_, c) -> a + c) 0 l.l_violations)
    0 r.h_levels

(* ---- rendering ----------------------------------------------------- *)

let pp_violation ppf v =
  Format.fprintf ppf "[%s] required %d, measured %d at %a" v.v_rule
    v.v_required v.v_actual
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " / ")
       Box.pp)
    v.v_boxes

let pp_report ppf r =
  Format.fprintf ppf "DRC (%s): %d violation%s in %d boxes, %d regions, %d rules@."
    r.r_deck
    (List.length r.r_violations)
    (if List.length r.r_violations = 1 then "" else "s")
    r.r_boxes r.r_regions r.r_rules;
  List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) r.r_violations

let report_to_json r =
  let module Json = Rsg_obs.Json in
  let violation v =
    Json.Obj
      [ ("rule", Json.String v.v_rule);
        ( "layers",
          Json.List (List.map (fun l -> Json.String (Layer.name l)) v.v_layers)
        );
        ("required", Json.Int v.v_required);
        ("actual", Json.Int v.v_actual);
        ( "boxes",
          Json.List
            (List.map
               (fun (b : Box.t) ->
                 Json.List
                   (List.map (fun i -> Json.Int i)
                      [ b.Box.xmin; b.Box.ymin; b.Box.xmax; b.Box.ymax ]))
               v.v_boxes) ) ]
  in
  Json.Obj
    [ ("deck", Json.String r.r_deck);
      ("boxes", Json.Int r.r_boxes);
      ("regions", Json.Int r.r_regions);
      ("rules", Json.Int r.r_rules);
      ("violations", Json.List (List.map violation r.r_violations)) ]

let pp_hier_report ppf r =
  let dirty = List.filter (fun l -> l.l_violations <> []) r.h_levels in
  Format.fprintf ppf
    "DRC (%s, hierarchical, halo %d): %d violation%s across %d prototype level%s (%d cached), %d boxes checked@."
    r.h_deck r.h_halo (hier_violations r)
    (if hier_violations r = 1 then "" else "s")
    (List.length r.h_levels)
    (if List.length r.h_levels = 1 then "" else "s")
    r.h_cached r.h_boxes;
  List.iter
    (fun l ->
      Format.fprintf ppf "  %s (%s, placed %d):@." l.l_cell
        (String.sub l.l_hash 0 8)
        l.l_placements;
      List.iter
        (fun (v, c) ->
          Format.fprintf ppf "    %a (x%d)@." pp_violation v c)
        l.l_violations)
    dirty

(* ---- mutation self-check ------------------------------------------- *)

type self_check = {
  sc_layer : Layer.t;
  sc_original : Box.t;
  sc_mutated : Box.t;
  sc_violation : violation;
}

let self_check ?(deck = Deck.default) ?domains (items : Scanline.item array) =
  Obs.span "drc.self_check" @@ fun () ->
  let base = check ~deck ?domains items in
  if not (clean base) then
    Error
      (Printf.sprintf "layout is not clean before mutation (%d violations)"
         (List.length base.r_violations))
  else begin
    let n = Array.length items in
    let attempt i (shrunk : Box.t) =
      let it = items.(i) in
      let mutated = Array.copy items in
      mutated.(i) <- { it with Scanline.box = shrunk };
      match (check ~deck ?domains mutated).r_violations with
      | [ v ]
        when v.v_rule = "width." ^ Layer.name it.Scanline.layer
             && List.exists (fun vb -> Box.overlaps vb shrunk) v.v_boxes ->
        Some
          { sc_layer = it.Scanline.layer;
            sc_original = it.Scanline.box;
            sc_mutated = shrunk;
            sc_violation = v }
      | _ -> None
    in
    let rec try_idx i =
      if i >= n then
        Error "no box admits a clean single-defect narrowing"
      else
        let it = items.(i) in
        match Deck.width deck it.Scanline.layer with
        | Some w ->
          let b = it.Scanline.box in
          (* narrow the box to one lambda below the rule — for a box
             already at minimum width this is exactly a 1-lambda
             shrink *)
          let in_x =
            if Box.width b >= w then
              attempt i
                (Box.make ~xmin:b.Box.xmin ~ymin:b.Box.ymin
                   ~xmax:(b.Box.xmin + w - 1) ~ymax:b.Box.ymax)
            else None
          in
          (match in_x with
          | Some sc -> Ok sc
          | None ->
            let in_y =
              if Box.height b >= w then
                attempt i
                  (Box.make ~xmin:b.Box.xmin ~ymin:b.Box.ymin ~xmax:b.Box.xmax
                     ~ymax:(b.Box.ymin + w - 1))
              else None
            in
            (match in_y with
            | Some sc -> Ok sc
            | None -> try_idx (i + 1)))
        | None -> try_idx (i + 1)
    in
    try_idx 0
  end

let self_check_cell ?deck ?domains cell =
  self_check ?deck ?domains (Scanline.items_of_cell cell)

let pp_self_check ppf sc =
  Format.fprintf ppf
    "seeded defect: %s box %a shrunk to %a@.caught as: %a" (Layer.name sc.sc_layer)
    Box.pp sc.sc_original Box.pp sc.sc_mutated pp_violation sc.sc_violation
