open Rsg_geom
module Cell = Rsg_layout.Cell
module Flatten = Rsg_layout.Flatten
module Transform = Rsg_geom.Transform
module Obs = Rsg_obs.Obs

(* ---- the stitch level ---------------------------------------------- *)

(* The interface shell of a prototype: every box within [horizon] of
   its bounding-box edge, i.e. the left/right/top/bottom profile that
   can face another element within one spacing interaction.  A box
   deeper than the horizon on every side can never need a constraint
   against foreign geometry: the facing partner sits beyond the
   element's bounding box, so their separation is at least the box's
   edge depth, which already exceeds every spacing rule. *)
let shell_of horizon (f : Flatten.flat) =
  match f.Flatten.flat_bbox with
  | None -> [||]
  | Some bb ->
    let keep (b : Box.t) =
      b.Box.xmin - bb.Box.xmin <= horizon
      || bb.Box.xmax - b.Box.xmax <= horizon
      || b.Box.ymin - bb.Box.ymin <= horizon
      || bb.Box.ymax - b.Box.ymax <= horizon
    in
    Array.of_seq
      (Seq.filter_map
         (fun (layer, b) ->
           if keep b then Some { Scanline.layer; box = b } else None)
         (Array.to_seq f.Flatten.flat_boxes))

type element = {
  el_name : string;          (* constraint-variable name *)
  el_bbox : Box.t;           (* input coordinates *)
  el_shell : Scanline.item array;  (* input coordinates *)
  mutable el_dx : int;
  mutable el_dy : int;
}

let strict_overlap_x (a : Box.t) (b : Box.t) =
  a.Box.xmin < b.Box.xmax && b.Box.xmin < a.Box.xmax

let strict_overlap_y (a : Box.t) (b : Box.t) =
  a.Box.ymin < b.Box.ymax && b.Box.ymin < a.Box.ymax

let translate_box dx dy (b : Box.t) =
  Box.make ~xmin:(b.Box.xmin + dx) ~ymin:(b.Box.ymin + dy)
    ~xmax:(b.Box.xmax + dx) ~ymax:(b.Box.ymax + dy)

let transpose_box (b : Box.t) =
  Box.make ~xmin:b.Box.ymin ~ymin:b.Box.xmin ~xmax:b.Box.ymax ~ymax:b.Box.xmax

(* Rigid clusters over the current placement: two elements fuse when
   their bounding boxes properly overlap (interlocked or stacked
   geometry — e.g. a personality crosspoint dropped onto its grid
   square), or when any of their shell boxes touch on connecting
   layers (an abutted seam carrying connectivity) or properly overlap
   on non-connecting layers (a device straddling the seam).  Fused
   geometry keeps its exact relative placement in both axes; that is
   the invariant that preserves abutment without knowing interface
   intent. *)
let clusters_of rules (bb : Box.t array) (shells : Scanline.item array array) =
  let k = Array.length bb in
  let parent = Array.init k Fun.id in
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
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if strict_overlap_x bb.(i) bb.(j) && strict_overlap_y bb.(i) bb.(j) then
        union i j
    done
  done;
  (* shell touch: one sweep over all shell boxes, tagged by element *)
  let tags = Array.make (Array.fold_left (fun a s -> a + Array.length s) 0 shells) 0 in
  let boxes = Array.make (Array.length tags) (Box.make ~xmin:0 ~ymin:0 ~xmax:0 ~ymax:0) in
  let layers = Array.make (Array.length tags) Layer.Metal in
  let n = ref 0 in
  Array.iteri
    (fun e s ->
      Array.iter
        (fun (it : Scanline.item) ->
          tags.(!n) <- e;
          boxes.(!n) <- it.Scanline.box;
          layers.(!n) <- it.Scanline.layer;
          incr n)
        s)
    shells;
  Scanline.sweep_pairs boxes (fun i j ->
      if tags.(i) <> tags.(j) then begin
        let touch_connect = Rules.connects rules layers.(i) layers.(j) in
        let proper =
          strict_overlap_x boxes.(i) boxes.(j)
          && strict_overlap_y boxes.(i) boxes.(j)
        in
        if touch_connect || proper then union tags.(i) tags.(j)
      end);
  Array.init k find

(* Greatest solution of the stitch system with every element's right
   edge at most [width]; per-variable slack differs by element width,
   so this is a bespoke reversal rather than {!Compactor.rightmost}
   (substitute y_i = (width - w_i) - l_i, which flips every edge and
   shifts its gap by the width difference). *)
let stitch_rightmost g vars widths ~width =
  let rev = Cgraph.create () in
  let n = Cgraph.n_vars g in
  let map = Array.make n Cgraph.origin in
  let w_of = Array.make n 0 in
  Array.iteri (fun i v -> w_of.(v) <- widths.(i)) vars;
  map.(Cgraph.origin) <- Cgraph.fresh_var rev ~name:"anchor" ~init:width ();
  Cgraph.add_eq rev ~from:Cgraph.origin ~to_:map.(Cgraph.origin) ~gap:width;
  for v = 1 to n - 1 do
    map.(v) <-
      Cgraph.fresh_var rev
        ~init:(width - w_of.(v) - Cgraph.init_value g v)
        ()
  done;
  List.iter
    (fun (c : Cgraph.constr) ->
      (* l_to - l_from >= gap  =>  y_from - y_to >= gap + w_to - w_from *)
      Cgraph.add_ge rev ~from:map.(c.Cgraph.c_to) ~to_:map.(c.Cgraph.c_from)
        ~gap:(c.Cgraph.c_gap + w_of.(c.Cgraph.c_to) - w_of.(c.Cgraph.c_from)))
    (Cgraph.constraints g);
  for v = 1 to n - 1 do
    Cgraph.add_ge rev ~from:Cgraph.origin ~to_:map.(v) ~gap:0
  done;
  let r = Bellman.solve rev in
  Array.init n (fun v ->
      if v = Cgraph.origin then 0
      else width - w_of.(v) - r.Bellman.values.(map.(v)))

type axis_stats = { ax_constraints : int; ax_passes : int; ax_relaxations : int }

(* One 1-D stitch: variables are element left edges; rigid clusters
   are chained with equalities; cross-cluster pairs get an
   order-preserving floor (strict-overlap pairs in the other axis
   stay disjoint in this one) and, from the shells, spacing
   constraints between every facing cross-cluster box pair with a
   rule — emitted regardless of current distance, because the floor
   alone would let far elements collapse to touching. *)
let stitch_axis rules ~distribute_slack ~names ~cluster (bb : Box.t array)
    (shells : Scanline.item array array) =
  let k = Array.length bb in
  let g = Cgraph.create () in
  let vars =
    Array.init k (fun i ->
        Cgraph.fresh_var g ~name:names.(i) ~init:bb.(i).Box.xmin ())
  in
  for i = 0 to k - 1 do
    Cgraph.add_ge g ~from:Cgraph.origin ~to_:vars.(i) ~gap:0
  done;
  (* rigidity: chain each cluster's members in index order *)
  let last = Hashtbl.create 16 in
  for i = 0 to k - 1 do
    (match Hashtbl.find_opt last cluster.(i) with
    | Some p ->
      Cgraph.add_eq g ~from:vars.(p) ~to_:vars.(i)
        ~gap:(bb.(i).Box.xmin - bb.(p).Box.xmin)
    | None -> ());
    Hashtbl.replace last cluster.(i) i
  done;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if cluster.(i) <> cluster.(j) && strict_overlap_y bb.(i) bb.(j) then begin
        (* cross-cluster bounding boxes never properly overlap in both
           axes (that fuses them), so with y-overlap one is left of or
           touching the other *)
        if bb.(i).Box.xmax <= bb.(j).Box.xmin then
          Cgraph.add_ge g ~from:vars.(i) ~to_:vars.(j)
            ~gap:(Box.width bb.(i))
        else if bb.(j).Box.xmax <= bb.(i).Box.xmin then
          Cgraph.add_ge g ~from:vars.(j) ~to_:vars.(i)
            ~gap:(Box.width bb.(j));
        (* shell spacing between the facing profiles *)
        Array.iter
          (fun (a : Scanline.item) ->
            Array.iter
              (fun (b : Scanline.item) ->
                if strict_overlap_y a.Scanline.box b.Scanline.box then
                  match
                    Rules.spacing rules a.Scanline.layer b.Scanline.layer
                  with
                  | None -> ()
                  | Some s ->
                    let ab = a.Scanline.box and bbx = b.Scanline.box in
                    if ab.Box.xmax <= bbx.Box.xmin then
                      Cgraph.add_ge g ~from:vars.(i) ~to_:vars.(j)
                        ~gap:
                          (s
                          + (ab.Box.xmax - bb.(i).Box.xmin)
                          - (bbx.Box.xmin - bb.(j).Box.xmin))
                    else if bbx.Box.xmax <= ab.Box.xmin then
                      Cgraph.add_ge g ~from:vars.(j) ~to_:vars.(i)
                        ~gap:
                          (s
                          + (bbx.Box.xmax - bb.(j).Box.xmin)
                          - (ab.Box.xmin - bb.(i).Box.xmin)))
              shells.(j))
          shells.(i)
      end
    done
  done;
  let sol = Bellman.solve ~order:Bellman.Sorted_by_abscissa g in
  let values = sol.Bellman.values in
  let values =
    if not distribute_slack then values
    else begin
      let widths = Array.map Box.width bb in
      let w =
        Array.fold_left max 0
          (Array.mapi (fun i v -> values.(v) + widths.(i)) vars)
      in
      let hi = stitch_rightmost g vars widths ~width:w in
      Array.init (Array.length values) (fun v -> (values.(v) + hi.(v)) asr 1)
    end
  in
  let deltas = Array.mapi (fun i v -> values.(v) - bb.(i).Box.xmin) vars in
  ( deltas,
    { ax_constraints = Cgraph.n_constraints g;
      ax_passes = sol.Bellman.passes;
      ax_relaxations = sol.Bellman.relaxations } )

(* ---- results ------------------------------------------------------- *)

type stats = {
  hs_protos : int;
  hs_stitch_constraints : int;
  hs_stitch_passes : int;
  hs_stitch_relaxations : int;
  hs_elements : int;
  hs_clusters : int;
  hs_rounds : int;
  hs_area_before : int;
  hs_area_after : int;
}

type result = {
  hr_cell : Cell.t;
  hr_stats : stats;
}

(* Wrapper cells (no own boxes, exactly one instance) contribute no
   stitchable geometry of their own; the level worth stitching is the
   first with siblings.  Labels may ride on a wrapper. *)
let rec stitch_level ?(fuel = 64) cell =
  if fuel = 0 then cell
  else
    match (Cell.boxes cell, Cell.instances cell) with
    | [], [ i ] -> stitch_level ~fuel:(fuel - 1) i.Cell.def
    | _ -> cell

let union_bbox (bb : Box.t array) =
  if Array.length bb = 0 then None
  else Some (Array.fold_left Box.union bb.(0) bb)

let area_of = function None -> 0 | Some b -> Box.area b

let hier ?domains:_ ?(distribute_slack = false) ?(max_rounds = 8) rules root =
  Obs.span "hcompact" @@ fun () ->
  let protos = Flatten.prototypes root in
  (* ---- stitch the effective root level ---------------------------- *)
  let horizon = Rules.max_spacing rules in
  let lvl = stitch_level root in
  let shell_cache = Hashtbl.create 32 in
  let shell_of_cell c =
    let hex = Flatten.subtree_hex protos c in
    match Hashtbl.find_opt shell_cache hex with
    | Some s -> s
    | None ->
      let s = shell_of horizon (Flatten.proto_flat protos c) in
      Hashtbl.replace shell_cache hex s;
      s
  in
  (* elements in object order; objects with no geometry get no element *)
  let elements = ref [] and n_el = ref 0 in
  let objs =
    List.map
      (fun obj ->
        let put el =
          elements := el :: !elements;
          incr n_el;
          (obj, Some (!n_el - 1))
        in
        match obj with
        | Cell.Obj_box (layer, b) ->
          put
            { el_name = Printf.sprintf "box%d.%s" !n_el (Layer.name layer);
              el_bbox = b;
              el_shell = [| { Scanline.layer; box = b } |];
              el_dx = 0;
              el_dy = 0 }
        | Cell.Obj_label _ -> (obj, None)
        | Cell.Obj_instance i -> (
          let tr = Cell.transform_of_instance i in
          match Flatten.cell_bbox protos i.Cell.def with
          | None -> (obj, None)
          | Some bb ->
            put
              { el_name =
                  Printf.sprintf "%s#%d" i.Cell.def.Cell.cname !n_el;
                el_bbox = Transform.apply_box tr bb;
                el_shell =
                  Array.map
                    (fun (it : Scanline.item) ->
                      { it with
                        Scanline.box = Transform.apply_box tr it.Scanline.box })
                    (shell_of_cell i.Cell.def);
                el_dx = 0;
                el_dy = 0 }))
      (Cell.objects lvl)
  in
  let els = Array.of_list (List.rev !elements) in
  let k = Array.length els in
  let names = Array.map (fun e -> e.el_name) els in
  let current_bb () =
    Array.map (fun e -> translate_box e.el_dx e.el_dy e.el_bbox) els
  in
  let current_shells () =
    Array.map
      (fun e ->
        Array.map
          (fun (it : Scanline.item) ->
            { it with Scanline.box = translate_box e.el_dx e.el_dy it.Scanline.box })
          e.el_shell)
      els
  in
  let area_before = area_of (union_bbox (current_bb ())) in
  let rounds = ref 0
  and passes = ref 0
  and relaxations = ref 0
  and last_constraints = ref 0
  and last_clusters = ref k in
  if k > 1 then begin
    (* Clusters are a property of the INPUT placement — the abutments
       and overlaps the designer built are rigid intent.  They are
       computed once and never re-derived from moved geometry: the
       alternation can transiently bring two clusters into contact
       (an x pass runs before y alignment exposes the pairs that will
       eventually face), and re-clustering would freeze that
       accidental seam instead of letting the next pass restore the
       spacing. *)
    let cluster =
      clusters_of rules
        (Array.map (fun e -> e.el_bbox) els)
        (Array.map (fun e -> e.el_shell) els)
    in
    let reps = Hashtbl.create 16 in
    Array.iter (fun c -> Hashtbl.replace reps c ()) cluster;
    last_clusters := Hashtbl.length reps;
    let improved = ref true in
    Obs.span "hcompact.stitch" (fun () ->
        while !improved && !rounds < max_rounds do
          incr rounds;
          let before = area_of (union_bbox (current_bb ())) in
          (* x pass *)
          let bb = current_bb () and shells = current_shells () in
          let dxs, sx =
            stitch_axis rules ~distribute_slack ~names ~cluster bb shells
          in
          Array.iteri (fun i d -> els.(i).el_dx <- els.(i).el_dx + d) dxs;
          (* y pass on the transposed placement *)
          let bb = Array.map transpose_box (current_bb ())
          and shells =
            Array.map
              (fun s ->
                Array.map
                  (fun (it : Scanline.item) ->
                    { it with Scanline.box = transpose_box it.Scanline.box })
                  s)
              (current_shells ())
          in
          let dys, sy =
            stitch_axis rules ~distribute_slack ~names ~cluster bb shells
          in
          Array.iteri (fun i d -> els.(i).el_dy <- els.(i).el_dy + d) dys;
          last_constraints := sx.ax_constraints + sy.ax_constraints;
          passes := !passes + sx.ax_passes + sy.ax_passes;
          relaxations := !relaxations + sx.ax_relaxations + sy.ax_relaxations;
          improved := area_of (union_bbox (current_bb ())) < before
        done)
  end;
  let area_after = area_of (union_bbox (current_bb ())) in
  (* ---- rebuild the root (wrapper chain preserved) ----------------- *)
  let rebuilt_level = Cell.create (lvl.Cell.cname ^ "-hcompacted") in
  List.iter
    (fun (obj, el) ->
      let off =
        match el with
        | Some e -> Vec.make els.(e).el_dx els.(e).el_dy
        | None -> Vec.zero
      in
      match obj with
      | Cell.Obj_box (layer, b) ->
        Cell.add_box rebuilt_level layer (Box.translate off b)
      | Cell.Obj_label l -> Cell.add_label rebuilt_level l.Cell.text l.Cell.at
      | Cell.Obj_instance i ->
        ignore
          (Cell.add_instance rebuilt_level ~orient:i.Cell.orientation
             ~at:(Vec.add i.Cell.point_of_call off)
             i.Cell.def))
    objs;
  let rec rebuild_chain c =
    if c == lvl then rebuilt_level
    else
      match (Cell.boxes c, Cell.instances c) with
      | [], [ i ] ->
        let inner = rebuild_chain i.Cell.def in
        let w = Cell.create (c.Cell.cname ^ "-hcompacted") in
        List.iter
          (fun obj ->
            match obj with
            | Cell.Obj_label l -> Cell.add_label w l.Cell.text l.Cell.at
            | Cell.Obj_instance _ ->
              ignore
                (Cell.add_instance w ~orient:i.Cell.orientation
                   ~at:i.Cell.point_of_call inner)
            | Cell.Obj_box _ -> assert false)
          (Cell.objects c);
        w
      | _ -> rebuilt_level
  in
  let out = rebuild_chain root in
  (* congruent celltypes are one prototype *)
  let rep = Flatten.representatives protos in
  let n_protos = ref 0 in
  Array.iteri (fun i r -> if r = i then incr n_protos) rep;
  { hr_cell = out;
    hr_stats =
      { hs_protos = !n_protos;
        hs_stitch_constraints = !last_constraints;
        hs_stitch_passes = !passes;
        hs_stitch_relaxations = !relaxations;
        hs_elements = k;
        hs_clusters = !last_clusters;
        hs_rounds = !rounds;
        hs_area_before = area_before;
        hs_area_after = area_after } }
