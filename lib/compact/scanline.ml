open Rsg_geom
module Obs = Rsg_obs.Obs

type item = { layer : Layer.t; box : Box.t }

type method_ = Naive | Visibility

type gen = {
  graph : Cgraph.t;
  left : int array;
  right : int array;
  items : item array;
}

let y_overlap a b = a.box.Box.ymin < b.box.Box.ymax && b.box.Box.ymin < a.box.Box.ymax

let interacting rules a b =
  Rules.connects rules a.layer b.layer
  || Option.is_some (Rules.spacing rules a.layer b.layer)

let is_contact = function
  | Layer.Contact | Layer.Contact_cut -> true
  | _ -> false

(* Plane sweep over closed boxes: report every pair within Chebyshev
   distance [halo] of each other (touching counts; [halo = 0] reports
   exactly the overlapping-or-abutting pairs).  Boxes enter the active
   set in xmin order and retire once their right edge falls more than
   [halo] behind the sweep front; the active set is ordered by ymin so
   a query stops as soon as candidates start past the query's top
   edge.  On box-dominated layout geometry (bounded overlap depth)
   this is O((n + k) log n) for k reported pairs — the all-pairs loop
   this replaces was Theta(n^2) regardless of k. *)
let sweep_pairs ?(halo = 0) (boxes : Box.t array) f =
  let n = Array.length boxes in
  if n > 1 then begin
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let c = Int.compare boxes.(i).Box.xmin boxes.(j).Box.xmin in
        if c <> 0 then c else Int.compare i j)
      order;
    let module IS = Set.Make (struct
      type t = int * int

      let compare = compare
    end) in
    (* active: (ymin, idx); exits: (xmax + halo, idx) *)
    let active = ref IS.empty and exits = ref IS.empty in
    Array.iter
      (fun i ->
        let b = boxes.(i) in
        let rec purge () =
          match IS.min_elt_opt !exits with
          | Some ((x_exit, j) as e) when x_exit < b.Box.xmin ->
            exits := IS.remove e !exits;
            active := IS.remove (boxes.(j).Box.ymin, j) !active;
            purge ()
          | _ -> ()
        in
        purge ();
        (* an active box may start far below the query window yet reach
           into it, so the scan starts at the bottom of the active set;
           ymin ordering gives the early exit past the window's top *)
        let cutoff = b.Box.ymax + halo in
        let rec scan seq =
          match seq () with
          | Seq.Nil -> ()
          | Seq.Cons ((ymin, j), tl) ->
            if ymin <= cutoff then begin
              if boxes.(j).Box.ymax >= b.Box.ymin - halo then f j i;
              scan tl
            end
        in
        scan (IS.to_seq !active);
        active := IS.add (b.Box.ymin, i) !active;
        exits := IS.add (b.Box.xmax + halo, i) !exits)
      order
  end

(* Electrical nets: union-find over touching geometry on connecting
   layers.  Two boxes join a net when their layers connect (same
   layer, or contact over a conductor) and their closed extents meet
   in both axes.  Nets are the sound realisation of the merging that
   section 6.4.1 wants but cannot perform on the boxes themselves
   (device and bus sizing need box identities): no spacing is ever
   required {e within} a net, and spacing is always required {e
   across} nets — independent of which edges happen to hide which,
   so the constraint set stays valid however compaction reorders
   edges. *)
let nets_of rules items =
  let n = Array.length items in
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
  sweep_pairs
    (Array.map (fun it -> it.box) items)
    (fun i j ->
      if Rules.connects rules items.(i).layer items.(j).layer then union i j);
  Array.init n find

(* Emit the constraints between box [a] (to the left) and box [b].
   When the boxes only share a y edge (no strict y overlap), the sole
   relevant relation is electrical connection between touching
   same-net boxes — a wire turning a corner — which must keep its
   x overlap; spacing and device rules need strict y overlap. *)
let pair_constraints rules g ~left ~right ~(items : item array) ~same_net ia ib
    =
  let a = items.(ia) and b = items.(ib) in
  let y_strict = y_overlap a b in
  let touch = a.box.Box.xmax >= b.box.Box.xmin in
  let connectivity () =
    (* electrically one piece here: the mutual overlap must survive
       (in both directions, or the wire could tear apart) *)
    let ov =
      min a.box.Box.xmax b.box.Box.xmax - max a.box.Box.xmin b.box.Box.xmin
    in
    if ov >= 0 then begin
      let req = min ov 1 in
      Cgraph.add_ge g ~from:left.(ib) ~to_:right.(ia) ~gap:req;
      Cgraph.add_ge g ~from:left.(ia) ~to_:right.(ib) ~gap:req
    end
  in
  if not y_strict then begin
    if same_net && Rules.connects rules a.layer b.layer && touch then
      connectivity ()
  end
  else
    let spacing () =
      match Rules.spacing rules a.layer b.layer with
      | Some s -> Cgraph.add_ge g ~from:right.(ia) ~to_:left.(ib) ~gap:s
      | None -> ()
    in
    if same_net then begin
      if Rules.connects rules a.layer b.layer && touch then
        if is_contact b.layer && not (is_contact a.layer)
           && a.box.Box.xmin <= b.box.Box.xmin
           && b.box.Box.xmax <= a.box.Box.xmax
        then begin
          (* keep the contact enclosed in its conductor *)
          let m = Rules.cut_overlap rules in
          Cgraph.add_ge g ~from:left.(ia) ~to_:left.(ib)
            ~gap:(min m (b.box.Box.xmin - a.box.Box.xmin));
          Cgraph.add_ge g ~from:right.(ib) ~to_:right.(ia)
            ~gap:(min m (a.box.Box.xmax - b.box.Box.xmax))
        end
        else connectivity ()
      else if (not (Rules.connects rules a.layer b.layer))
              && a.box.Box.xmax > b.box.Box.xmin
      then
        (* a device within the net's cell (e.g. a buried contact's
           layers): freeze the relative geometry *)
        Cgraph.add_eq g ~from:left.(ia) ~to_:left.(ib)
          ~gap:(b.box.Box.xmin - a.box.Box.xmin)
      (* same net, same axis, not touching: no constraint — a net may
         approach itself (the fig 6.5 fragmented bus) *)
    end
    else if a.box.Box.xmax > b.box.Box.xmin
            && not (Rules.connects rules a.layer b.layer)
    then
      (* proper overlap on non-connecting layers is a device (poly
         crossing diffusion): freeze the relative x geometry.  Mere
         edge contact is not a device and falls through to spacing. *)
      Cgraph.add_eq g ~from:left.(ia) ~to_:left.(ib)
        ~gap:(b.box.Box.xmin - a.box.Box.xmin)
    else spacing ()

(* The naive generator applies the spacing rule between every pair of
   opposing edges, hidden or not, connected or not (section 6.4.1's
   first attempt). *)
let naive_pair rules g ~left ~right ~(items : item array) ia ib =
  let a = items.(ia) and b = items.(ib) in
  let overlap = a.box.Box.xmax > b.box.Box.xmin in
  if (not (Rules.connects rules a.layer b.layer)) && overlap then
    Cgraph.add_eq g ~from:left.(ia) ~to_:left.(ib)
      ~gap:(b.box.Box.xmin - a.box.Box.xmin)
  else
    match Rules.spacing rules a.layer b.layer with
    | Some s -> Cgraph.add_ge g ~from:right.(ia) ~to_:left.(ib) ~gap:s
    | None -> ()

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)

let items_of_flat (f : Rsg_layout.Flatten.flat) =
  Array.map
    (fun (layer, box) -> { layer; box })
    f.Rsg_layout.Flatten.flat_boxes

let items_of_cell cell = items_of_flat (Rsg_layout.Flatten.flatten cell)

let generate ?(stretchable = fun _ -> false) rules method_ items =
  let n = Array.length items in
  let g = Cgraph.create () in
  let left = Array.make n 0 and right = Array.make n 0 in
  Array.iteri
    (fun i it ->
      left.(i) <-
        Cgraph.fresh_var g ~name:(Printf.sprintf "b%d.l" i)
          ~init:it.box.Box.xmin ();
      right.(i) <-
        Cgraph.fresh_var g ~name:(Printf.sprintf "b%d.r" i)
          ~init:it.box.Box.xmax ();
      Cgraph.add_ge g ~from:Cgraph.origin ~to_:left.(i) ~gap:0;
      let w = Box.width it.box in
      if stretchable i then
        Cgraph.add_ge g ~from:left.(i) ~to_:right.(i)
          ~gap:(max (Rules.min_width rules it.layer) 1)
      else Cgraph.add_eq g ~from:left.(i) ~to_:right.(i) ~gap:w)
    items;
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = Int.compare items.(i).box.Box.xmin items.(j).box.Box.xmin in
      if c <> 0 then c else Int.compare i j)
    order;
  (match method_ with
  | Naive ->
    Obs.span "scanline.pairs" (fun () ->
        for oi = 0 to n - 1 do
          for oj = oi + 1 to n - 1 do
            let ia = order.(oi) and ib = order.(oj) in
            if y_overlap items.(ia) items.(ib)
               && interacting rules items.(ia) items.(ib)
            then naive_pair rules g ~left ~right ~items ia ib
          done
        done)
  | Visibility ->
    let nets = Obs.span "scanline.nets" (fun () -> nets_of rules items) in
    Obs.span "scanline.pairs" (fun () ->
        for oi = 0 to n - 1 do
          for oj = oi + 1 to n - 1 do
            let ia = order.(oi) and ib = order.(oj) in
            if interacting rules items.(ia) items.(ib) then
              pair_constraints rules g ~left ~right ~items
                ~same_net:(nets.(ia) = nets.(ib))
                ia ib
          done
        done));
  Obs.count "scanline.generations";
  Obs.count ~n:(n * (n - 1) / 2) "scanline.pairs";
  { graph = g; left; right; items }

let apply gen values =
  Array.mapi
    (fun i it ->
      { it with
        box =
          Box.make ~xmin:values.(gen.left.(i)) ~xmax:values.(gen.right.(i))
            ~ymin:it.box.Box.ymin ~ymax:it.box.Box.ymax })
    gen.items

let width items =
  if Array.length items = 0 then 0
  else
    let xmin = ref max_int and xmax = ref min_int in
    Array.iter
      (fun it ->
        xmin := min !xmin it.box.Box.xmin;
        xmax := max !xmax it.box.Box.xmax)
      items;
    !xmax - !xmin

let height items =
  if Array.length items = 0 then 0
  else
    let ymin = ref max_int and ymax = ref min_int in
    Array.iter
      (fun it ->
        ymin := min !ymin it.box.Box.ymin;
        ymax := max !ymax it.box.Box.ymax)
      items;
    !ymax - !ymin

let transpose items =
  Array.map
    (fun it ->
      { it with
        box =
          Box.make ~xmin:it.box.Box.ymin ~ymin:it.box.Box.xmin
            ~xmax:it.box.Box.ymax ~ymax:it.box.Box.xmax })
    items

type violation = { v_a : int; v_b : int; v_required : int; v_actual : int }

let check rules items =
  (* Spacing applies across nets; within a net, proximity is a
     quality concern, not legality (the thesis's compactor likewise
     admits "legal but electrically poor" output needing hand
     checks). *)
  let nets = nets_of rules items in
  let n = Array.length items in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = items.(i) and b = items.(j) in
      if y_overlap a b && nets.(i) <> nets.(j) then begin
        let gap =
          max (b.box.Box.xmin - a.box.Box.xmax) (a.box.Box.xmin - b.box.Box.xmax)
        in
        match Rules.spacing rules a.layer b.layer with
        | Some s when gap >= 0 && gap < s ->
          out := { v_a = i; v_b = j; v_required = s; v_actual = gap } :: !out
        | _ -> ()
      end
    done
  done;
  List.rev !out
