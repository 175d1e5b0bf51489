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

let is_contact = function
  | Layer.Contact | Layer.Contact_cut -> true
  | _ -> false

(* Layer-pair tables of a deck, indexed [to_index a * n_layers +
   to_index b]: the pair kernels look a pair up instead of asking
   {!Rules} for every one. *)
let n_layers = List.length Layer.all

let pair_table f =
  Array.init (n_layers * n_layers) (fun k ->
      f (Layer.of_index_exn (k / n_layers)) (Layer.of_index_exn (k mod n_layers)))

(* ---- (key, index) ordering ------------------------------------------ *)

(* An in-place introsort of an int array's [lo, hi) slice, specialised
   to ints so no comparison goes through a closure or [compare]:
   median-of-three quicksort, insertion sort below 16 elements, heap
   sort once [depth] levels are spent. *)
let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = a.(i) and j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* restore the max-heap of [a.(lo) .. a.(lo + len - 1)] below [root] *)
let sift_down (a : int array) lo root len =
  let v = a.(lo + root) and i = ref root and settled = ref false in
  while not !settled do
    let c = (2 * !i) + 1 in
    if c >= len then settled := true
    else begin
      let c = if c + 1 < len && a.(lo + c + 1) > a.(lo + c) then c + 1 else c in
      if a.(lo + c) > v then begin
        a.(lo + !i) <- a.(lo + c);
        i := c
      end
      else settled := true
    end
  done;
  a.(lo + !i) <- v

let heap_sort (a : int array) lo hi =
  let n = hi - lo in
  for root = (n / 2) - 1 downto 0 do
    sift_down a lo root n
  done;
  for len = n - 1 downto 1 do
    swap a lo (lo + len);
    sift_down a lo 0 len
  done

let rec log2 m = if m <= 1 then 0 else 1 + log2 (m / 2)

let rec intro_sort (a : int array) lo hi depth =
  if hi - lo < 16 then insertion_sort a lo hi
  else if depth = 0 then heap_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi - 1) < a.(lo) then swap a (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap a (hi - 1) mid;
    (* a.(lo) <= p <= a.(hi - 1) bound both scans *)
    let p = a.(mid) and i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    intro_sort a lo (!j + 1) (depth - 1);
    intro_sort a !i hi (depth - 1)
  end

let order_by n key =
  let order = Array.make n 0 in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let k = key i in
    order.(i) <- k;
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  (* a span past max_int wraps negative *)
  let span = !hi - !lo in
  if n = 0 || (span >= 0 && span <= (max_int - (n - 1)) / n) then begin
    (* (key - min) * n + i: distinct, ordered by (key, index) *)
    let lo = !lo in
    for i = 0 to n - 1 do
      order.(i) <- ((order.(i) - lo) * n) + i
    done;
    intro_sort order 0 n (2 * log2 n);
    for i = 0 to n - 1 do
      order.(i) <- order.(i) mod n
    done;
    order
  end
  else begin
    (* keys too far apart to pack: sort indices by comparison *)
    let keys = Array.copy order in
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    Array.sort
      (fun i j ->
        let c = Int.compare keys.(i) keys.(j) in
        if c <> 0 then c else Int.compare i j)
      order;
    order
  end

(* Plane sweep over closed boxes: report every pair within Chebyshev
   distance [halo] of each other (touching counts; [halo = 0] reports
   exactly the overlapping-or-abutting pairs).  Boxes enter the active
   set in (xmin, index) order and retire once their right edge falls
   more than [halo] behind the sweep front; the active set is a sorted
   array ordered by (ymin, index), so a query stops as soon as
   candidates start past the query's top edge.  Retirement walks the
   boxes in (xmax + halo, index) order: the front only advances, and a
   box can only be due once it has entered (its xmin is at most its
   exit), except one narrower than [-halo], which would retire before
   any query sees it and so never enters.  On box-dominated layout
   geometry (bounded overlap depth) this is O((n + k) log n) for k
   reported pairs, plus the shifts of the active array. *)
let sweep_pairs ?(halo = 0) (boxes : Box.t array) f =
  let n = Array.length boxes in
  if n > 1 then begin
    let ymin i = boxes.(i).Box.ymin and exit i = boxes.(i).Box.xmax + halo in
    let entries = order_by n (fun i -> boxes.(i).Box.xmin)
    and exits = order_by n exit in
    let active = Array.make n 0 and n_active = ref 0 in
    (* the first active position not ordered before box [j] *)
    let seek j =
      let y = ymin j and lo = ref 0 and hi = ref !n_active in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        let k = active.(mid) in
        if ymin k < y || (ymin k = y && k < j) then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let retired = ref 0 in
    Array.iter
      (fun i ->
        let b = boxes.(i) in
        while !retired < n && exit exits.(!retired) < b.Box.xmin do
          let j = exits.(!retired) in
          let p = seek j in
          if p < !n_active && active.(p) = j then begin
            Array.blit active (p + 1) active p (!n_active - p - 1);
            decr n_active
          end;
          incr retired
        done;
        (* an active box may start far below the query window yet reach
           into it, so the scan starts at the bottom of the active set;
           ymin ordering gives the early exit past the window's top *)
        let cutoff = b.Box.ymax + halo and p = ref 0 in
        while !p < !n_active && ymin active.(!p) <= cutoff do
          let j = active.(!p) in
          if boxes.(j).Box.ymax >= b.Box.ymin - halo then f j i;
          incr p
        done;
        if exit i >= b.Box.xmin then begin
          let p = seek i in
          Array.blit active p active (p + 1) (!n_active - p);
          active.(p) <- i;
          incr n_active
        end)
      entries
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
  let conn = pair_table (Rules.connects rules)
  and lay = Array.map (fun it -> Layer.to_index it.layer) items in
  sweep_pairs
    (Array.map (fun it -> it.box) items)
    (fun i j -> if conn.((lay.(i) * n_layers) + lay.(j)) then union i j);
  Array.init n find

(* The pair kernels' flat view of the items in sweep (xmin) order:
   position p holds item [order.(p)]'s coordinates, layer index, net
   and edge variables, so the Theta(n^2) pair loop reads consecutive
   ints instead of chasing item records. *)
type kernel = {
  g : Cgraph.t;
  x0 : int array;
  x1 : int array;
  y0 : int array;
  y1 : int array;
  lay : int array;
  contact : bool array;
  net : int array;
  lv : int array;  (* left-edge variable *)
  rv : int array;  (* right-edge variable *)
  conn : bool array;  (* layer pair connects *)
  space : int option array;  (* layer pair spacing rule *)
  cut_overlap : int;
}

(* Same-net touching boxes are electrically one piece here: the mutual
   overlap must survive (in both directions, or the wire could tear
   apart). *)
let connectivity k p q =
  let ov = min k.x1.(p) k.x1.(q) - max k.x0.(p) k.x0.(q) in
  if ov >= 0 then begin
    let req = min ov 1 in
    Cgraph.add_ge k.g ~from:k.lv.(q) ~to_:k.rv.(p) ~gap:req;
    Cgraph.add_ge k.g ~from:k.lv.(p) ~to_:k.rv.(q) ~gap:req
  end

(* proper overlap on non-connecting layers is a device: freeze the
   relative x geometry *)
let freeze k p q =
  Cgraph.add_eq k.g ~from:k.lv.(p) ~to_:k.lv.(q) ~gap:(k.x0.(q) - k.x0.(p))

let spacing k p q pair =
  match k.space.(pair) with
  | Some s -> Cgraph.add_ge k.g ~from:k.rv.(p) ~to_:k.lv.(q) ~gap:s
  | None -> ()

(* Emit the constraints between box [p] (to the left) and box [q], on
   interacting layers.  When the boxes only share a y edge (no strict
   y overlap), the sole relevant relation is electrical connection
   between touching same-net boxes — a wire turning a corner — which
   must keep its x overlap; spacing and device rules need strict y
   overlap. *)
let visibility_pair k p q =
  let pair = (k.lay.(p) * n_layers) + k.lay.(q) in
  let conn = k.conn.(pair) and same_net = k.net.(p) = k.net.(q) in
  let touch = k.x1.(p) >= k.x0.(q) in
  if not (k.y0.(p) < k.y1.(q) && k.y0.(q) < k.y1.(p)) then begin
    if same_net && conn && touch then connectivity k p q
  end
  else if same_net then begin
    if conn && touch then
      if k.contact.(q) && (not k.contact.(p))
         && k.x0.(p) <= k.x0.(q) && k.x1.(q) <= k.x1.(p)
      then begin
        (* keep the contact enclosed in its conductor *)
        Cgraph.add_ge k.g ~from:k.lv.(p) ~to_:k.lv.(q)
          ~gap:(min k.cut_overlap (k.x0.(q) - k.x0.(p)));
        Cgraph.add_ge k.g ~from:k.rv.(q) ~to_:k.rv.(p)
          ~gap:(min k.cut_overlap (k.x1.(p) - k.x1.(q)))
      end
      else connectivity k p q
    else if (not conn) && k.x1.(p) > k.x0.(q) then
      (* a device within the net's cell (e.g. a buried contact's
         layers) *)
      freeze k p q
    (* same net, same axis, not touching: no constraint — a net may
       approach itself (the fig 6.5 fragmented bus) *)
  end
  else if k.x1.(p) > k.x0.(q) && not conn then
    (* a device (poly crossing diffusion); mere edge contact is not a
       device and falls through to spacing *)
    freeze k p q
  else spacing k p q pair

(* The naive generator applies the spacing rule between every pair of
   opposing edges, hidden or not, connected or not (section 6.4.1's
   first attempt). *)
let naive_pair k p q =
  let pair = (k.lay.(p) * n_layers) + k.lay.(q) in
  if (not k.conn.(pair)) && k.x1.(p) > k.x0.(q) then freeze k p q
  else spacing k p q pair

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)

let items_of_flat (f : Rsg_layout.Flatten.flat) =
  Array.map
    (fun (layer, box) -> { layer; box })
    f.Rsg_layout.Flatten.flat_boxes

let items_of_cell cell =
  items_of_flat Rsg_layout.Flatten.(protos_flat (prototypes cell))

let generate ?(stretchable = fun _ -> false) rules method_ items =
  let n = Array.length items in
  let g = Cgraph.create () in
  let left = Array.make n 0 and right = Array.make n 0 in
  Array.iteri
    (fun i it ->
      let b = "b" ^ string_of_int i in
      left.(i) <- Cgraph.fresh_var g ~name:(b ^ ".l") ~init:it.box.Box.xmin ();
      right.(i) <- Cgraph.fresh_var g ~name:(b ^ ".r") ~init:it.box.Box.xmax ();
      Cgraph.add_ge g ~from:Cgraph.origin ~to_:left.(i) ~gap:0;
      let w = Box.width it.box in
      if stretchable i then
        Cgraph.add_ge g ~from:left.(i) ~to_:right.(i)
          ~gap:(max (Rules.min_width rules it.layer) 1)
      else Cgraph.add_eq g ~from:left.(i) ~to_:right.(i) ~gap:w)
    items;
  let order = order_by n (fun i -> items.(i).box.Box.xmin) in
  let at f = Array.map f order in
  let box_at f = at (fun i -> f items.(i).box) in
  let net =
    match method_ with
    | Naive -> [||]
    | Visibility ->
      let nets = Obs.span "scanline.nets" (fun () -> nets_of rules items) in
      at (fun i -> nets.(i))
  in
  let k =
    { g;
      x0 = box_at (fun b -> b.Box.xmin);
      x1 = box_at (fun b -> b.Box.xmax);
      y0 = box_at (fun b -> b.Box.ymin);
      y1 = box_at (fun b -> b.Box.ymax);
      lay = at (fun i -> Layer.to_index items.(i).layer);
      contact = at (fun i -> is_contact items.(i).layer);
      net;
      lv = at (fun i -> left.(i));
      rv = at (fun i -> right.(i));
      conn = pair_table (Rules.connects rules);
      space = pair_table (Rules.spacing rules);
      cut_overlap = Rules.cut_overlap rules }
  in
  (* a pair of layers interacts when it connects or has a spacing rule *)
  let inter = Array.mapi (fun pair c -> c || Option.is_some k.space.(pair)) k.conn in
  Obs.span "scanline.pairs" (fun () ->
      for p = 0 to n - 1 do
        let row = k.lay.(p) * n_layers in
        match method_ with
        | Naive ->
          for q = p + 1 to n - 1 do
            if k.y0.(p) < k.y1.(q) && k.y0.(q) < k.y1.(p)
               && inter.(row + k.lay.(q))
            then naive_pair k p q
          done
        | Visibility ->
          (* xmin ascends with q, so the boxes touching p in x come
             first; past them a pair can only need spacing (cross-net,
             y-overlapping, with a rule) *)
          let far = ref (p + 1) in
          while !far < n && k.x0.(!far) <= k.x1.(p) do
            if inter.(row + k.lay.(!far)) then visibility_pair k p !far;
            incr far
          done;
          let y0 = k.y0.(p) and y1 = k.y1.(p) and net = k.net.(p) in
          for q = !far to n - 1 do
            if y0 < k.y1.(q) && k.y0.(q) < y1 && k.net.(q) <> net then
              spacing k p q (row + k.lay.(q))
          done
      done);
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
