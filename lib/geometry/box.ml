type t = { xmin : int; ymin : int; xmax : int; ymax : int }

let make ~xmin ~ymin ~xmax ~ymax =
  { xmin = min xmin xmax;
    ymin = min ymin ymax;
    xmax = max xmin xmax;
    ymax = max ymin ymax }

let of_corners (a : Vec.t) (b : Vec.t) =
  make ~xmin:a.x ~ymin:a.y ~xmax:b.x ~ymax:b.y

let of_size ~(origin : Vec.t) ~width ~height =
  if width < 0 || height < 0 then invalid_arg "Box.of_size";
  { xmin = origin.x; ymin = origin.y;
    xmax = origin.x + width; ymax = origin.y + height }

let width b = b.xmax - b.xmin

let height b = b.ymax - b.ymin

let area b = width b * height b

let center2 b = Vec.make (b.xmin + b.xmax) (b.ymin + b.ymax)

let translate (v : Vec.t) b =
  { xmin = b.xmin + v.x; ymin = b.ymin + v.y;
    xmax = b.xmax + v.x; ymax = b.ymax + v.y }

let transform o b =
  let p = Orient.apply o (Vec.make b.xmin b.ymin)
  and q = Orient.apply o (Vec.make b.xmax b.ymax) in
  of_corners p q

let contains b (v : Vec.t) =
  b.xmin <= v.x && v.x <= b.xmax && b.ymin <= v.y && v.y <= b.ymax

let overlaps a b =
  a.xmin <= b.xmax && b.xmin <= a.xmax && a.ymin <= b.ymax && b.ymin <= a.ymax

let intersect a b =
  if overlaps a b then
    Some { xmin = max a.xmin b.xmin; ymin = max a.ymin b.ymin;
           xmax = min a.xmax b.xmax; ymax = min a.ymax b.ymax }
  else None

let union a b =
  { xmin = min a.xmin b.xmin; ymin = min a.ymin b.ymin;
    xmax = max a.xmax b.xmax; ymax = max a.ymax b.ymax }

let inflate k b =
  let b' =
    { xmin = b.xmin - k; ymin = b.ymin - k;
      xmax = b.xmax + k; ymax = b.ymax + k }
  in
  if b'.xmin > b'.xmax || b'.ymin > b'.ymax then invalid_arg "Box.inflate"
  else b'

let distance a b =
  let dx = max 0 (max (b.xmin - a.xmax) (a.xmin - b.xmax)) in
  let dy = max 0 (max (b.ymin - a.ymax) (a.ymin - b.ymax)) in
  max dx dy

(* Guillotine decomposition: full-height side strips first, then the
   top/bottom pieces clipped to the cut's x-range, so the pieces are
   disjoint and their order depends only on the inputs. *)
let subtract a b =
  match intersect a b with
  | None -> [ a ]
  | Some c when c.xmin = c.xmax || c.ymin = c.ymax ->
    [ a ] (* edge or corner touch removes no interior *)
  | Some c ->
    if c.xmin <= a.xmin && a.xmax <= c.xmax && c.ymin <= a.ymin
       && a.ymax <= c.ymax
    then []
    else begin
      let out = ref [] in
      let add xmin ymin xmax ymax =
        if xmin < xmax && ymin < ymax then
          out := { xmin; ymin; xmax; ymax } :: !out
      in
      add a.xmin a.ymin c.xmin a.ymax;
      add c.xmax a.ymin a.xmax a.ymax;
      add c.xmin a.ymin c.xmax c.ymin;
      add c.xmin c.ymax c.xmax a.ymax;
      List.rev !out
    end

let equal a b =
  a.xmin = b.xmin && a.ymin = b.ymin && a.xmax = b.xmax && a.ymax = b.ymax

let pp ppf b =
  Format.fprintf ppf "[%d,%d..%d,%d]" b.xmin b.ymin b.xmax b.ymax
