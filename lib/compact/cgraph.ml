type constr = { c_from : int; c_to : int; c_gap : int }

(* Constraint i is the triple (froms.(i), tos.(i), gaps.(i)), i < nc,
   in insertion order; the arrays grow by doubling.  Records are built
   only for [constraints]. *)
type t = {
  mutable inits : int array;
  mutable names : string array;
  mutable nv : int;
  mutable froms : int array;
  mutable tos : int array;
  mutable gaps : int array;
  mutable nc : int;
}

let origin = 0

let create () =
  { inits = Array.make 16 0;
    names = Array.make 16 "origin";
    nv = 1;
    froms = Array.make 16 0;
    tos = Array.make 16 0;
    gaps = Array.make 16 0;
    nc = 0 }

(* capacities start at 16, so [a] is never empty *)
let grow a = Array.append a (Array.make (Array.length a) a.(0))

let fresh_var t ?(name = "") ~init () =
  if t.nv = Array.length t.inits then begin
    t.inits <- grow t.inits;
    t.names <- grow t.names
  end;
  let v = t.nv in
  t.inits.(v) <- init;
  t.names.(v) <- (if name = "" then Printf.sprintf "v%d" v else name);
  t.nv <- t.nv + 1;
  v

let n_vars t = t.nv

let init_value t v = t.inits.(v)

let name t v = t.names.(v)

let check_var t v =
  if v < 0 || v >= t.nv then invalid_arg "Cgraph: unknown variable"

let add_ge t ~from ~to_ ~gap =
  check_var t from;
  check_var t to_;
  if t.nc = Array.length t.froms then begin
    t.froms <- grow t.froms;
    t.tos <- grow t.tos;
    t.gaps <- grow t.gaps
  end;
  let i = t.nc in
  t.froms.(i) <- from;
  t.tos.(i) <- to_;
  t.gaps.(i) <- gap;
  t.nc <- i + 1

let add_eq t ~from ~to_ ~gap =
  add_ge t ~from ~to_ ~gap;
  add_ge t ~from:to_ ~to_:from ~gap:(-gap)

let constraints t =
  List.init t.nc (fun i ->
      { c_from = t.froms.(i); c_to = t.tos.(i); c_gap = t.gaps.(i) })

let edges t = (t.froms, t.tos, t.gaps)

let n_constraints t = t.nc

let satisfied t values =
  Array.length values = t.nv
  && values.(origin) = 0
  &&
  let ok = ref true in
  for i = 0 to t.nc - 1 do
    if values.(t.tos.(i)) - values.(t.froms.(i)) < t.gaps.(i) then ok := false
  done;
  !ok
