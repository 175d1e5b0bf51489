type t = { rot : int; refl : bool }

let make ~rot ~refl =
  let rot = ((rot mod 4) + 4) mod 4 in
  { rot; refl }

let north = { rot = 0; refl = false }

let east = { rot = 1; refl = false }

let south = { rot = 2; refl = false }

let west = { rot = 3; refl = false }

let identity = north

let mirror_y = { rot = 0; refl = true }

(* Reflecting about the x axis is the same as reflecting about the y
   axis and then rotating by a half turn. *)
let mirror_x = { rot = 2; refl = true }

let all =
  [ north; east; south; west;
    { rot = 0; refl = true }; { rot = 1; refl = true };
    { rot = 2; refl = true }; { rot = 3; refl = true } ]

let rotations = [ north; east; south; west ]

let is_reflection o = o.refl

(* Section 2.6.2: with o = R^j o M^k,
   if k2 = 0 then j = j1 + j2, k = k1
   if k2 = 1 then j = j2 - j1, k = not k1
   (the reflection of o2 conjugates the rotation of o1). *)
let compose o2 o1 =
  if o2.refl then make ~rot:(o2.rot - o1.rot) ~refl:(not o1.refl)
  else make ~rot:(o2.rot + o1.rot) ~refl:o1.refl

(* Section 2.6.1: reflections are involutions, rotations negate. *)
let invert o = if o.refl then o else make ~rot:(-o.rot) ~refl:false

(* Figure 2.5 mapping: coordinate permutations and negations only.
   East maps (x, y) -> (y, -x). *)
let apply o (v : Vec.t) =
  let x = if o.refl then -v.x else v.x in
  let y = v.y in
  match o.rot with
  | 0 -> Vec.make x y
  | 1 -> Vec.make y (-x)
  | 2 -> Vec.make (-x) (-y)
  | _ -> Vec.make (-y) x

let equal a b = a.rot = b.rot && a.refl = b.refl

let to_index o = o.rot + if o.refl then 4 else 0

let of_index i =
  if i < 0 || i > 7 then invalid_arg "Orient.of_index"
  else { rot = i land 3; refl = i >= 4 }

let rot_name = [| "north"; "east"; "south"; "west" |]

let name o =
  if o.refl then "mirror-" ^ rot_name.(o.rot) else rot_name.(o.rot)

let of_name s =
  let s = String.lowercase_ascii s in
  let refl, base =
    match String.index_opt s '-' with
    | Some i when String.sub s 0 i = "mirror" ->
      (true, String.sub s (i + 1) (String.length s - i - 1))
    | _ -> (false, s)
  in
  let rec find i =
    if i > 3 then None
    else if rot_name.(i) = base then Some { rot = i; refl }
    else find (i + 1)
  in
  find 0

let pp ppf o = Format.pp_print_string ppf (name o)
