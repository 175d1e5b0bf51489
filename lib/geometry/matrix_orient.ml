type t = { a : int; b : int; c : int; d : int }

let identity = { a = 1; b = 0; c = 0; d = 1 }

let apply m (v : Vec.t) =
  Vec.make ((m.a * v.x) + (m.b * v.y)) ((m.c * v.x) + (m.d * v.y))

let of_orient o =
  (* Read the two columns off the action on the basis vectors. *)
  let cx = Orient.apply o (Vec.make 1 0) and cy = Orient.apply o (Vec.make 0 1) in
  { a = cx.Vec.x; b = cy.Vec.x; c = cx.Vec.y; d = cy.Vec.y }

let equal m n = m.a = n.a && m.b = n.b && m.c = n.c && m.d = n.d

let to_orient m =
  let rec find = function
    | [] -> invalid_arg "Matrix_orient.to_orient: not an orientation matrix"
    | o :: rest -> if equal (of_orient o) m then o else find rest
  in
  find Orient.all

let compose m2 m1 =
  { a = (m2.a * m1.a) + (m2.b * m1.c);
    b = (m2.a * m1.b) + (m2.b * m1.d);
    c = (m2.c * m1.a) + (m2.d * m1.c);
    d = (m2.c * m1.b) + (m2.d * m1.d) }

let invert m =
  let det = (m.a * m.d) - (m.b * m.c) in
  if det = 1 then { a = m.d; b = -m.b; c = -m.c; d = m.a }
  else if det = -1 then { a = -m.d; b = m.b; c = m.c; d = -m.a }
  else invalid_arg "Matrix_orient.invert: determinant not +-1"
