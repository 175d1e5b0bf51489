open Rsg_geom

type t = {
  widths : (Layer.t * int) list;
  spacings : ((Layer.t * Layer.t) * int) list;  (* keys normalised *)
  table : int option array;
      (* [spacing a b] at [to_index a * n_layers + to_index b], both
         orders filled: the stitch and the checkers ask per box pair *)
  cut_size : int;
  cut_spacing : int;
  cut_overlap : int;
}

let norm_pair a b = if Layer.compare a b <= 0 then (a, b) else (b, a)

let n_layers = List.length Layer.all

(* Spacings are symmetric; unlisted pairs do not interact.  Unlisted
   widths default to 1. *)
let make ~widths ~spacings ~cut_size ~cut_spacing ~cut_overlap =
  let spacings = List.map (fun ((a, b), s) -> (norm_pair a b, s)) spacings in
  let table =
    Array.init (n_layers * n_layers) (fun k ->
        List.assoc_opt
          (norm_pair
             (Layer.of_index_exn (k / n_layers))
             (Layer.of_index_exn (k mod n_layers)))
          spacings)
  in
  { widths; spacings; table; cut_size; cut_spacing; cut_overlap }

let default =
  make
    ~widths:
      [ (Layer.Metal, 3); (Layer.Poly, 2); (Layer.Diffusion, 2);
        (Layer.Contact_cut, 2); (Layer.Contact, 4); (Layer.Implant, 2);
        (Layer.Buried, 2) ]
    ~spacings:
      [ ((Layer.Metal, Layer.Metal), 3);
        ((Layer.Poly, Layer.Poly), 2);
        ((Layer.Diffusion, Layer.Diffusion), 3);
        ((Layer.Poly, Layer.Diffusion), 1);
        ((Layer.Contact_cut, Layer.Contact_cut), 2);
        ((Layer.Contact, Layer.Contact), 2);
        ((Layer.Buried, Layer.Buried), 2);
        ((Layer.Implant, Layer.Implant), 2) ]
    ~cut_size:2 ~cut_spacing:2 ~cut_overlap:1

let tight =
  make
    ~widths:
      [ (Layer.Metal, 2); (Layer.Poly, 1); (Layer.Diffusion, 1);
        (Layer.Contact_cut, 1); (Layer.Contact, 3); (Layer.Implant, 1);
        (Layer.Buried, 1) ]
    ~spacings:
      [ ((Layer.Metal, Layer.Metal), 2);
        ((Layer.Poly, Layer.Poly), 1);
        ((Layer.Diffusion, Layer.Diffusion), 2);
        ((Layer.Poly, Layer.Diffusion), 1);
        ((Layer.Contact_cut, Layer.Contact_cut), 1);
        ((Layer.Contact, Layer.Contact), 1);
        ((Layer.Buried, Layer.Buried), 1);
        ((Layer.Implant, Layer.Implant), 1) ]
    ~cut_size:1 ~cut_spacing:1 ~cut_overlap:1

let min_width t layer =
  match List.assoc_opt layer t.widths with Some w -> w | None -> 1

let max_spacing t =
  List.fold_left (fun a (_, s) -> max a s) 0 t.spacings

(* Canonical rendering of every field, so two decks digest equal iff
   they constrain identically; the layer pair keys are already
   normalised by [make].  This is the rule-deck half of the
   constraint-cache key (subtree hash + rule deck). *)
let digest t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun (l, w) -> add "w:%s=%d;" (Layer.name l) w)
    (List.sort compare t.widths);
  List.iter
    (fun ((a, bl), s) -> add "s:%s,%s=%d;" (Layer.name a) (Layer.name bl) s)
    (List.sort compare t.spacings);
  add "cut:%d,%d,%d" t.cut_size t.cut_spacing t.cut_overlap;
  Digest.string (Buffer.contents b)

let spacing t a b = t.table.((Layer.to_index a * n_layers) + Layer.to_index b)

let connects _ a b =
  Layer.equal a b
  || (match (a, b) with
     | Layer.Contact, (Layer.Metal | Layer.Poly | Layer.Diffusion)
     | (Layer.Metal | Layer.Poly | Layer.Diffusion), Layer.Contact
     | Layer.Contact_cut, (Layer.Metal | Layer.Poly | Layer.Diffusion)
     | (Layer.Metal | Layer.Poly | Layer.Diffusion), Layer.Contact_cut ->
       true
     | _ -> false)

let cut_size t = t.cut_size

let cut_spacing t = t.cut_spacing

let cut_overlap t = t.cut_overlap
