type t =
  | Diffusion
  | Poly
  | Metal
  | Contact_cut
  | Contact
  | Implant
  | Buried
  | Overglass

let all =
  [ Diffusion; Poly; Metal; Contact_cut; Contact; Implant; Buried; Overglass ]

let name = function
  | Diffusion -> "diffusion"
  | Poly -> "poly"
  | Metal -> "metal"
  | Contact_cut -> "contact-cut"
  | Contact -> "contact"
  | Implant -> "implant"
  | Buried -> "buried"
  | Overglass -> "overglass"

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun l -> name l = s) all

let cif_name = function
  | Diffusion -> "ND"
  | Poly -> "NP"
  | Metal -> "NM"
  | Contact_cut -> "NC"
  | Contact -> "XC"
  | Implant -> "NI"
  | Buried -> "NB"
  | Overglass -> "NG"

let of_cif_name s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun l -> cif_name l = s) all

let equal a b = a = b

let to_index = function
  | Diffusion -> 0
  | Poly -> 1
  | Metal -> 2
  | Contact_cut -> 3
  | Contact -> 4
  | Implant -> 5
  | Buried -> 6
  | Overglass -> 7

let of_index_exn i =
  match List.nth_opt all i with
  | Some l -> l
  | None -> invalid_arg "Layer.of_index_exn"

let compare a b = Int.compare (to_index a) (to_index b)
