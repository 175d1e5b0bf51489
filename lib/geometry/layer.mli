(** Mask layers.

    A fixed symbolic layer set modelled on the NMOS process the thesis
    targets (Mead-Conway style), plus the synthetic [Contact] layer of
    section 6.4.3 that expands to metal + poly + contact cuts at mask
    creation time, and mask-personalisation layers for cell encoding. *)

type t =
  | Diffusion
  | Poly
  | Metal
  | Contact_cut   (** the actual lithographic cut *)
  | Contact       (** synthetic layer, expanded per section 6.4.3 *)
  | Implant       (** depletion implant (encoding masks) *)
  | Buried
  | Overglass

val all : t list

val name : t -> string

val of_name : string -> t option

val cif_name : t -> string
(** Two/three letter CIF layer names (NM, NP, ND, NC, NI, NB, NG; the
    synthetic contact layer gets the non-standard name "XC"). *)

val of_cif_name : string -> t option

val equal : t -> t -> bool

val compare : t -> t -> int

val to_index : t -> int
(** Dense index in [0 .. List.length all - 1]. *)

val of_index_exn : int -> t
(** Inverse of {!to_index}; raises [Invalid_argument] out of range. *)
