(** The HPLA-style sample for experiment E5 (section 1.2.2).

    HPLA required its sample layout to be a fully assembled
    two-input, two-output, two-product-term PLA, so that every
    interface the generator might need appeared somewhere in it — at
    the price of a larger sample with redundant information (the
    thesis notes it held two identical copies of the
    and-sq/connect-ao interface).  This module builds that assembled
    sample, labels every adjacency the way HPLA's relocation scheme
    consumed them, and extracts it so the redundancy can be counted
    against the minimal RSG sample of {!Pla_cells}. *)

type comparison = {
  hpla_instances : int;       (** instances in the assembled sample *)
  hpla_declarations : int;    (** labelled interface examples *)
  hpla_duplicates : int;      (** declarations already in the table *)
  rsg_instances : int;        (** instances in the minimal sample *)
  rsg_declarations : int;
  rsg_duplicates : int;
}

val compare_samples : unit -> comparison

val generates_same_pla : Truth_table.t -> bool
(** The PLA generated from the assembled HPLA sample is geometrically
    identical to the one from the minimal sample — the architecture
    information in the assembled sample is superfluous. *)
