(** Baugh-Wooley array multipliers (Chapter 5).

    A purely combinational m-by-n two's complement multiplier built
    from two carry-save adder cell types plus a final carry-propagate
    row (Figure 5.1):

    - Type I adds the bit product [a_i * b_j] to its sum and carry
      inputs; type II adds the complemented product.
    - Type II cells sit where exactly one of the operand MSBs is
      involved — the left and bottom edges of the carry-save array
      except the corner (Chapter 5's personalization rule).
    - The Baugh-Wooley corrections [2^(m-1) + 2^(n-1) + 2^(m+n-1)] are
      injected as constant ones on otherwise-unused edge inputs (the
      "Ones and zeros ... assigned to the unused inputs along the top
      and left edges"), the last as an inversion of the final carry.

    The same cell-type rule drives the layout generator
    ({!Layout_gen}), so the logic model verifies exactly the structure
    the RSG personalises. *)

type cell_type = Type_I | Type_II

val cell_type : m:int -> n:int -> i:int -> j:int -> cell_type
(** Personality of carry-save cell (i, j): [Type_II] iff exactly one
    of [i = m-1], [j = n-1] holds. *)

type t = {
  m : int;  (** multiplier width (bits of a) *)
  n : int;  (** multiplicand width (bits of b) *)
  net : Cellnet.t;
  beta : int option;  (** pipelining degree; [None] = combinational *)
}

val build : ?beta:int -> m:int -> n:int -> unit -> t
(** Construct the array.  [m, n >= 2]; [beta >= 1] pipelines to at
    most [beta] full-adder delays between registers (1 = bit-systolic,
    Figure 5.2a; 2 = Figure 5.2b). *)

val latency : t -> int

val multiply : t -> int -> int -> int
(** [multiply t a b] drives the array with two's complement operands
    ([a] in m bits, [b] in n bits; raises [Invalid_argument] when out
    of range) and returns the signed (m+n)-bit product.  For a
    pipelined array the operands are presented at cycle 0 and the
    product read at the latency. *)

val multiply_stream : t -> (int * int) list -> int list
(** Pipelined operation: present operand pair k at cycle k and collect
    the products at cycles [latency], [latency + 1], ... — one result
    per cycle, demonstrating full throughput. *)

type stats = {
  adder_cells : int;
  registers : int;
  input_skew : int;      (** peripheral input-stack registers *)
  output_deskew : int;
  internal : int;        (** registers between array cells *)
  latency_cycles : int;
  max_comb_depth : int;  (** adder delays between registers *)
}

val stats : t -> stats

val reference_product : m:int -> n:int -> int -> int -> int
(** Signed (m+n)-bit product computed arithmetically; the oracle for
    tests. *)

val in_range : width:int -> int -> bool
(** Two's complement range check. *)
