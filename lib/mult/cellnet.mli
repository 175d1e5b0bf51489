(** Cell-level synchronous networks.

    Chapter 5 treats the full adder as "the largest indivisible cell":
    the degree of pipelining is measured in full-adder combinational
    delays between registers, and retiming moves whole-register
    boundaries between cells.  This module models circuits at exactly
    that granularity: nodes are multiplier cells (AND gate + full
    adder, with operand pass-through), carry-propagate adder cells,
    inverters, constants and external inputs; connections carry a
    register count.

    Pipelining to degree [beta] (at most [beta] full-adder delays
    between any two registers) is implemented by staging: each cell is
    assigned stage [(depth - 1) / beta] and every connection receives
    [stage(consumer) - stage(producer)] registers.  On an acyclic
    array this is equivalent to a legal retiming [Leiserson-Rose-Saxe]
    and reproduces the peripheral register stacks of Figure 5.2: a
    connection from an external input to a stage-s cell acquires the
    s-register skewing column. *)

type port = string
(** Output port names: adder cells expose ["sum"], ["carry"], ["a"]
    and ["b"] (operand pass-throughs); single-output cells expose
    ["out"]. *)

type kind =
  | Adder of { negate : bool }
      (** partial-product adder cell: inputs [a] [b] [s] [c]; output
          [sum] = (a&b ^ negate) + s + c low bit, [carry] the high
          bit; pass-throughs [a], [b].  [negate] selects the
          complemented (type II) product. *)
  | Cpa  (** plain full adder: inputs [s] [c] [k] (carry chain) *)
  | Notg  (** inverter: input [x] *)
  | Const of bool
  | Input of { bus : string; bit : int }

type signal = { src : int; port : port }

type t

val create : unit -> t

val add_cell :
  t -> ?pos:int * int -> kind -> (string * signal) list -> int
(** [add_cell net kind inputs] returns the new cell id.  Inputs are
    (input-name, signal) pairs; every connection starts with zero
    registers.  Raises [Failure] on a dangling signal or a missing /
    unknown input name for the kind. *)

val signal : int -> port -> signal

val set_output : t -> string -> int -> signal -> unit
(** Register [signal] as bit [i] of output bus [name]. *)

val adder_count : t -> int
(** Cells that cost a full-adder delay (Adder and Cpa). *)

(* ---- pipelining ---- *)

val pipeline : t -> beta:int -> unit
(** Assign stages for at most [beta] adder delays between registers
    and set the register count of every connection (including output
    deskew).  [beta <= 0] raises [Invalid_argument].  Idempotent:
    recomputes from scratch. *)

val combinational : t -> unit
(** Clear all registers (degree-infinity pipelining). *)

val latency : t -> int
(** Cycles from input presentation to aligned outputs (0 when
    combinational). *)

val register_count : t -> int
(** Total registers over all connections and output deskew chains. *)

val input_skew_registers : t -> int
(** Registers on connections leaving [Input] cells — the peripheral
    input stacks of Figure 5.2. *)

val output_deskew_registers : t -> int

val max_comb_depth : t -> int
(** Longest register-free full-adder chain — the quantity [beta]
    bounds. *)

type register_entry = {
  re_from : int * port;
  re_to : [ `Cell of int * string | `Output of string * int ];
  re_count : int;
}

val register_table : t -> register_entry list
(** The register configuration table (section 5): every connection
    with a non-zero register count. *)

(* ---- simulation ---- *)

type stimulus = bus:string -> bit:int -> cycle:int -> bool
(** External input streams (total over all cycles, negative
    included). *)

val read_output : t -> stimulus -> bus:string -> cycle:int -> int
(** Assemble an output bus (little-endian) at a cycle. *)
