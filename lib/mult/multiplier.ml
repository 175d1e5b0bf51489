type cell_type = Type_I | Type_II

let cell_type ~m ~n ~i ~j =
  if (i = m - 1) <> (j = n - 1) then Type_II else Type_I

type t = { m : int; n : int; net : Cellnet.t; beta : int option }

let in_range ~width v = v >= -(1 lsl (width - 1)) && v < 1 lsl (width - 1)

let to_signed ~width v =
  let v = v land ((1 lsl width) - 1) in
  if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

let reference_product ~m ~n a b =
  if not (in_range ~width:m a) then invalid_arg "reference_product: a";
  if not (in_range ~width:n b) then invalid_arg "reference_product: b";
  to_signed ~width:(m + n) (a * b)

(* Array construction.  Carry-save cell (i, j), 0 <= i < m, 0 <= j < n,
   accumulates partial product a_i b_j at weight 2^(i+j):

     s_in = sum of cell (i+1, j-1)      (same weight)
     c_in = carry of cell (i, j-1)      (same weight)

   Row 0 and the top edge (i = m-1, j >= 1) have free s/c inputs; the
   Baugh-Wooley corrections 2^(m-1) and 2^(n-1) ride in on them.
   Product bit j (j < n) is the sum output of cell (0, j).  The
   carry-propagate row then resolves bits n .. m+n-2, with the final
   bit m+n-1 = NOT(last cpa carry) absorbing the 2^(m+n-1)
   correction. *)
let build ?beta ~m ~n () =
  if m < 2 || n < 2 then invalid_arg "Multiplier.build: m, n >= 2 required";
  (match beta with
  | Some b when b < 1 -> invalid_arg "Multiplier.build: beta >= 1 required"
  | _ -> ());
  let net = Cellnet.create () in
  let zero = Cellnet.add_cell net (Cellnet.Const false) [] in
  let one = Cellnet.add_cell net (Cellnet.Const true) [] in
  let szero = Cellnet.signal zero "out" and sone = Cellnet.signal one "out" in
  let a_in =
    Array.init m (fun bit ->
        Cellnet.add_cell net (Cellnet.Input { bus = "a"; bit }) [])
  in
  let b_in =
    Array.init n (fun bit ->
        Cellnet.add_cell net (Cellnet.Input { bus = "b"; bit }) [])
  in
  (* cells.(j).(i) = id of carry-save cell (i, j) *)
  let cells = Array.make_matrix n m 0 in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let a_sig =
        if j = 0 then Cellnet.signal a_in.(i) "out"
        else Cellnet.signal cells.(j - 1).(i) "a"
      in
      let b_sig =
        if i = 0 then Cellnet.signal b_in.(j) "out"
        else Cellnet.signal cells.(j).(i - 1) "b"
      in
      let s_sig =
        if j = 0 then
          (* free input at weight i: the 2^(m-1) correction *)
          if i = m - 1 then sone else szero
        else if i = m - 1 then
          (* top edge at weight m-1+j: the 2^(n-1) correction when
             n > m (at j = n - m) *)
          if n > m && j = n - m then sone else szero
        else Cellnet.signal cells.(j - 1).(i + 1) "sum"
      in
      let c_sig =
        if j = 0 then
          (* free input at weight i: the 2^(n-1) correction when
             n <= m *)
          if n <= m && i = n - 1 then sone else szero
        else Cellnet.signal cells.(j - 1).(i) "carry"
      in
      let negate = cell_type ~m ~n ~i ~j = Type_II in
      cells.(j).(i) <-
        Cellnet.add_cell net ~pos:(i, j)
          (Cellnet.Adder { negate })
          [ ("a", a_sig); ("b", b_sig); ("s", s_sig); ("c", c_sig) ]
    done
  done;
  (* Product bits 0 .. n-1 come straight off column 0. *)
  for j = 0 to n - 1 do
    Cellnet.set_output net "p" j (Cellnet.signal cells.(j).(0) "sum")
  done;
  (* Carry-propagate row: bit n+k for k = 0 .. m-1. *)
  let cpa = Array.make m 0 in
  for k = 0 to m - 1 do
    let s_sig =
      if k = m - 1 then sone (* the 2^(m+n-1) correction *)
      else Cellnet.signal cells.(n - 1).(k + 1) "sum"
    in
    let c_sig = Cellnet.signal cells.(n - 1).(k) "carry" in
    let k_sig =
      if k = 0 then szero else Cellnet.signal cpa.(k - 1) "carry"
    in
    cpa.(k) <-
      Cellnet.add_cell net ~pos:(k, n) Cellnet.Cpa
        [ ("s", s_sig); ("c", c_sig); ("k", k_sig) ];
    if k < m - 1 then
      Cellnet.set_output net "p" (n + k) (Cellnet.signal cpa.(k) "sum")
  done;
  (* Bit m+n-1: the last cpa sum; the +2^(m+n-1) correction was
     injected as its free s input, and the carry out falls off the
     (m+n)-bit result. *)
  Cellnet.set_output net "p" (m + n - 1) (Cellnet.signal cpa.(m - 1) "sum");
  (match beta with
  | None -> Cellnet.combinational net
  | Some b -> Cellnet.pipeline net ~beta:b);
  { m; n; net; beta }

let latency t = Cellnet.latency t.net

let operand_stimulus t pairs : Cellnet.stimulus =
  let arr = Array.of_list pairs in
  fun ~bus ~bit ~cycle ->
    if cycle < 0 || Array.length arr = 0 then false
    else
      (* hold the last pair after the stream ends *)
      let a, b = arr.(min cycle (Array.length arr - 1)) in
      let v = if String.equal bus "a" then a else b in
      let width = if String.equal bus "a" then t.m else t.n in
      (v land ((1 lsl width) - 1)) land (1 lsl bit) <> 0

let multiply t a b =
  if not (in_range ~width:t.m a) then invalid_arg "Multiplier.multiply: a";
  if not (in_range ~width:t.n b) then invalid_arg "Multiplier.multiply: b";
  let stim = operand_stimulus t [ (a, b) ] in
  let raw = Cellnet.read_output t.net stim ~bus:"p" ~cycle:(latency t) in
  to_signed ~width:(t.m + t.n) raw

let multiply_stream t pairs =
  List.iter
    (fun (a, b) ->
      if not (in_range ~width:t.m a) then invalid_arg "multiply_stream: a";
      if not (in_range ~width:t.n b) then invalid_arg "multiply_stream: b")
    pairs;
  let stim = operand_stimulus t pairs in
  let lat = latency t in
  List.mapi
    (fun k _ ->
      to_signed ~width:(t.m + t.n)
        (Cellnet.read_output t.net stim ~bus:"p" ~cycle:(lat + k)))
    pairs

type stats = {
  adder_cells : int;
  registers : int;
  input_skew : int;
  output_deskew : int;
  internal : int;
  latency_cycles : int;
  max_comb_depth : int;
}

let stats t =
  let registers = Cellnet.register_count t.net in
  let input_skew = Cellnet.input_skew_registers t.net in
  let output_deskew = Cellnet.output_deskew_registers t.net in
  { adder_cells = Cellnet.adder_count t.net;
    registers;
    input_skew;
    output_deskew;
    internal = registers - input_skew - output_deskew;
    latency_cycles = latency t;
    max_comb_depth = Cellnet.max_comb_depth t.net }
