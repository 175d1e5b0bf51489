(* Tests for the PLA subsystem (section 1.2.2): truth tables, the PLA
   and decoder generators with extraction-based verification, and the
   HPLA sample comparison. *)

open Rsg_layout
open Rsg_pla

(* ------------------------------------------------------------------ *)
(* Truth tables                                                       *)

let test_tt_parse_roundtrip () =
  let rows = [ ("10-", "10"); ("0-1", "01"); ("111", "11") ] in
  let tt = Truth_table.of_strings rows in
  Alcotest.(check int) "inputs" 3 tt.Truth_table.n_inputs;
  Alcotest.(check int) "outputs" 2 tt.Truth_table.n_outputs;
  Alcotest.(check (list (pair string string))) "round trip" rows
    (Truth_table.to_strings tt)

let test_tt_eval () =
  let tt = Truth_table.of_strings [ ("10", "10"); ("01", "01"); ("11", "11") ] in
  (* inputs little-endian: bit 0 is the first column *)
  Alcotest.(check int) "in=1 fires 10" 1 (Truth_table.eval_int tt 1);
  Alcotest.(check int) "in=2 fires 01" 2 (Truth_table.eval_int tt 2);
  Alcotest.(check int) "in=3 fires 11" 3 (Truth_table.eval_int tt 3);
  Alcotest.(check int) "in=0 fires none" 0 (Truth_table.eval_int tt 0)

let test_tt_dont_care () =
  let tt = Truth_table.of_strings [ ("-1", "1") ] in
  Alcotest.(check int) "fires on bit 1 alone" 1 (Truth_table.eval_int tt 2);
  Alcotest.(check int) "fires with both" 1 (Truth_table.eval_int tt 3);
  Alcotest.(check int) "silent without bit 1" 0 (Truth_table.eval_int tt 1)

let test_tt_crosspoints () =
  let tt = Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  Alcotest.(check (pair int int)) "crosspoints" (4, 2)
    (Truth_table.n_crosspoints tt)

let test_tt_errors () =
  let raises rows =
    try ignore (Truth_table.of_strings rows); false
    with Truth_table.Malformed _ -> true
  in
  Alcotest.(check bool) "empty" true (raises []);
  Alcotest.(check bool) "ragged" true (raises [ ("10", "1"); ("1", "1") ]);
  Alcotest.(check bool) "bad char" true (raises [ ("1z", "1") ])

(* Row [4 3] has a bad input and a bad output character: the input
   comes first, so it is the one named. *)
let test_tt_first_bad_char () =
  match Truth_table.of_strings [ ("4", "3") ] with
  | _ -> Alcotest.fail "bad row accepted"
  | exception Truth_table.Malformed msg ->
    Alcotest.(check string) "first bad character" "bad input character 4" msg

let test_tt_equal_semantics () =
  (* different terms, same function *)
  let a = Truth_table.of_strings [ ("1-", "1") ] in
  let b = Truth_table.of_strings [ ("10", "1"); ("11", "1") ] in
  Alcotest.(check bool) "semantically equal" true (Truth_table.equal a b);
  let c = Truth_table.of_strings [ ("01", "1") ] in
  Alcotest.(check bool) "different" false (Truth_table.equal a c)

(* ------------------------------------------------------------------ *)
(* PLA generation                                                     *)

let demo_tt () =
  Truth_table.of_strings [ ("10-", "10"); ("0-1", "01"); ("111", "11") ]

let test_pla_generate_verify () =
  let g = Gen.generate (demo_tt ()) in
  Alcotest.(check bool) "extraction matches personality" true (Gen.verify g)

let test_pla_structure () =
  let tt = demo_tt () in
  let g = Gen.generate tt in
  let counts = Gen.stats g in
  let get name = try List.assoc name counts with Not_found -> 0 in
  (* 2 columns per input x 3 terms *)
  Alcotest.(check int) "and plane" (6 * 3) (get Pla_cells.and_sq);
  Alcotest.(check int) "connect column" 3 (get Pla_cells.connect_ao);
  Alcotest.(check int) "or plane" (2 * 3) (get Pla_cells.or_sq);
  Alcotest.(check int) "input buffers" 3 (get Pla_cells.inbuf);
  Alcotest.(check int) "output buffers" 2 (get Pla_cells.outbuf);
  let and_x, or_x = Truth_table.n_crosspoints tt in
  Alcotest.(check int) "and crosspoints" and_x (get Pla_cells.and_cross);
  Alcotest.(check int) "or crosspoints" or_x (get Pla_cells.or_cross)

let test_pla_cif () =
  let g = Gen.generate (demo_tt ()) in
  let r = Cif.of_string (Cif.to_string g.Gen.cell) in
  Alcotest.(check bool) "cif round trip" true
    (Cif.roundtrip_equal g.Gen.cell (Db.find_exn r.Cif.db g.Gen.cell.Cell.cname))

let prop_random_plas =
  let gen_tt =
    QCheck.make
      (QCheck.Gen.map
         (fun rows ->
           let rows =
             List.map
               (fun (ls, os) ->
                 ( String.init 3 (fun i ->
                       match (ls lsr (2 * i)) land 3 with
                       | 0 -> '0'
                       | 1 -> '1'
                       | _ -> '-'),
                   String.init 2 (fun i ->
                       if (os lsr i) land 1 = 1 then '1' else '0') ))
               rows
           in
           Truth_table.of_strings rows)
         QCheck.Gen.(list_size (int_range 1 6) (pair (int_bound 63) (int_range 1 3))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"random PLAs verify by extraction" gen_tt
       (fun tt -> Gen.verify (Gen.generate tt)))

(* ------------------------------------------------------------------ *)
(* Decoder from the same sample (section 1.2.2)                       *)

let test_decoder () =
  let d = Gen.generate_decoder 3 in
  Alcotest.(check bool) "extraction verifies" true (Gen.verify d);
  for v = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "input %d" v)
      (1 lsl v)
      (Truth_table.eval_int d.Gen.table v)
  done;
  (* no OR plane in a decoder *)
  let counts = Gen.stats d in
  Alcotest.(check bool) "no or plane" true
    (not (List.mem_assoc Pla_cells.or_sq counts));
  Alcotest.(check int) "8 minterm rows x 6 columns" 48
    (List.assoc Pla_cells.and_sq counts)

let test_decoder_and_pla_share_sample () =
  let sample, _ = Pla_cells.build () in
  let p = Gen.generate ~sample (demo_tt ()) in
  let d = Gen.generate_decoder ~sample 2 in
  Alcotest.(check bool) "pla ok" true (Gen.verify p);
  Alcotest.(check bool) "decoder ok" true (Gen.verify d)

(* ------------------------------------------------------------------ *)
(* HPLA comparison (E5)                                               *)

let test_hpla_redundancy () =
  let c = Hpla.compare_samples () in
  Alcotest.(check int) "hpla instances" 22 c.Hpla.hpla_instances;
  Alcotest.(check int) "hpla declarations" 26 c.Hpla.hpla_declarations;
  Alcotest.(check int) "hpla redundant" 16 c.Hpla.hpla_duplicates;
  Alcotest.(check int) "rsg declarations" 11 c.Hpla.rsg_declarations;
  Alcotest.(check int) "rsg redundant" 0 c.Hpla.rsg_duplicates;
  Alcotest.(check bool) "hpla sample is larger" true
    (c.Hpla.hpla_declarations > c.Hpla.rsg_declarations)

let test_hpla_same_layout () =
  Alcotest.(check bool) "both samples generate the same PLA" true
    (Hpla.generates_same_pla
       (Truth_table.of_strings [ ("10", "10"); ("01", "01") ]))

(* ------------------------------------------------------------------ *)
(* PLA design file (delayed binding of the encoding)                  *)

let test_pla_design_file_equivalence () =
  let tt = demo_tt () in
  let native = Gen.generate tt in
  let _, interpreted = Pla_design_file.generate tt in
  Alcotest.(check bool) "pla design file == native" true
    (Cif.roundtrip_equal native.Gen.cell interpreted)

let test_decoder_design_file_equivalence () =
  let native = Gen.generate_decoder 3 in
  let _, interpreted = Pla_design_file.generate_decoder 3 in
  Alcotest.(check bool) "decoder design file == native" true
    (Cif.roundtrip_equal native.Gen.cell interpreted)

let prop_design_file_random =
  let gen_tt =
    QCheck.make
      (QCheck.Gen.map
         (fun rows ->
           Truth_table.of_strings
             (List.map
                (fun (ls, os) ->
                  ( String.init 2 (fun i ->
                        match (ls lsr (2 * i)) land 3 with
                        | 0 -> '0'
                        | 1 -> '1'
                        | _ -> '-'),
                    String.init 2 (fun i ->
                        if (os lsr i) land 1 = 1 then '1' else '0') ))
                rows))
         QCheck.Gen.(
           list_size (int_range 1 4) (pair (int_bound 15) (int_range 1 3))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"random tables: design file == native"
       gen_tt (fun tt ->
         let native = Gen.generate tt in
         let _, interpreted = Pla_design_file.generate tt in
         Cif.roundtrip_equal native.Gen.cell interpreted))

(* ------------------------------------------------------------------ *)
(* Folding (section 1.2.3)                                            *)

let foldable_tt () =
  (* inputs 0/2 and 1/3 never share a product term *)
  Truth_table.of_strings
    [ ("10--", "10"); ("01--", "01"); ("--11", "11"); ("--01", "10") ]

let test_fold_plan () =
  let tt = foldable_tt () in
  let f = Folding.plan tt in
  Alcotest.(check int) "two pairs" 2 (List.length f.Folding.pairs);
  Alcotest.(check int) "no singles" 0 (List.length f.Folding.singles);
  Alcotest.(check int) "two slots" 2 (Folding.n_slots f);
  Alcotest.(check int) "four columns saved" 4 (Folding.columns_saved tt f);
  (* paired inputs really are row-disjoint *)
  List.iter
    (fun (i, j) ->
      List.iteri
        (fun r (term : Truth_table.term) ->
          ignore r;
          Alcotest.(check bool) "disjoint" false
            (term.Truth_table.lits.(i) <> Truth_table.X
            && term.Truth_table.lits.(j) <> Truth_table.X))
        tt.Truth_table.terms)
    f.Folding.pairs

let test_fold_verify_and_shrink () =
  let tt = foldable_tt () in
  let folded = Folding.generate tt in
  Alcotest.(check bool) "folded extraction verifies" true
    (Folding.verify folded);
  let straight = Gen.generate tt in
  let width c =
    match (Flatten.stats c).Flatten.bbox with
    | Some b -> Rsg_geom.Box.width b
    | None -> 0
  in
  Alcotest.(check bool) "folded is narrower" true
    (width folded.Folding.cell < width straight.Gen.cell);
  (* same function *)
  Alcotest.(check bool) "same personality" true
    (Truth_table.equal (Folding.read_back folded) tt)

let test_fold_unfoldable () =
  let tt = Truth_table.of_strings [ ("111", "1"); ("000", "1") ] in
  let f = Folding.plan tt in
  Alcotest.(check int) "no pairs" 0 (List.length f.Folding.pairs);
  let g = Folding.generate tt in
  Alcotest.(check bool) "still verifies" true (Folding.verify g)

let test_fold_needs_row_reorder () =
  (* inputs 0 and 1 are row-disjoint but interleaved: folding must
     reorder rows *)
  let tt =
    Truth_table.of_strings [ ("1-", "1"); ("-1", "1"); ("0-", "1"); ("-0", "1") ]
  in
  let f = Folding.plan tt in
  Alcotest.(check int) "one pair" 1 (List.length f.Folding.pairs);
  Alcotest.(check bool) "rows permuted" true
    (f.Folding.row_order <> [| 0; 1; 2; 3 |]);
  let g = Folding.generate tt in
  Alcotest.(check bool) "verifies after reorder" true (Folding.verify g)

let prop_fold_random =
  let gen_tt =
    QCheck.make
      (QCheck.Gen.map
         (fun rows ->
           Truth_table.of_strings
             (List.map
                (fun (ls, os) ->
                  ( String.init 4 (fun i ->
                        match (ls lsr (2 * i)) land 3 with
                        | 0 -> '0'
                        | 1 -> '1'
                        | _ -> '-'),
                    String.init 2 (fun i ->
                        if (os lsr i) land 1 = 1 then '1' else '0') ))
                rows))
         QCheck.Gen.(
           list_size (int_range 1 6) (pair (int_bound 255) (int_range 1 3))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"random tables fold and verify" gen_tt
       (fun tt -> Folding.verify (Folding.generate tt)))

(* ------------------------------------------------------------------ *)
(* ROM                                                                *)

let test_rom_roundtrip () =
  let contents = [| 0xA; 0x3; 0xF; 0x0; 0x5; 0xC; 0x9; 0x6 |] in
  let rom = Rom.generate ~word_bits:4 contents in
  Alcotest.(check int) "address bits" 3 rom.Rom.address_bits;
  Alcotest.(check bool) "verified via layout" true (Rom.verify rom);
  Array.iteri
    (fun addr w ->
      Alcotest.(check int) (Printf.sprintf "word %d" addr) w
        (Rom.read_word rom addr))
    contents;
  Alcotest.(check (array int)) "dump equals contents" contents (Rom.dump rom)

let test_rom_errors () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non power of two" true
    (raises (fun () -> Rom.generate ~word_bits:4 [| 1; 2; 3 |]));
  Alcotest.(check bool) "word too wide" true
    (raises (fun () -> Rom.generate ~word_bits:2 [| 0; 5 |]));
  Alcotest.(check bool) "single word" true
    (raises (fun () -> Rom.generate ~word_bits:2 [| 1 |]));
  let rom = Rom.generate ~word_bits:2 [| 1; 2 |] in
  Alcotest.(check bool) "address out of range" true
    (raises (fun () -> Rom.read_word rom 5))

let prop_rom_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"random ROMs verify"
       QCheck.(array_of_size (QCheck.Gen.return 8) (int_bound 15))
       (fun contents -> Rom.verify (Rom.generate ~word_bits:4 contents)))

(* ------------------------------------------------------------------ *)
(* Weinberger arrays (section 1.2.1)                                  *)

let test_weinberger_eval () =
  (* inverter *)
  let v = Weinberger.eval Weinberger.inverter [| true |] in
  Alcotest.(check bool) "not true" false v.(1);
  let v = Weinberger.eval Weinberger.inverter [| false |] in
  Alcotest.(check bool) "not false" true v.(1);
  (* the classic 4-NOR equivalence gate: g0 = nor(a,b);
     g1 = nor(a,g0); g2 = nor(b,g0); g3 = nor(g1,g2) = (a = b) *)
  let xnor =
    { Weinberger.n_primary = 2; gates = [| [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 3; 4 ] |] }
  in
  List.iter
    (fun (a, b) ->
      let v = Weinberger.eval xnor [| a; b |] in
      Alcotest.(check bool)
        (Printf.sprintf "%b xnor %b" a b)
        (a = b)
        v.(Weinberger.n_signals xnor - 1))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_weinberger_validate () =
  let raises p =
    try Weinberger.validate p; false with Weinberger.Bad_program _ -> true
  in
  Alcotest.(check bool) "forward reference" true
    (raises { Weinberger.n_primary = 1; gates = [| [ 2 ]; [ 0 ] |] });
  Alcotest.(check bool) "self reference" true
    (raises { Weinberger.n_primary = 1; gates = [| [ 1 ] |] });
  Alcotest.(check bool) "empty gate" true
    (raises { Weinberger.n_primary = 1; gates = [| [] |] });
  Alcotest.(check bool) "no primaries" true
    (raises { Weinberger.n_primary = 0; gates = [| [ 0 ] |] })

let test_weinberger_layout () =
  let xnor =
    { Weinberger.n_primary = 2; gates = [| [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 3; 4 ] |] }
  in
  let t = Weinberger.generate xnor in
  Alcotest.(check bool) "extraction verifies" true (Weinberger.verify t);
  (* 4 gate columns x 6 signal rows *)
  let st = Flatten.stats t.Weinberger.cell in
  Alcotest.(check int) "array squares" 24
    (List.assoc "wein-col" st.Flatten.by_cell)

let test_weinberger_compile_tt () =
  (* the NOR compilation evaluates to exactly the truth table *)
  List.iter
    (fun rows ->
      let tt = Truth_table.of_strings rows in
      let prog, outs = Weinberger.of_truth_table tt in
      for v = 0 to (1 lsl tt.Truth_table.n_inputs) - 1 do
        let primaries =
          Array.init tt.Truth_table.n_inputs (fun i -> v land (1 lsl i) <> 0)
        in
        let got = Weinberger.eval_outputs prog outs primaries in
        let want =
          let o = Truth_table.eval_int tt v in
          Array.init tt.Truth_table.n_outputs (fun k -> o land (1 lsl k) <> 0)
        in
        Alcotest.(check bool)
          (Printf.sprintf "input %d" v)
          true (got = want)
      done)
    [ [ ("10-", "10"); ("0-1", "01"); ("111", "11") ];
      [ ("---", "1") ];               (* all don't-care term *)
      [ ("11", "10") ];               (* an output never driven *)
      [ ("1", "1"); ("0", "1") ] ]

let prop_weinberger_compile_random =
  let gen_tt =
    QCheck.make
      (QCheck.Gen.map
         (fun rows ->
           Truth_table.of_strings
             (List.map
                (fun (ls, os) ->
                  ( String.init 3 (fun i ->
                        match (ls lsr (2 * i)) land 3 with
                        | 0 -> '0'
                        | 1 -> '1'
                        | _ -> '-'),
                    String.init 2 (fun i ->
                        if (os lsr i) land 1 = 1 then '1' else '0') ))
                rows))
         QCheck.Gen.(
           list_size (int_range 1 5) (pair (int_bound 63) (int_range 0 3))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"random tables compile to NOR logic"
       gen_tt (fun tt ->
         let prog, outs = Weinberger.of_truth_table tt in
         let ok = ref true in
         for v = 0 to 7 do
           let primaries = Array.init 3 (fun i -> v land (1 lsl i) <> 0) in
           let got = Weinberger.eval_outputs prog outs primaries in
           let o = Truth_table.eval_int tt v in
           let want = Array.init 2 (fun k -> o land (1 lsl k) <> 0) in
           if got <> want then ok := false
         done;
         !ok))

let prop_weinberger_random =
  let gen_prog =
    QCheck.make
      QCheck.Gen.(
        let* n_primary = int_range 1 3 in
        let* n_gates = int_range 1 5 in
        let* gates =
          let gate k =
            list_size (int_range 1 (min 3 (n_primary + k)))
              (int_range 0 (n_primary + k - 1))
          in
          (* build gate lists sequentially so ranges respect k *)
          let rec go k acc =
            if k = n_gates then return (List.rev acc)
            else
              let* g = gate k in
              go (k + 1) (g :: acc)
          in
          go 0 []
        in
        return { Weinberger.n_primary; gates = Array.of_list gates })
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"random NOR programs verify" gen_prog
       (fun p -> Weinberger.verify (Weinberger.generate p)))

let () =
  Alcotest.run "rsg_pla"
    [ ("truth-table",
       [ Alcotest.test_case "parse round trip" `Quick test_tt_parse_roundtrip;
         Alcotest.test_case "eval" `Quick test_tt_eval;
         Alcotest.test_case "don't care" `Quick test_tt_dont_care;
         Alcotest.test_case "crosspoints" `Quick test_tt_crosspoints;
         Alcotest.test_case "errors" `Quick test_tt_errors;
         Alcotest.test_case "first bad character named" `Quick
           test_tt_first_bad_char;
         Alcotest.test_case "semantic equality" `Quick test_tt_equal_semantics ]);
      ("generate",
       [ Alcotest.test_case "verify by extraction" `Quick
           test_pla_generate_verify;
         Alcotest.test_case "structure" `Quick test_pla_structure;
         Alcotest.test_case "cif" `Quick test_pla_cif;
         prop_random_plas ]);
      ("decoder",
       [ Alcotest.test_case "3-to-8" `Quick test_decoder;
         Alcotest.test_case "shared sample" `Quick
           test_decoder_and_pla_share_sample ]);
      ("hpla",
       [ Alcotest.test_case "redundancy counts (E5)" `Quick
           test_hpla_redundancy;
         Alcotest.test_case "same layout" `Quick test_hpla_same_layout ]);
      ("design-file",
       [ Alcotest.test_case "pla equivalence" `Quick
           test_pla_design_file_equivalence;
         Alcotest.test_case "decoder equivalence" `Quick
           test_decoder_design_file_equivalence;
         prop_design_file_random ]);
      ("folding",
       [ Alcotest.test_case "plan" `Quick test_fold_plan;
         Alcotest.test_case "verify + shrink" `Quick
           test_fold_verify_and_shrink;
         Alcotest.test_case "unfoldable" `Quick test_fold_unfoldable;
         Alcotest.test_case "row reorder" `Quick test_fold_needs_row_reorder;
         prop_fold_random ]);
      ("rom",
       [ Alcotest.test_case "round trip" `Quick test_rom_roundtrip;
         Alcotest.test_case "errors" `Quick test_rom_errors;
         prop_rom_random ]);
      ("weinberger",
       [ Alcotest.test_case "eval" `Quick test_weinberger_eval;
         Alcotest.test_case "validate" `Quick test_weinberger_validate;
         Alcotest.test_case "layout + extraction" `Quick
           test_weinberger_layout;
         Alcotest.test_case "truth-table compilation" `Quick
           test_weinberger_compile_tt;
         prop_weinberger_compile_random;
         prop_weinberger_random ]) ]
