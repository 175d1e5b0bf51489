(* Tests for the multiplier subsystem (Chapter 5): the Baugh-Wooley
   logic model, pipelining, the sample library, the native layout
   generator, and the Appendix B design file. *)

open Rsg_geom
open Rsg_layout
open Rsg_core
open Rsg_mult

(* ------------------------------------------------------------------ *)
(* Logic model                                                        *)

let test_cell_type_rule () =
  let m = 5 and n = 4 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let expected =
        if (i = m - 1) <> (j = n - 1) then Multiplier.Type_II
        else Multiplier.Type_I
      in
      Alcotest.(check bool)
        (Printf.sprintf "cell (%d,%d)" i j)
        true
        (Multiplier.cell_type ~m ~n ~i ~j = expected)
    done
  done;
  (* corner is type I even though it involves both MSBs *)
  Alcotest.(check bool) "corner" true
    (Multiplier.cell_type ~m ~n ~i:(m - 1) ~j:(n - 1) = Multiplier.Type_I)

let test_exhaustive_small () =
  List.iter
    (fun (m, n) ->
      let t = Multiplier.build ~m ~n () in
      for a = -(1 lsl (m - 1)) to (1 lsl (m - 1)) - 1 do
        for b = -(1 lsl (n - 1)) to (1 lsl (n - 1)) - 1 do
          Alcotest.(check int)
            (Printf.sprintf "%dx%d: %d*%d" m n a b)
            (Multiplier.reference_product ~m ~n a b)
            (Multiplier.multiply t a b)
        done
      done)
    [ (2, 2); (3, 3); (4, 4); (2, 5); (5, 2); (3, 4); (4, 3) ]

let prop_random_products =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"8x8 combinational equals reference"
       (QCheck.pair (QCheck.int_range (-128) 127) (QCheck.int_range (-128) 127))
       (fun (a, b) ->
         let t = Multiplier.build ~m:8 ~n:8 () in
         Multiplier.multiply t a b = a * b))

let test_range_checks () =
  let t = Multiplier.build ~m:4 ~n:4 () in
  Alcotest.(check bool) "a too big" true
    (try ignore (Multiplier.multiply t 8 0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "b too small" true
    (try ignore (Multiplier.multiply t 0 (-9)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad sizes" true
    (try ignore (Multiplier.build ~m:1 ~n:4 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad beta" true
    (try ignore (Multiplier.build ~beta:0 ~m:4 ~n:4 ()); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pipelining (fig 5.2)                                               *)

let test_pipelined_correctness () =
  List.iter
    (fun beta ->
      let t = Multiplier.build ~beta ~m:5 ~n:4 () in
      let s = Multiplier.stats t in
      Alcotest.(check bool)
        (Printf.sprintf "beta=%d bounds comb depth" beta)
        true
        (s.Multiplier.max_comb_depth <= beta);
      for a = -16 to 15 do
        for b = -8 to 7 do
          Alcotest.(check int)
            (Printf.sprintf "beta=%d %d*%d" beta a b)
            (Multiplier.reference_product ~m:5 ~n:4 a b)
            (Multiplier.multiply t a b)
        done
      done)
    [ 1; 2; 3; 4 ]

let test_bit_systolic_depth_one () =
  (* Figure 5.2a: at most ONE full adder delay between registers. *)
  let t = Multiplier.build ~beta:1 ~m:6 ~n:6 () in
  Alcotest.(check int) "max depth 1" 1
    (Multiplier.stats t).Multiplier.max_comb_depth

let test_streaming_throughput () =
  let t = Multiplier.build ~beta:1 ~m:6 ~n:6 () in
  let pairs =
    [ (31, -32); (-32, -32); (0, 17); (-1, -1); (5, 5); (-17, 20); (1, -9) ]
  in
  let results = Multiplier.multiply_stream t pairs in
  List.iter2
    (fun (a, b) p ->
      Alcotest.(check int) (Printf.sprintf "stream %d*%d" a b) (a * b) p)
    pairs results

let test_pipelining_tradeoffs () =
  (* Deeper pipelining (smaller beta): more registers, more latency;
     combinational: none. *)
  let stats beta = Multiplier.stats (Multiplier.build ?beta ~m:6 ~n:6 ()) in
  let s1 = stats (Some 1) and s2 = stats (Some 2) and sc = stats None in
  Alcotest.(check bool) "beta=1 has more registers than beta=2" true
    (s1.Multiplier.registers > s2.Multiplier.registers);
  Alcotest.(check bool) "beta=1 has higher latency" true
    (s1.Multiplier.latency_cycles > s2.Multiplier.latency_cycles);
  Alcotest.(check int) "combinational has no registers" 0
    sc.Multiplier.registers;
  Alcotest.(check int) "combinational latency 0" 0 sc.Multiplier.latency_cycles;
  Alcotest.(check bool) "input skew present when pipelined" true
    (s1.Multiplier.input_skew > 0);
  Alcotest.(check bool) "register table covers count" true
    (List.fold_left
       (fun acc e -> acc + e.Cellnet.re_count)
       0
       (Cellnet.register_table (Multiplier.build ~beta:1 ~m:4 ~n:4 ()).Multiplier.net)
     > 0)

let test_adder_cell_count () =
  (* m*n carry-save cells + m carry-propagate cells. *)
  let t = Multiplier.build ~m:5 ~n:3 () in
  Alcotest.(check int) "adder cells" ((5 * 3) + 5)
    (Multiplier.stats t).Multiplier.adder_cells

(* ------------------------------------------------------------------ *)
(* Sample library                                                     *)

let test_sample_extraction () =
  let s, decls = Sample_lib.build () in
  (* one declaration per assembly, none duplicated *)
  Alcotest.(check int) "22 interfaces" 22 (List.length decls);
  Alcotest.(check bool) "no duplicates" true
    (List.for_all (fun d -> not d.Sample.d_duplicate) decls);
  (* spot checks *)
  Alcotest.(check bool) "cell-cell horizontal" true
    (Interface_table.mem s.Sample.table ~from:"cell" ~into:"cell" ~index:1);
  Alcotest.(check bool) "cell-topreg" true
    (Interface_table.mem s.Sample.table ~from:"cell" ~into:"tr" ~index:1);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " loaded") true (Db.mem s.Sample.db name))
    ([ "cell"; "t1"; "t2"; "clk1"; "clk2"; "car1"; "car2"; "tr"; "br"; "rr" ]
    @ Sample_lib.dir_masks)

let test_sample_cif_roundtrip () =
  (* The whole sample layout survives CIF. *)
  List.iter
    (fun asm ->
      let r = Cif.of_string (Cif.to_string asm) in
      let asm' = Db.find_exn r.Cif.db asm.Cell.cname in
      Alcotest.(check bool)
        (asm.Cell.cname ^ " round trips")
        true
        (Cif.roundtrip_equal asm asm'))
    (Sample_lib.assemblies ())

(* ------------------------------------------------------------------ *)
(* Layout generation                                                  *)

let test_generated_counts () =
  List.iter
    (fun (xsize, ysize) ->
      let g = Layout_gen.generate ~xsize ~ysize () in
      let st = Flatten.stats g.Layout_gen.whole in
      let counted =
        List.filter
          (fun (name, _) ->
            not
              (List.mem name
                 [ "array"; "topregs"; "bottomregs"; "rightregs" ]))
          st.Flatten.by_cell
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%dx%d mask counts" xsize ysize)
        (Layout_gen.expected_mask_counts ~xsize ~ysize)
        counted)
    [ (2, 2); (4, 4); (3, 5); (6, 3) ]

let test_basic_cell_grid () =
  let xsize = 4 and ysize = 3 in
  let g = Layout_gen.generate ~xsize ~ysize () in
  let positions = Flatten.positions g.Layout_gen.whole "cell" in
  let expected =
    List.concat_map
      (fun x ->
        List.map
          (fun y ->
            Vec.make
              ((x - 1) * Sample_lib.cell_width)
              ((y - 1) * Sample_lib.cell_height))
          (List.init (ysize + 1) (fun j -> j + 1)))
      (List.init xsize (fun i -> i + 1))
    |> List.sort Vec.compare
  in
  Alcotest.(check bool) "cells on the pitch grid" true (positions = expected)

let test_personalisation_matches_logic () =
  (* The t2 masks in the layout must sit exactly on the Type_II cells
     of the logic model (carry-save rows only; the cpa row is t1). *)
  let xsize = 5 and ysize = 4 in
  let g = Layout_gen.generate ~xsize ~ysize () in
  let mask_offset = Vec.make 6 28 in
  let got =
    Flatten.positions g.Layout_gen.whole "t2"
    |> List.map (fun p ->
           let q = Vec.sub p mask_offset in
           (q.Vec.x / Sample_lib.cell_width, q.Vec.y / Sample_lib.cell_height))
    |> List.sort compare
  in
  let expected = ref [] in
  for i = 0 to xsize - 1 do
    for j = 0 to ysize - 1 do
      if Multiplier.cell_type ~m:xsize ~n:ysize ~i ~j = Multiplier.Type_II
      then expected := (i, j) :: !expected
    done
  done;
  let expected = List.sort compare !expected in
  Alcotest.(check bool) "type II placement" true (got = expected)

let test_register_stack_shapes () =
  let xsize = 4 and ysize = 4 in
  let g = Layout_gen.generate ~xsize ~ysize () in
  let st = Flatten.stats g.Layout_gen.whole in
  let count name = List.assoc name st.Flatten.by_cell in
  Alcotest.(check int) "top stack is triangular" (xsize * (xsize + 1) / 2)
    (count "tr");
  Alcotest.(check int) "bottom stack is triangular" (xsize * (xsize + 1) / 2)
    (count "br");
  let regnum = (3 * ysize) + 1 in
  let length = (regnum / 2) + 1 in
  Alcotest.(check int) "right bank" (ysize * length) (count "rr")

let test_whole_multiplier_cif () =
  let g = Layout_gen.generate ~xsize:3 ~ysize:3 () in
  let r = Cif.of_string (Cif.to_string g.Layout_gen.whole) in
  let back = Db.find_exn r.Cif.db g.Layout_gen.whole.Cell.cname in
  Alcotest.(check bool) "whole multiplier survives CIF" true
    (Cif.roundtrip_equal g.Layout_gen.whole back)

(* ------------------------------------------------------------------ *)
(* E17: the interpreted design file equals the native generator.      *)

let test_design_file_equivalence () =
  List.iter
    (fun (xsize, ysize) ->
      let native = Layout_gen.generate ~xsize ~ysize () in
      let _, interpreted = Design_file.generate ~xsize ~ysize () in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d geometry identical" xsize ysize)
        true
        (Cif.roundtrip_equal native.Layout_gen.whole interpreted);
      let sn = Flatten.stats native.Layout_gen.whole in
      let si = Flatten.stats interpreted in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%dx%d instance census" xsize ysize)
        sn.Flatten.by_cell si.Flatten.by_cell)
    [ (2, 2); (4, 4); (3, 5) ]

let test_design_file_retarget () =
  (* The same design file generates against a re-extracted sample —
     decoupling of procedural and graphical information. *)
  let sample, _ = Sample_lib.build () in
  let _, cell = Design_file.generate ~sample ~xsize:2 ~ysize:2 () in
  Alcotest.(check string) "created" "thewholething" cell.Cell.cname

let test_sample_through_cif_file () =
  (* the full figure 1.1 flow with the sample as a layout file: write
     every assembly into one CIF, read it back, re-extract, and the
     design file must generate the identical multiplier *)
  let container = Cell.create "sample-container" in
  List.iter
    (fun a -> ignore (Cell.add_instance container ~at:Rsg_geom.Vec.zero a))
    (Sample_lib.assemblies ());
  let r = Cif.of_string (Cif.to_string container) in
  let sample, decls = Sample.of_db r.Cif.db in
  Alcotest.(check int) "all interfaces re-extracted" 22 (List.length decls);
  let _, via_file = Design_file.generate ~sample ~xsize:3 ~ysize:3 () in
  let direct = Layout_gen.generate ~xsize:3 ~ysize:3 () in
  Alcotest.(check bool) "identical through the file" true
    (Cif.roundtrip_equal via_file direct.Layout_gen.whole)

let test_headline_32x32 () =
  (* the thesis's headline case: a 32x32 multiplier through the design
     file, with the instance census predicted from the rules *)
  let _, cell = Design_file.generate ~xsize:32 ~ysize:32 () in
  let st = Flatten.stats cell in
  let counted =
    List.filter
      (fun (name, _) ->
        not (List.mem name [ "array"; "topregs"; "bottomregs"; "rightregs" ]))
      st.Flatten.by_cell
  in
  Alcotest.(check (list (pair string int))) "32x32 census"
    (Layout_gen.expected_mask_counts ~xsize:32 ~ysize:32)
    counted;
  (* and the 16x16 pipelined model multiplies correctly on samples *)
  let t = Multiplier.build ~beta:2 ~m:16 ~n:16 () in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b)
        (Multiplier.multiply t a b))
    [ (32767, -32768); (-32768, -32768); (12345, 321); (-1, 1) ]

let test_timed_generate () =
  let phases, cell = Design_file.timed_generate ~xsize:4 ~ysize:4 in
  Alcotest.(check bool) "cif written" true (phases.Design_file.cif_bytes > 1000);
  Alcotest.(check bool) "all phases measured" true
    (phases.Design_file.t_read_sample >= 0.
    && phases.Design_file.t_execute >= 0.
    && phases.Design_file.t_write >= 0.);
  Alcotest.(check string) "cell" "thewholething" cell.Cell.cname

let test_register_table_sums () =
  (* the register configuration table accounts for every register *)
  let t = Multiplier.build ~beta:2 ~m:5 ~n:4 () in
  let table = Cellnet.register_table t.Multiplier.net in
  let total = List.fold_left (fun acc e -> acc + e.Cellnet.re_count) 0 table in
  Alcotest.(check int) "table covers register count"
    (Multiplier.stats t).Multiplier.registers total;
  (* every entry is positive and every output-deskew entry names bus p *)
  Alcotest.(check bool) "entries positive" true
    (List.for_all (fun e -> e.Cellnet.re_count > 0) table);
  Alcotest.(check bool) "deskew names the product bus" true
    (List.for_all
       (fun e ->
         match e.Cellnet.re_to with
         | `Output (bus, _) -> bus = "p"
         | `Cell _ -> true)
       table)

(* ------------------------------------------------------------------ *)
(* Retiming (reference [18])                                          *)

let correlator () =
  (* the classic three-tap correlator: comparators (delay 3) on a
     registered chain, adders (delay 7) accumulating back to the host
     (delay 0); unretimed period 24, optimal 13 *)
  { Retime.n = 8;
    delay = [| 0; 3; 3; 3; 3; 7; 7; 7 |];
    edges =
      [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (1, 5, 0); (2, 6, 0);
        (3, 7, 0); (4, 7, 0); (7, 6, 0); (6, 5, 0); (5, 0, 0) ] }

let test_retime_correlator () =
  let g = correlator () in
  Alcotest.(check int) "unretimed period" 24 (Retime.clock_period g);
  let c, r = Retime.min_period g in
  Alcotest.(check int) "optimal period" 13 c;
  let g' = Retime.apply g r in
  Alcotest.(check int) "achieved period" 13 (Retime.clock_period g')

let test_retime_validate () =
  let raises g = try Retime.validate g; false with Retime.Bad_graph _ -> true in
  Alcotest.(check bool) "register-free cycle" true
    (raises { Retime.n = 2; delay = [| 1; 1 |]; edges = [ (0, 1, 0); (1, 0, 0) ] });
  Alcotest.(check bool) "negative weight" true
    (raises { Retime.n = 2; delay = [| 1; 1 |]; edges = [ (0, 1, -1) ] });
  Alcotest.(check bool) "range" true
    (raises { Retime.n = 2; delay = [| 1; 1 |]; edges = [ (0, 5, 1) ] });
  (* a registered cycle is fine *)
  Retime.validate
    { Retime.n = 2; delay = [| 1; 1 |]; edges = [ (0, 1, 0); (1, 0, 1) ] }

let test_retime_infeasible_period () =
  let g = correlator () in
  Alcotest.(check (option (array int))) "period below max delay" None
    (Retime.retime_for g ~period:6)

let test_retime_identity () =
  (* retiming by all zeros changes nothing *)
  let g = correlator () in
  let g' = Retime.apply g (Array.make 8 0) in
  Alcotest.(check int) "same registers" (Retime.total_registers g)
    (Retime.total_registers g');
  Alcotest.(check int) "same period" (Retime.clock_period g)
    (Retime.clock_period g')

let prop_retime_legal =
  (* random registered ring + chords: min_period yields a legal
     retiming whose achieved period matches *)
  let gen_graph =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 3 8 in
        let* delays = array_size (return n) (int_range 1 9) in
        let* chords =
          list_size (int_range 0 5)
            (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 2))
        in
        let ring = List.init n (fun i -> (i, (i + 1) mod n, 1)) in
        return { Retime.n; delay = delays; edges = ring @ chords })
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"min_period returns legal optimum"
       gen_graph (fun g ->
         (* drop graphs with register-free cycles from chords *)
         match Retime.validate g with
         | exception Retime.Bad_graph _ -> true
         | () ->
           let c, r = Retime.min_period g in
           let g' = Retime.apply g r in
           Retime.clock_period g' = c
           && c <= Retime.clock_period g
           && List.for_all (fun (_, _, w) -> w >= 0) g'.Retime.edges))

(* ------------------------------------------------------------------ *)
(* A vector adder from the multiplier's sample (section 1.2.2's
   sample-reuse claim)                                                *)

let test_adder_layout_from_multiplier_sample () =
  let sample, _ = Sample_lib.build () in
  (* generate a multiplier AND an adder from the very same sample *)
  let mult = Layout_gen.generate ~sample ~xsize:3 ~ysize:3 () in
  let adder = Adder_gen.generate ~sample ~bits:6 () in
  ignore mult;
  let st = Flatten.stats adder.Adder_gen.cell in
  let get name = try List.assoc name st.Flatten.by_cell with Not_found -> 0 in
  Alcotest.(check int) "six cells" 6 (get Sample_lib.basic_cell);
  Alcotest.(check int) "all type I" 6 (get Sample_lib.type1);
  Alcotest.(check int) "carry chain" 5 (get Sample_lib.car1);
  Alcotest.(check int) "carry out" 1 (get Sample_lib.car2);
  (* a flat row on the horizontal pitch *)
  match st.Flatten.bbox with
  | Some b ->
    Alcotest.(check int) "row width" (6 * Sample_lib.cell_width) (Box.width b)
  | None -> Alcotest.fail "empty adder"

let test_adder_model_exhaustive () =
  let m = Adder_gen.build_model ~bits:5 () in
  for a = 0 to 31 do
    for b = 0 to 31 do
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (a + b)
        (Adder_gen.add m a b)
    done
  done

let test_adder_pipelined () =
  let m = Adder_gen.build_model ~beta:1 ~bits:8 () in
  Alcotest.(check bool) "has latency" true (Adder_gen.latency m > 0);
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (a + b)
        (Adder_gen.add m a b))
    [ (255, 255); (0, 0); (128, 127); (200, 56) ]

let () =
  Alcotest.run "rsg_mult"
    [ ("logic",
       [ Alcotest.test_case "cell type rule" `Quick test_cell_type_rule;
         Alcotest.test_case "exhaustive small sizes" `Slow test_exhaustive_small;
         prop_random_products;
         Alcotest.test_case "range checks" `Quick test_range_checks ]);
      ("pipeline",
       [ Alcotest.test_case "correct for beta 1-4" `Slow
           test_pipelined_correctness;
         Alcotest.test_case "bit-systolic depth 1" `Quick
           test_bit_systolic_depth_one;
         Alcotest.test_case "streaming throughput" `Quick
           test_streaming_throughput;
         Alcotest.test_case "register/latency tradeoffs" `Quick
           test_pipelining_tradeoffs;
         Alcotest.test_case "adder cell count" `Quick test_adder_cell_count;
         Alcotest.test_case "register table sums" `Quick
           test_register_table_sums ]);
      ("sample",
       [ Alcotest.test_case "extraction" `Quick test_sample_extraction;
         Alcotest.test_case "cif round trip" `Quick test_sample_cif_roundtrip ]);
      ("layout",
       [ Alcotest.test_case "mask counts" `Quick test_generated_counts;
         Alcotest.test_case "basic cell grid" `Quick test_basic_cell_grid;
         Alcotest.test_case "personalisation matches logic" `Quick
           test_personalisation_matches_logic;
         Alcotest.test_case "register stacks" `Quick test_register_stack_shapes;
         Alcotest.test_case "whole multiplier cif" `Quick
           test_whole_multiplier_cif ]);
      ("design-file",
       [ Alcotest.test_case "equivalence with native (E17)" `Slow
           test_design_file_equivalence;
         Alcotest.test_case "retargeting" `Quick test_design_file_retarget;
         Alcotest.test_case "sample through a CIF file" `Quick
           test_sample_through_cif_file;
         Alcotest.test_case "headline 32x32" `Slow test_headline_32x32;
         Alcotest.test_case "timed generation" `Quick test_timed_generate ]);
      ("retime",
       [ Alcotest.test_case "correlator" `Quick test_retime_correlator;
         Alcotest.test_case "validation" `Quick test_retime_validate;
         Alcotest.test_case "infeasible period" `Quick
           test_retime_infeasible_period;
         Alcotest.test_case "identity retiming" `Quick test_retime_identity;
         prop_retime_legal ]);
      ("adder",
       [ Alcotest.test_case "layout from the multiplier sample" `Quick
           test_adder_layout_from_multiplier_sample;
         Alcotest.test_case "model exhaustive 5-bit" `Slow
           test_adder_model_exhaustive;
         Alcotest.test_case "pipelined" `Quick test_adder_pipelined ]) ]
