(* Tests for the design-rule checker: the deck DSL, each check kind on
   hand-built geometry, zero violations on every generated layout
   (pre- and post-compaction), and the mutation self-check. *)

open Rsg_geom
open Rsg_drc
module Scanline = Rsg_compact.Scanline

let box x y w h = Box.of_size ~origin:(Vec.make x y) ~width:w ~height:h

let item layer b = { Scanline.layer; box = b }

let rules violations = List.map (fun v -> v.Drc.v_rule) violations

let check_items ?deck items = (Drc.check ?deck (Array.of_list items)).Drc.r_violations

(* ------------------------------------------------------------------ *)
(* Deck DSL                                                           *)

let test_deck_roundtrip () =
  let d = Deck.default in
  let d' = Deck.of_string (Deck.to_string d) in
  Alcotest.(check string) "name" (Deck.name d) (Deck.name d');
  Alcotest.(check string) "rules" (Deck.to_string d) (Deck.to_string d');
  Alcotest.(check int) "rule count"
    (List.length (Deck.rules d))
    (List.length (Deck.rules d'))

let test_deck_parse () =
  let d =
    Deck.of_string
      "# a comment\n\
       deck mini\n\
       width metal 3   # trailing comment\n\
       spacing metal poly 2\n\
       enclosure contact metal|poly 1\n\
       overlap poly diffusion 2\n"
  in
  Alcotest.(check string) "name" "mini" (Deck.name d);
  Alcotest.(check (option int)) "width" (Some 3) (Deck.width d Layer.Metal);
  Alcotest.(check (option int)) "spacing symmetric" (Some 2)
    (Deck.spacing d Layer.Poly Layer.Metal);
  Alcotest.(check int) "enclosures" 1 (List.length (Deck.enclosures d));
  Alcotest.(check int) "overlaps" 1 (List.length (Deck.overlaps d))

let test_deck_errors () =
  let expect_line n text =
    match Deck.of_string text with
    | exception Deck.Parse_error (line, _) ->
      Alcotest.(check int) "error line" n line
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_line 1 "width bogus 3";
  expect_line 2 "width metal 3\nfrobnicate metal 1";
  expect_line 1 "width metal -2"

let test_deck_accessors () =
  let d = Deck.default in
  Alcotest.(check (option int)) "metal width" (Some 3) (Deck.width d Layer.Metal);
  Alcotest.(check (option int)) "metal spacing" (Some 2)
    (Deck.spacing d Layer.Metal Layer.Metal);
  Alcotest.(check (option int)) "poly-diff spacing" (Some 1)
    (Deck.spacing d Layer.Diffusion Layer.Poly);
  Alcotest.(check (option int)) "no glass width" None
    (Deck.width d Layer.Overglass)

let test_of_compact_rules () =
  let d = Deck.of_compact_rules Rsg_compact.Rules.default in
  Alcotest.(check (option int)) "metal width" (Some 3) (Deck.width d Layer.Metal);
  Alcotest.(check (option int)) "metal spacing" (Some 3)
    (Deck.spacing d Layer.Metal Layer.Metal)

(* ------------------------------------------------------------------ *)
(* Width: merged regions, both axes                                   *)

let wdeck = Deck.make ~name:"w" [ Deck.Width (Layer.Metal, 3) ]

let test_width_narrow_box () =
  match check_items ~deck:wdeck [ item Layer.Metal (box 0 0 2 10) ] with
  | [ v ] ->
    Alcotest.(check string) "rule" "width.metal" v.Drc.v_rule;
    Alcotest.(check int) "required" 3 v.Drc.v_required;
    Alcotest.(check int) "actual" 2 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_width_narrow_in_y () =
  match check_items ~deck:wdeck [ item Layer.Metal (box 0 0 10 2) ] with
  | [ v ] -> Alcotest.(check int) "actual" 2 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_width_merged_fragments_pass () =
  (* two 2-wide boxes side by side merge into a legal 4-wide region:
     fragment width must not be checked box-by-box *)
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:wdeck
          [ item Layer.Metal (box 0 0 2 10); item Layer.Metal (box 2 0 2 10) ]))

let test_width_wide_cross_passes () =
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:wdeck
          [ item Layer.Metal (box 0 4 10 3); item Layer.Metal (box 4 0 3 10) ]))

let test_width_thin_neck_caught () =
  (* two wide pads joined by a thin neck: only the neck is flagged *)
  match
    check_items ~deck:wdeck
      [ item Layer.Metal (box 0 0 4 4);
        item Layer.Metal (box 4 1 4 2);
        item Layer.Metal (box 8 0 4 4) ]
  with
  | [ v ] ->
    Alcotest.(check int) "neck height" 2 v.Drc.v_actual;
    Alcotest.(check bool) "at the neck" true
      (Box.overlaps (List.hd v.Drc.v_boxes) (box 4 1 4 2))
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

(* ------------------------------------------------------------------ *)
(* Spacing: facing edges across regions                               *)

let sdeck = Deck.make ~name:"s" [ Deck.Spacing (Layer.Metal, Layer.Metal, 3) ]

let test_spacing_close_pair () =
  match
    check_items ~deck:sdeck
      [ item Layer.Metal (box 0 0 4 10); item Layer.Metal (box 6 0 4 10) ]
  with
  | [ v ] ->
    Alcotest.(check string) "rule" "spacing.metal.metal" v.Drc.v_rule;
    Alcotest.(check int) "gap" 2 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_spacing_legal_pair () =
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:sdeck
          [ item Layer.Metal (box 0 0 4 10); item Layer.Metal (box 7 0 4 10) ]))

let test_spacing_same_region_exempt () =
  (* touching boxes are one region: no self-spacing *)
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:sdeck
          [ item Layer.Metal (box 0 0 4 10); item Layer.Metal (box 4 0 4 10) ]))

let test_spacing_corner_exempt () =
  (* diagonal neighbours at Chebyshev distance 1 never face each other *)
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:sdeck
          [ item Layer.Metal (box 0 0 4 4); item Layer.Metal (box 5 5 4 4) ]))

let test_spacing_one_violation_per_region_pair () =
  (* many fragment pairs across the same two wires still report once *)
  let wire x =
    [ item Layer.Metal (box x 0 4 5); item Layer.Metal (box x 5 4 5) ]
  in
  match check_items ~deck:sdeck (wire 0 @ wire 5) with
  | [ v ] -> Alcotest.(check int) "gap" 1 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_spacing_cross_layer () =
  let d = Deck.make ~name:"x" [ Deck.Spacing (Layer.Poly, Layer.Diffusion, 2) ] in
  (* a transistor (poly crossing diffusion) is exempt; a parallel run
     at gap 1 is not *)
  Alcotest.(check (list string)) "device exempt" []
    (rules
       (check_items ~deck:d
          [ item Layer.Poly (box 0 4 10 2); item Layer.Diffusion (box 4 0 2 10) ]));
  match
    check_items ~deck:d
      [ item Layer.Poly (box 0 0 10 2); item Layer.Diffusion (box 0 3 10 2) ]
  with
  | [ v ] ->
    Alcotest.(check string) "rule" "spacing.diffusion.poly" v.Drc.v_rule;
    Alcotest.(check int) "gap" 1 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

(* ------------------------------------------------------------------ *)
(* Enclosure: union coverage                                          *)

let edeck m =
  Deck.make ~name:"e" [ Deck.Enclosure (Layer.Contact, [ Layer.Metal ], m) ]

let test_enclosure_flush_passes () =
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:(edeck 0)
          [ item Layer.Contact (box 0 0 4 4); item Layer.Metal (box 0 0 4 4) ]))

let test_enclosure_union_coverage () =
  (* no single metal box covers the contact, but their union does *)
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:(edeck 0)
          [ item Layer.Contact (box 0 0 4 4);
            item Layer.Metal (box 0 0 2 4);
            item Layer.Metal (box 2 0 2 4) ]))

let test_enclosure_sticking_out () =
  match
    check_items ~deck:(edeck 0)
      [ item Layer.Contact (box 0 0 4 4); item Layer.Metal (box 0 0 3 4) ]
  with
  | [ v ] ->
    Alcotest.(check string) "rule" "enclosure.contact" v.Drc.v_rule;
    Alcotest.(check int) "uncovered" (-1) v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_enclosure_margin () =
  (* margin 1 requires a lambda of surround; flush coverage measures 0 *)
  (match
     check_items ~deck:(edeck 1)
       [ item Layer.Contact (box 0 0 4 4); item Layer.Metal (box 0 0 4 4) ]
   with
  | [ v ] ->
    Alcotest.(check int) "required" 1 v.Drc.v_required;
    Alcotest.(check int) "measured" 0 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs)));
  Alcotest.(check (list string)) "surrounded is clean" []
    (rules
       (check_items ~deck:(edeck 1)
          [ item Layer.Contact (box 1 1 4 4); item Layer.Metal (box 0 0 6 6) ]))

(* ------------------------------------------------------------------ *)
(* Overlap                                                            *)

let odeck = Deck.make ~name:"o" [ Deck.Overlap (Layer.Poly, Layer.Diffusion, 3) ]

let test_overlap_short_caught () =
  match
    check_items ~deck:odeck
      [ item Layer.Poly (box 0 0 2 2); item Layer.Diffusion (box 0 0 2 2) ]
  with
  | [ v ] ->
    Alcotest.(check string) "rule" "overlap.poly.diffusion" v.Drc.v_rule;
    Alcotest.(check int) "extent" 2 v.Drc.v_actual
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_overlap_long_passes () =
  (* a 3-wide gate crossing: the shared region reaches 3 in x *)
  Alcotest.(check (list string)) "clean" []
    (rules
       (check_items ~deck:odeck
          [ item Layer.Poly (box 0 0 3 8); item Layer.Diffusion (box 0 3 8 2) ]))

(* ------------------------------------------------------------------ *)
(* Generated layouts check clean, pre- and post-compaction            *)

let generated =
  lazy
    (let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
     [ ("pla", (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell);
       ("ram", (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell);
       ("mult8",
        (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
          .Rsg_mult.Layout_gen.whole) ])

let test_generated_clean () =
  List.iter
    (fun (name, cell) ->
      let r = Drc.check_cell cell in
      Alcotest.(check (list string)) (name ^ " clean") []
        (rules r.Drc.r_violations);
      Alcotest.(check bool) (name ^ " nonempty") true (r.Drc.r_boxes > 0))
    (Lazy.force generated)

let test_compacted_clean () =
  List.iter
    (fun (name, cell) ->
      let compacted, _ =
        Rsg_compact.Compactor.compact_cell Rsg_compact.Rules.default cell
      in
      Alcotest.(check (list string)) (name ^ "-compacted clean") []
        (rules (Drc.check_cell compacted).Drc.r_violations))
    (Lazy.force generated)

(* ------------------------------------------------------------------ *)
(* Mutation self-check                                                *)

let test_self_check_generated () =
  List.iter
    (fun (name, cell) ->
      match Drc.self_check_cell cell with
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
      | Ok sc ->
        let v = sc.Drc.sc_violation in
        Alcotest.(check string) (name ^ " rule")
          ("width." ^ Layer.name sc.Drc.sc_layer)
          v.Drc.v_rule;
        Alcotest.(check bool) (name ^ " located") true
          (List.exists
             (fun b -> Box.overlaps b sc.Drc.sc_mutated)
             v.Drc.v_boxes);
        Alcotest.(check bool) (name ^ " narrowed") true
          (v.Drc.v_actual < v.Drc.v_required))
    (List.filter (fun (n, _) -> n <> "mult8") (Lazy.force generated))

let test_self_check_rejects_dirty () =
  match
    Drc.self_check ~deck:wdeck [| item Layer.Metal (box 0 0 2 10) |]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dirty layout must not self-check"

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                               *)

(* The whole report — violations, counters, ordering — must be
   bit-identical whatever the pool size, on clean and dirty inputs
   alike.  This is the contract that lets CI run the suite under any
   RSG_DOMAINS. *)
let test_domains_identical_clean () =
  List.iter
    (fun (name, cell) ->
      let seq = Drc.check_cell ~domains:1 cell in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s report identical at %d domains" name d)
            true
            (Drc.check_cell ~domains:d cell = seq))
        [ 2; 3 ])
    (Lazy.force generated)

let test_domains_identical_dirty () =
  (* several rule families firing at once: narrow metal + narrow poly,
     a too-close pair, and a bare contact (enclosure) *)
  let items =
    [| item Layer.Metal (box 0 0 2 10);
       item Layer.Poly (box 20 0 1 10);
       item Layer.Metal (box 40 0 3 10);
       item Layer.Metal (box 45 0 3 10);
       item Layer.Contact (box 60 0 2 2) |]
  in
  let seq = Drc.check ~domains:1 items in
  Alcotest.(check bool) "dirty layout does violate" true
    (seq.Drc.r_violations <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "dirty report identical at %d domains" d)
        true
        (Drc.check ~domains:d items = seq))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Hierarchical checking                                              *)

module Flatten = Rsg_layout.Flatten
module Cell = Rsg_layout.Cell

let flat_rule_set (r : Drc.report) =
  List.sort_uniq String.compare (rules r.Drc.r_violations)

let hier_rule_set (r : Drc.hier_report) =
  r.Drc.h_levels
  |> List.concat_map (fun l ->
         List.map (fun (v, _) -> v.Drc.v_rule) l.Drc.l_violations)
  |> List.sort_uniq String.compare

(* The per-prototype check must reach the same verdict as flattening
   everything — on the clean generated layouts and on layouts with a
   violation buried inside a leaf celltype (where only the context
   windows can see cross-boundary interactions). *)
let test_hier_agrees_with_flat () =
  List.iter
    (fun (name, cell) ->
      let flat = Drc.check_cell cell in
      let hier = Drc.check_protos (Flatten.prototypes cell) in
      Alcotest.(check bool)
        (name ^ " verdict agrees")
        (flat.Drc.r_violations = [])
        (Drc.hier_clean hier);
      Alcotest.(check (list string))
        (name ^ " rule sets agree") (flat_rule_set flat) (hier_rule_set hier))
    (Lazy.force generated)

let mutated_families () =
  let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  [ ("pla", (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell);
    ("mult4",
     (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
       .Rsg_mult.Layout_gen.whole) ]
  |> List.map (fun (name, cell) ->
         (* smash a leaf celltype: protos_order lists children first *)
         let leaf = List.hd (Flatten.protos_order (Flatten.prototypes cell)) in
         Cell.add_box leaf Layer.Metal (box 2000 2000 1 8);
         (name, cell))

let test_hier_agrees_on_mutants () =
  List.iter
    (fun (name, cell) ->
      let flat = Drc.check_cell cell in
      let hier = Drc.check_protos (Flatten.prototypes cell) in
      Alcotest.(check bool)
        (name ^ " mutant is dirty") false (Drc.hier_clean hier);
      Alcotest.(check bool)
        (name ^ " mutant counted") true (Drc.hier_violations hier > 0);
      Alcotest.(check (list string))
        (name ^ " mutant rule sets agree")
        (flat_rule_set flat) (hier_rule_set hier))
    (mutated_families ())

let test_hier_domains_identical () =
  List.iter
    (fun (name, cell) ->
      let protos = Flatten.prototypes cell in
      let seq = Drc.check_protos ~domains:1 protos in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s hier report identical at %d domains" name d)
            true
            (Drc.check_protos ~domains:d protos = seq))
        [ 2; 3 ])
    (mutated_families () @ Lazy.force generated)

(* Whole hierarchical reports pinned by digest: context grouping,
   representative choice, per-class counts, boxes checked and every
   violation's order.  Marshal without sharing, so only the value is
   hashed, never how the checker happened to share its parts. *)
let random_pla seed ~ins ~outs ~terms =
  let st = Random.State.make [| seed |] in
  let row () =
    ( String.init ins (fun _ -> "01-".[Random.State.int st 3]),
      String.init outs (fun _ -> "01".[Random.State.int st 2]) )
  in
  let tt = Rsg_pla.Truth_table.of_strings (List.init terms (fun _ -> row ())) in
  (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell

let golden_hier =
  let mult4 () =
    (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ()).Rsg_mult.Layout_gen.whole
  and builtin name () = List.assoc name (Lazy.force generated)
  and mutant name () = List.assoc name (mutated_families ()) in
  [ ("pla", "8ec6df09ba51444b1bcede894ed374d3", builtin "pla");
    ( "decoder",
      "477c171b944891cb4431dea0fd46219e",
      fun () -> (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell );
    ("ram", "5a5156823cfce1c249ff163fbe3f6de4", builtin "ram");
    ("mult4", "ed09a9fff2c8c1212418a073782d93a9", mult4);
    ("pla mutant", "01c25f64b48a5b64196d732b0e83c5a0", mutant "pla");
    ("mult4 mutant", "69e919dc948ccde6767f16e590a09840", mutant "mult4");
    ( "random pla 6x4x10",
      "1dc633421755ab49c1409c2354c8ae3e",
      fun () -> random_pla 11 ~ins:6 ~outs:4 ~terms:10 );
    ( "random pla 10x6x18",
      "231715ffcc53deb937db373caed5d6d7",
      fun () -> random_pla 12 ~ins:10 ~outs:6 ~terms:18 );
    ( "random pla 4x3x7",
      "0962eddb931be5bebac69e2f2fb820a6",
      fun () -> random_pla 13 ~ins:4 ~outs:3 ~terms:7 );
    (* tall enough that an instance has more than 16 neighbours *)
    ( "random pla 16x8x64",
      "7c7a70ddf30ce5919acbb99ef67a419f",
      fun () -> random_pla 14 ~ins:16 ~outs:8 ~terms:64 ) ]

let test_hier_golden () =
  List.iter
    (fun (name, expected, cell) ->
      let protos = Flatten.prototypes (cell ()) in
      List.iter
        (fun d ->
          let r = Drc.check_protos ~domains:d protos in
          Alcotest.(check string)
            (Printf.sprintf "%s report digest at %d domains" name d)
            expected
            (Digest.to_hex
               (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))))
        [ 1; 2 ])
    golden_hier

(* ------------------------------------------------------------------ *)
(* Report rendering                                                   *)

let test_json_report () =
  let r =
    Drc.check ~deck:wdeck [| item Layer.Metal (box 0 0 2 10) |]
  in
  let j = Rsg_obs.Json.to_string (Drc.report_to_json r) in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and jl = String.length j in
        let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("json contains " ^ needle) true found)
    [ "\"deck\":\"w\""; "\"rule\":\"width.metal\""; "\"required\":3";
      "\"boxes\":[[0,0,2,10]]" ]

let () =
  Alcotest.run "rsg_drc"
    [ ("deck",
       [ Alcotest.test_case "roundtrip" `Quick test_deck_roundtrip;
         Alcotest.test_case "parse" `Quick test_deck_parse;
         Alcotest.test_case "errors" `Quick test_deck_errors;
         Alcotest.test_case "accessors" `Quick test_deck_accessors;
         Alcotest.test_case "of_compact_rules" `Quick test_of_compact_rules ]);
      ("width",
       [ Alcotest.test_case "narrow box" `Quick test_width_narrow_box;
         Alcotest.test_case "narrow in y" `Quick test_width_narrow_in_y;
         Alcotest.test_case "merged fragments pass" `Quick
           test_width_merged_fragments_pass;
         Alcotest.test_case "wide cross passes" `Quick
           test_width_wide_cross_passes;
         Alcotest.test_case "thin neck caught" `Quick test_width_thin_neck_caught ]);
      ("spacing",
       [ Alcotest.test_case "close pair" `Quick test_spacing_close_pair;
         Alcotest.test_case "legal pair" `Quick test_spacing_legal_pair;
         Alcotest.test_case "same region exempt" `Quick
           test_spacing_same_region_exempt;
         Alcotest.test_case "corner exempt" `Quick test_spacing_corner_exempt;
         Alcotest.test_case "one per region pair" `Quick
           test_spacing_one_violation_per_region_pair;
         Alcotest.test_case "cross layer" `Quick test_spacing_cross_layer ]);
      ("enclosure",
       [ Alcotest.test_case "flush passes" `Quick test_enclosure_flush_passes;
         Alcotest.test_case "union coverage" `Quick test_enclosure_union_coverage;
         Alcotest.test_case "sticking out" `Quick test_enclosure_sticking_out;
         Alcotest.test_case "margin" `Quick test_enclosure_margin ]);
      ("overlap",
       [ Alcotest.test_case "short caught" `Quick test_overlap_short_caught;
         Alcotest.test_case "long passes" `Quick test_overlap_long_passes ]);
      ("generated",
       [ Alcotest.test_case "clean" `Quick test_generated_clean;
         Alcotest.test_case "compacted clean" `Quick test_compacted_clean ]);
      ("self-check",
       [ Alcotest.test_case "generated" `Quick test_self_check_generated;
         Alcotest.test_case "rejects dirty" `Quick test_self_check_rejects_dirty ]);
      ("domains",
       [ Alcotest.test_case "identical on clean" `Quick
           test_domains_identical_clean;
         Alcotest.test_case "identical on dirty" `Quick
           test_domains_identical_dirty ]);
      ("hierarchical",
       [ Alcotest.test_case "agrees with flat (clean)" `Quick
           test_hier_agrees_with_flat;
         Alcotest.test_case "agrees with flat (mutants)" `Quick
           test_hier_agrees_on_mutants;
         Alcotest.test_case "domains identical" `Quick
           test_hier_domains_identical;
         Alcotest.test_case "golden report digests" `Quick test_hier_golden ]);
      ("report", [ Alcotest.test_case "json" `Quick test_json_report ]) ]
