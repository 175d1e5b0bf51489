(* Tests for lib/lint: the design-file analyzer (scoping, arity, array
   shape — Chapter 4), the graph analyzer (spanning tree, ambiguity,
   cycle consistency — Chapter 3), DRC-style mutation self-checks
   (each seeded defect yields exactly its diagnostic code) and the
   randomized lint-vs-Expand agreement property. *)

open Rsg_geom
open Rsg_layout
open Rsg_core
open Rsg_lint

let codes (r : Diag.report) = Diag.codes r

let check_codes what expected r =
  Alcotest.(check (list string))
    (Printf.sprintf "%s -> %s" what (String.concat "," expected))
    expected (codes r)

(* ------------------------------------------------------------------ *)
(* Design-file front end                                               *)

(* A deliberately warning-free grid design (the same shape as the
   test_lang codegen property), linted against a one-cell sample. *)
let grid_design =
  "(macro mrow (size)\n\
  \  (locals r. nxt)\n\
  \  (mk_instance nxt basiccell)\n\
  \  (assign r.1 nxt)\n\
  \  (do (i 2 (+ i 1) (> i size))\n\
  \    (mk_instance nxt basiccell)\n\
  \    (assign r.i nxt)\n\
  \    (connect r.(- i 1) r.i 1)))\n\
   (assign g.1 (mrow 3))\n\
   (do (j 2 (+ j 1) (> j 3))\n\
  \  (assign g.j (mrow 3))\n\
  \  (connect (subcell g.(- j 1) r.1) (subcell g.j r.1) 2))\n\
   (mk_cell \"grid\" (subcell g.1 r.1))"

let grid_config =
  { Design_lint.globals = []; cells = [ "basiccell" ]; env_known = true }

let lint_grid ?(cfg = grid_config) src = Design_lint.check_string cfg src

let test_clean_design () =
  let r = lint_grid grid_design in
  check_codes "clean grid design" [] r;
  Alcotest.(check bool) "clean" true (Diag.clean r);
  Alcotest.(check bool) "checked some forms" true (r.Diag.r_checked > 0)

(* DRC-style mutation self-checks: seed exactly one defect, expect
   exactly its code and nothing else. *)
let test_mutation_unbound () =
  check_codes "seeded unbound variable" [ "L101" ]
    (lint_grid (grid_design ^ "\n(print zz77)"))

let test_mutation_arity () =
  check_codes "seeded arity mismatch" [ "L104" ]
    (lint_grid (grid_design ^ "\n(mrow 1 2)"))

let test_mutation_unknown_callee () =
  check_codes "seeded unknown macro" [ "L108" ]
    (lint_grid (grid_design ^ "\n(mnosuch 1)"))

let test_mutation_scalar_array () =
  let seeded =
    Str.replace_first (Str.regexp_string "(assign r.1 nxt)")
      "(assign r.1 nxt)\n  (assign nxt.3 1)" grid_design
  in
  check_codes "seeded scalar-indexed" [ "L105" ] (lint_grid seeded)

let test_mutation_unused_local () =
  let seeded =
    Str.replace_first (Str.regexp_string "(locals r. nxt)")
      "(locals r. nxt dead)" grid_design
  in
  check_codes "seeded unused local" [ "L102" ] (lint_grid seeded)

let test_mutation_duplicate_local () =
  let seeded =
    Str.replace_first (Str.regexp_string "(locals r. nxt)")
      "(locals r. nxt nxt)" grid_design
  in
  check_codes "seeded duplicate local" [ "L106" ] (lint_grid seeded)

let test_mutation_subcell_binding () =
  check_codes "seeded unknown subcell binding" [ "L107" ]
    (lint_grid (grid_design ^ "\n(print (subcell (mrow 2) nosuch))"))

let test_mutation_unused_macro () =
  check_codes "seeded dead macro" [ "L103" ]
    (lint_grid (grid_design ^ "\n(macro mdead (x) (print x))"))

let test_mutation_syntax_error () =
  check_codes "seeded parse error" [ "L100" ]
    (lint_grid (grid_design ^ "\n(assign"))

let test_unbound_downgrades_without_params () =
  (* the same unresolved name is a warning when the parameter
     environment is unknown — it may be supplied by a parameter file *)
  let cfg = Design_lint.default_config in
  let r = Design_lint.check_string cfg "(print somename)" in
  check_codes "unknown env" [ "L101" ] r;
  Alcotest.(check bool) "still clean (warning only)" true (Diag.clean r);
  let r = Design_lint.check_string grid_config "(print somename)" in
  Alcotest.(check bool) "error with known env" false (Diag.clean r)

let test_diag_locations () =
  let r =
    Design_lint.check_string ~file:"t.def" grid_config
      "(assign x 1)\n(print x)\n(print zzz)"
  in
  match Diag.errors r with
  | [ d ] ->
    Alcotest.(check (option string)) "file" (Some "t.def") d.Diag.file;
    Alcotest.(check (option int)) "line" (Some 3) d.Diag.line
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

(* The shipped generators' design files lint clean against their own
   parameter files and samples. *)
let test_mult_design_clean () =
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let params =
    Rsg_lang.Param.parse (Rsg_mult.Sample_lib.param_file ~xsize:4 ~ysize:4)
  in
  let cfg =
    Design_lint.config_of_params ~cells:(Db.names sample.Sample.db) params
  in
  let r = Design_lint.check_string cfg Rsg_mult.Design_file.text in
  if not (Diag.clean r) then
    Alcotest.failf "multiplier design not clean:@\n%a" Diag.pp_report r;
  check_codes "mult design" [] r

let test_pla_design_clean () =
  let sample, _ = Rsg_pla.Pla_cells.build () in
  let params =
    Rsg_lang.Param.parse
      (Rsg_pla.Pla_design_file.param_file ~ninputs:3 ~noutputs:2 ~nterms:4
         ~name:"pla")
  in
  let cfg =
    Design_lint.config_of_params ~cells:(Db.names sample.Sample.db) params
  in
  (* lits/outs are host-installed globals (delayed binding) *)
  let cfg = { cfg with Design_lint.globals = "lits" :: "outs" :: cfg.Design_lint.globals } in
  let r = Design_lint.check_string cfg Rsg_pla.Pla_design_file.text in
  if not (Diag.clean r) then
    Alcotest.failf "PLA design not clean:@\n%a" Diag.pp_report r;
  check_codes "pla design" [] r

let test_json () =
  let r = lint_grid (grid_design ^ "\n(print zz77)") in
  let json = Rsg_obs.Json.to_string (Diag.report_to_json r) in
  Alcotest.(check bool) "json mentions code" true
    (Str.string_match (Str.regexp ".*\"code\":\"L101\".*") json 0);
  Alcotest.(check bool) "json counts one error" true
    (Str.string_match (Str.regexp ".*\"errors\":1.*") json 0)

(* Every control character is escaped: JSON strings may hold none raw. *)
let test_json_control_characters () =
  let d = Diag.make ~file:"bad\tname\r.def" ~line:1 "L101" "tab\t cr\r" in
  let r = Diag.report ~source:"a\tb\rc" ~checked:1 [ d ] in
  let json = Rsg_obs.Json.to_string (Diag.report_to_json r) in
  Alcotest.(check (list int)) "no raw control byte" []
    (List.filter_map
       (fun c -> if Char.code c < 0x20 then Some (Char.code c) else None)
       (List.of_seq (String.to_seq json)))

(* ------------------------------------------------------------------ *)
(* Graph front end                                                     *)

let lint_graph ?root tbl nodes = Graph_lint.check ?root tbl nodes

(* A self-inverse same-celltype interface (I = I^-1): south at
   (10, 0).  Chains built with it have no direction-sensitive edges,
   so the baseline is entirely diagnostic-free. *)
let self_inverse = Interface.make (Vec.make 10 0) Orient.south

let chain3 () =
  let cc = Cell.create "cc" in
  let tbl = Interface_table.create () in
  Interface_table.declare tbl ~from:"cc" ~into:"cc" ~index:1 self_inverse;
  let gen = Graph.generator () in
  let a = Graph.mk_instance ~gen cc in
  let b = Graph.mk_instance ~gen cc in
  let c = Graph.mk_instance ~gen cc in
  Graph.connect a b 1;
  Graph.connect b c 1;
  (tbl, cc, a, b, c)

let test_graph_clean () =
  let tbl, _, a, b, c = chain3 () in
  check_codes "clean chain" [] (lint_graph tbl [ a; b; c ])

let test_graph_ambiguity () =
  (* same chain, but with a direction-sensitive (non-self-inverse)
     interface: exactly L203, once per (celltype, index) *)
  let cc = Cell.create "cc2" in
  let tbl = Interface_table.create () in
  Interface_table.declare tbl ~from:"cc2" ~into:"cc2" ~index:1
    (Interface.make (Vec.make 10 0) Orient.north);
  let gen = Graph.generator () in
  let a = Graph.mk_instance ~gen cc in
  let b = Graph.mk_instance ~gen cc in
  let c = Graph.mk_instance ~gen cc in
  Graph.connect a b 1;
  Graph.connect b c 1;
  check_codes "undirected-ambiguous edge" [ "L203" ]
    (lint_graph tbl [ a; b; c ])

let distinct_chain () =
  let ca = Cell.create "A" and cb = Cell.create "B" and cc = Cell.create "C" in
  let tbl = Interface_table.create () in
  Interface_table.declare tbl ~from:"A" ~into:"B" ~index:1
    (Interface.make (Vec.make 10 0) Orient.north);
  Interface_table.declare tbl ~from:"B" ~into:"C" ~index:2
    (Interface.make (Vec.make 0 12) Orient.north);
  let gen = Graph.generator () in
  let a = Graph.mk_instance ~gen ca in
  let b = Graph.mk_instance ~gen cb in
  let c = Graph.mk_instance ~gen cc in
  Graph.connect a b 1;
  Graph.connect b c 2;
  (tbl, gen, a, b, c)

let test_graph_redundant_consistent () =
  let tbl, _, a, b, c = distinct_chain () in
  (* the placement the tree implies for c, seen from a *)
  let tb = Interface.place ~a:Transform.identity
      (Option.get (Interface_table.find tbl ~from:"A" ~into:"B" ~index:1))
  in
  let tc = Interface.place ~a:tb
      (Option.get (Interface_table.find tbl ~from:"B" ~into:"C" ~index:2))
  in
  Interface_table.declare tbl ~from:"A" ~into:"C" ~index:3
    (Interface.of_placements ~a:Transform.identity ~b:tc);
  Graph.connect a c 3;
  ignore b;
  check_codes "consistent redundant edge" [ "L202" ] (lint_graph tbl [ a; b; c ])

let test_graph_overconstrained () =
  let tbl, _, a, b, c = distinct_chain () in
  Interface_table.declare tbl ~from:"A" ~into:"C" ~index:3
    (Interface.make (Vec.make 1 1) Orient.north);
  Graph.connect a c 3;
  ignore b;
  check_codes "over-constrained cycle" [ "L205" ] (lint_graph tbl [ a; b; c ])

let test_graph_missing_interface () =
  let tbl, _, a, b, c = distinct_chain () in
  Graph.connect a c 9;
  ignore b;
  check_codes "undeclared interface" [ "L204" ] (lint_graph tbl [ a; b; c ])

let test_graph_unreachable () =
  let tbl, gen, a, b, c = distinct_chain () in
  let d = Graph.mk_instance ~gen (Cell.create "D") in
  check_codes "unreachable node" [ "L201" ] (lint_graph tbl [ a; b; c; d ])

let test_graph_duplicate_edge () =
  let tbl, _, a, b, c = distinct_chain () in
  Graph.connect a b 1;
  ignore c;
  check_codes "duplicate edge" [ "L206" ] (lint_graph tbl [ a; b; c ])

let test_graph_does_not_place () =
  let tbl, _, a, b, c = distinct_chain () in
  ignore (lint_graph tbl [ a; b; c ]);
  List.iter
    (fun (n : Graph.node) ->
      Alcotest.(check bool) "placement untouched" true
        (n.Graph.placement = None))
    [ a; b; c ]

let test_graph_dead_interface () =
  let tbl, _, a, b, c = distinct_chain () in
  (* baseline: every declared interface is referenced by an edge *)
  check_codes "all interfaces referenced" [] (lint_graph tbl [ a; b; c ]);
  (* mutation self-check: declare one more, reference it nowhere ->
     exactly one L208, as a warning naming the dead declaration *)
  Interface_table.declare tbl ~from:"A" ~into:"C" ~index:7
    (Interface.make (Vec.make 3 3) Orient.north);
  let r = lint_graph tbl [ a; b; c ] in
  check_codes "seeded dead interface" [ "L208" ] r;
  match r.Diag.r_diags with
  | [ d ] ->
      Alcotest.(check bool) "names the pair and index" true
        (Str.string_match
           (Str.regexp ".*interface 7 between A and C.*")
           d.Diag.message 0);
      Alcotest.(check bool) "a warning, not an error" true
        (d.Diag.severity = Diag.Warning)
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* ------------------------------------------------------------------ *)
(* Position excerpts                                                   *)

(* Six lines, varied lengths, trailing newline (which must not count
   as a seventh line). *)
let excerpt_text = "alpha\nbravo\ncharlie\ndelta\necho\nfoxtrot\n"

let span s_line s_col s_end_line s_end_col =
  { Diag.s_line; s_col; s_end_line; s_end_col }

let check_excerpt what expected s =
  Alcotest.(check string) what expected (Diag.excerpt ~text:excerpt_text s)

let test_excerpt_zero_width () =
  check_excerpt "zero-width span renders one caret"
    "   1 | alpha\n     |   ^"
    (span 1 2 1 2)

let test_excerpt_past_eof () =
  check_excerpt "position past the end is reported, not raised"
    "   9 | <past end of input (6 lines)>"
    (span 9 0 9 4);
  Alcotest.(check string) "empty text counts zero lines"
    "   1 | <past end of input (0 lines)>"
    (Diag.excerpt ~text:"" (span 1 0 1 0))

let test_excerpt_multi_line () =
  check_excerpt "long spans cap at four lines with a tail count"
    ("   1 | alpha\n     | ^^^^^\n\
     \   2 | bravo\n     | ^^^^^\n\
     \   3 | charlie\n     | ^^^^^^^\n\
     \   4 | delta\n     | ^^^^^\n\
     \     | ... 2 more lines")
    (span 1 0 6 3)

let test_excerpt_column_clamp () =
  (* columns beyond the line collapse to a caret at its end *)
  check_excerpt "columns clamp to the line length"
    "   5 | echo\n     |     ^"
    (span 5 10 5 12)

let test_excerpt_inverted () =
  (* an end before the start collapses to the start position *)
  check_excerpt "inverted spans collapse to the start"
    "   3 | charlie\n     |   ^"
    (span 3 2 2 0)

(* ------------------------------------------------------------------ *)
(* Lint vs Expand agreement                                            *)

(* Random connectivity graphs over distinct celltypes: a random
   spanning tree plus random extra edges, with each edge's interface
   randomly declared or left undeclared.  Lint must report L204 iff
   collect-mode expansion reports a Missing defect, and L205 iff it
   reports a Mismatch. *)
let prop_lint_expand_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"lint vs Expand.run collect agreement"
       QCheck.(triple (int_range 3 8) (int_range 0 4) small_int)
       (fun (n, extras, seed) ->
         let rand = Random.State.make [| seed; n; extras |] in
         let cells = Array.init n (fun i -> Cell.create (Printf.sprintf "t%d" i)) in
         let tbl = Interface_table.create () in
         let gen = Graph.generator () in
         let nodes = Array.map (fun c -> Graph.mk_instance ~gen c) cells in
         let orients = Array.of_list Orient.all in
         let rand_iface () =
           Interface.make
             (Vec.make
                (Random.State.int rand 41 - 20)
                (Random.State.int rand 41 - 20))
             orients.(Random.State.int rand (Array.length orients))
         in
         let edge j k index =
           Graph.connect nodes.(j) nodes.(k) index;
           if Random.State.float rand 1.0 < 0.8 then
             Interface_table.declare tbl
               ~from:cells.(j).Cell.cname ~into:cells.(k).Cell.cname ~index
               (rand_iface ())
         in
         for i = 1 to n - 1 do
           edge (Random.State.int rand i) i i
         done;
         for e = 0 to extras - 1 do
           let j = Random.State.int rand n in
           let k = Random.State.int rand n in
           if j <> k then edge j k (n + e)
         done;
         let node_list = Array.to_list nodes in
         let lint = Graph_lint.check tbl node_list in
         let lint_codes = codes lint in
         let rep = Expand.run ~mode:`Collect tbl nodes.(0) in
         let has_missing =
           List.exists
             (function Expand.Missing _ -> true | _ -> false)
             rep.Expand.r_defects
         and has_mismatch =
           List.exists
             (function Expand.Mismatch _ -> true | _ -> false)
             rep.Expand.r_defects
         in
         Bool.equal (List.mem "L204" lint_codes) has_missing
         && Bool.equal (List.mem "L205" lint_codes) has_mismatch
         && Array.for_all (fun (n : Graph.node) -> n.Graph.placement = None)
              nodes))

(* ------------------------------------------------------------------ *)
(* Typed failure conversion                                            *)

let test_of_exn () =
  let code e =
    match Diag.of_exn e with
    | Some d -> d.Diag.code
    | None -> "none"
  in
  Alcotest.(check string) "duplicate cell" "L109"
    (code (Db.Duplicate_cell "x"));
  Alcotest.(check string) "instance cycle" "L110"
    (code (Cell.Instance_cycle "x"));
  Alcotest.(check string) "table conflict" "L207"
    (code (Interface_table.Conflict { from = "a"; into = "b"; index = 1 }));
  Alcotest.(check string) "parse error" "L100"
    (code (Rsg_lang.Sexp.Parse_error { line = 3; message = "boom" }));
  Alcotest.(check string) "other exceptions pass" "none" (code Exit);
  match Diag.of_exn (Rsg_lang.Sexp.Parse_error { line = 3; message = "boom" }) with
  | Some d -> Alcotest.(check (option int)) "line kept" (Some 3) d.Diag.line
  | None -> Alcotest.fail "expected a diagnostic"

let () =
  Alcotest.run "rsg_lint"
    [ ("design",
       [ Alcotest.test_case "clean grid" `Quick test_clean_design;
         Alcotest.test_case "mult design clean" `Quick test_mult_design_clean;
         Alcotest.test_case "pla design clean" `Quick test_pla_design_clean;
         Alcotest.test_case "unknown env downgrade" `Quick
           test_unbound_downgrades_without_params;
         Alcotest.test_case "locations" `Quick test_diag_locations;
         Alcotest.test_case "json" `Quick test_json;
         Alcotest.test_case "json escapes control characters" `Quick
           test_json_control_characters ]);
      ("design-mutations",
       [ Alcotest.test_case "unbound (L101)" `Quick test_mutation_unbound;
         Alcotest.test_case "unused local (L102)" `Quick
           test_mutation_unused_local;
         Alcotest.test_case "dead macro (L103)" `Quick
           test_mutation_unused_macro;
         Alcotest.test_case "arity (L104)" `Quick test_mutation_arity;
         Alcotest.test_case "scalar/array (L105)" `Quick
           test_mutation_scalar_array;
         Alcotest.test_case "duplicate local (L106)" `Quick
           test_mutation_duplicate_local;
         Alcotest.test_case "subcell binding (L107)" `Quick
           test_mutation_subcell_binding;
         Alcotest.test_case "unknown callee (L108)" `Quick
           test_mutation_unknown_callee;
         Alcotest.test_case "syntax (L100)" `Quick test_mutation_syntax_error ]);
      ("graph",
       [ Alcotest.test_case "clean chain" `Quick test_graph_clean;
         Alcotest.test_case "ambiguity (L203)" `Quick test_graph_ambiguity;
         Alcotest.test_case "redundant (L202)" `Quick
           test_graph_redundant_consistent;
         Alcotest.test_case "over-constrained (L205)" `Quick
           test_graph_overconstrained;
         Alcotest.test_case "missing interface (L204)" `Quick
           test_graph_missing_interface;
         Alcotest.test_case "unreachable (L201)" `Quick test_graph_unreachable;
         Alcotest.test_case "duplicate edge (L206)" `Quick
           test_graph_duplicate_edge;
         Alcotest.test_case "lint never places" `Quick
           test_graph_does_not_place;
         Alcotest.test_case "dead interface (L208)" `Quick
           test_graph_dead_interface ]);
      ("excerpt",
       [ Alcotest.test_case "zero width" `Quick test_excerpt_zero_width;
         Alcotest.test_case "past eof" `Quick test_excerpt_past_eof;
         Alcotest.test_case "multi-line cap" `Quick test_excerpt_multi_line;
         Alcotest.test_case "column clamp" `Quick test_excerpt_column_clamp;
         Alcotest.test_case "inverted span" `Quick test_excerpt_inverted ]);
      ("agreement", [ prop_lint_expand_agreement ]);
      ("exceptions", [ Alcotest.test_case "of_exn" `Quick test_of_exn ]) ]
