(* Tests for the layout database: cells, instances, flattening,
   statistics and the CIF writer/reader. *)

open Rsg_geom
open Rsg_layout

let vec = Alcotest.testable Vec.pp Vec.equal

let box = Alcotest.testable Box.pp Box.equal

(* A tiny two-level hierarchy used by several tests:

   leaf  = 4x2 metal box at origin, label "pin" at (0, 0)
   duo   = two leaf instances: one at (0,0) north, one at (10, 5) east
   top   = duo at (0,0) plus duo at (100, 0) mirrored. *)

let build_leaf () =
  let leaf = Cell.create "leaf" in
  Cell.add_box leaf Layer.Metal (Box.of_size ~origin:Vec.zero ~width:4 ~height:2);
  Cell.add_label leaf "pin" Vec.zero;
  leaf

let build_hierarchy () =
  let leaf = build_leaf () in
  let duo = Cell.create "duo" in
  ignore (Cell.add_instance duo ~at:Vec.zero leaf);
  ignore (Cell.add_instance duo ~orient:Orient.east ~at:(Vec.make 10 5) leaf);
  let top = Cell.create "top" in
  ignore (Cell.add_instance top ~at:Vec.zero duo);
  ignore (Cell.add_instance top ~orient:Orient.mirror_y ~at:(Vec.make 100 0) duo);
  (leaf, duo, top)

let test_cell_accessors () =
  let leaf, duo, _ = build_hierarchy () in
  Alcotest.(check int) "leaf boxes" 1 (List.length (Cell.boxes leaf));
  Alcotest.(check int) "leaf labels" 1 (List.length (Cell.labels leaf));
  Alcotest.(check int) "duo instances" 2 (List.length (Cell.instances duo));
  Alcotest.(check (option box)) "leaf local bbox"
    (Some (Box.make ~xmin:0 ~ymin:0 ~xmax:4 ~ymax:2))
    (Cell.local_bbox leaf)

let test_bbox_recursive () =
  let _, duo, _ = build_hierarchy () in
  (* Second leaf instance: east orientation maps the 4x2 box corners
     (0,0) and (4,2) to (0,0) and (2,-4); translated to (10,5) gives
     [10,1 .. 12,5].  Union with the first instance [0,0..4,2]. *)
  Alcotest.(check (option box)) "duo bbox"
    (Some (Box.make ~xmin:0 ~ymin:0 ~xmax:12 ~ymax:5))
    (Cell.bbox duo)

let test_instance_cycle_detected () =
  let a = Cell.create "a" in
  let b = Cell.create "b" in
  ignore (Cell.add_instance a ~at:Vec.zero b);
  ignore (Cell.add_instance b ~at:Vec.zero a);
  Alcotest.check_raises "cycle" (Cell.Instance_cycle "a") (fun () ->
      ignore (Cell.bbox a))

let test_flatten_counts () =
  let _, _, top = build_hierarchy () in
  let f = Flatten.flatten top in
  Alcotest.(check int) "4 boxes" 4 (Array.length f.Flatten.flat_boxes);
  Alcotest.(check int) "4 labels" 4 (Array.length f.Flatten.flat_labels);
  let s = Flatten.stats top in
  Alcotest.(check int) "instances" 6 s.Flatten.n_instances;
  Alcotest.(check int) "leaf instances" 4 s.Flatten.n_leaf_instances;
  Alcotest.(check (list (pair string int)))
    "by cell"
    [ ("duo", 2); ("leaf", 4) ]
    s.Flatten.by_cell;
  Alcotest.(check int) "box area" (4 * 8) s.Flatten.box_area

let test_flatten_placement () =
  let _, _, top = build_hierarchy () in
  let f = Flatten.flatten top in
  (* The first leaf of the mirrored duo sits at (100, 0) mirrored:
     its label lands exactly at the duo origin. *)
  let pins =
    List.filter (fun (t, _) -> t = "pin") (Array.to_list f.Flatten.flat_labels)
  in
  let positions = List.map snd pins in
  Alcotest.(check bool) "mirrored duo pin present" true
    (List.exists (Vec.equal (Vec.make 100 0)) positions);
  (* Second leaf of the mirrored duo: mirror_y maps (10,5) to (-10,5),
     so its pin is at (90, 5). *)
  Alcotest.(check bool) "mirrored inner pin present" true
    (List.exists (Vec.equal (Vec.make 90 5)) positions)

let test_db () =
  let db = Db.create () in
  let leaf, duo, top = build_hierarchy () in
  Db.add db leaf;
  Db.add db duo;
  Db.add db top;
  Db.add db leaf;
  (* re-adding same cell is fine *)
  Alcotest.(check int) "3 cells" 3 (Db.length db);
  Alcotest.(check (list string)) "names" [ "duo"; "leaf"; "top" ] (Db.names db);
  Alcotest.(check bool) "mem" true (Db.mem db "duo");
  Alcotest.(check string) "fresh name" "leaf-2" (Db.fresh_name db "leaf");
  Alcotest.check_raises "duplicate name" (Db.Duplicate_cell "leaf")
    (fun () -> Db.add db (Cell.create "leaf"))

(* ------------------------------------------------------------------ *)
(* CIF round trips                                                    *)

let test_cif_roundtrip_hierarchy () =
  let _, _, top = build_hierarchy () in
  let s = Cif.to_string top in
  let r = Cif.of_string s in
  Alcotest.(check int) "3 symbols" 3 (Db.length r.Cif.db);
  let top' = Db.find_exn r.Cif.db "top" in
  Alcotest.(check bool) "geometry identical" true (Cif.roundtrip_equal top top')

let test_cif_all_orientations () =
  let leaf = build_leaf () in
  let c = Cell.create "compass" in
  List.iteri
    (fun i o ->
      ignore (Cell.add_instance c ~orient:o ~at:(Vec.make (20 * i) 7) leaf))
    Orient.all;
  let r = Cif.of_string (Cif.to_string c) in
  let c' = Db.find_exn r.Cif.db "compass" in
  Alcotest.(check bool) "all 8 orientations survive" true
    (Cif.roundtrip_equal c c');
  (* Orientations must round trip exactly, not just geometrically. *)
  let orients cell =
    List.map (fun (i : Cell.instance) -> Orient.to_index i.Cell.orientation)
      (Cell.instances cell)
  in
  Alcotest.(check (list int)) "exact orientations" (orients c) (orients c')

let test_cif_layers () =
  let c = Cell.create "layers" in
  List.iteri
    (fun i l ->
      Cell.add_box c l (Box.of_size ~origin:(Vec.make (10 * i) 0) ~width:3 ~height:3))
    Layer.all;
  let r = Cif.of_string (Cif.to_string c) in
  let c' = Db.find_exn r.Cif.db "layers" in
  let layers cell = List.map fst (Cell.boxes cell) in
  Alcotest.(check bool) "layers preserved" true (layers c = layers c')

let test_cif_negative_coords () =
  let c = Cell.create "neg" in
  Cell.add_box c Layer.Poly (Box.make ~xmin:(-7) ~ymin:(-3) ~xmax:(-1) ~ymax:4);
  Cell.add_label c "13" (Vec.make (-5) (-2));
  let r = Cif.of_string (Cif.to_string c) in
  let c' = Db.find_exn r.Cif.db "neg" in
  Alcotest.(check bool) "negative geometry" true (Cif.roundtrip_equal c c');
  match Cell.labels c' with
  | [ l ] ->
    Alcotest.(check string) "label text" "13" l.Cell.text;
    Alcotest.(check vec) "label pos" (Vec.make (-5) (-2)) l.Cell.at
  | _ -> Alcotest.fail "expected one label"

let test_cif_file_io () =
  let _, _, top = build_hierarchy () in
  let path = Filename.temp_file "rsg" ".cif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cif.write_file path top;
      let r = Cif.read_file path in
      Alcotest.(check bool) "file round trip" true
        (Cif.roundtrip_equal top (Db.find_exn r.Cif.db "top")))

let test_cif_rejects_garbage () =
  Alcotest.(check bool) "bad input raises" true
    (try
       ignore (Cif.of_string "DS 1 1 1; B 3 3;");
       false
     with Cif.Parse_error _ -> true)

(* A parse error names the offending token's line and quotes it
   escaped and cut short: raw control bytes and terminal escapes never
   reach the message. *)
let test_cif_error_excerpt () =
  let error s =
    match Cif.of_string s with
    | _ -> Alcotest.fail "accepted"
    | exception Cif.Parse_error { line; message } -> (line, message)
  in
  let line, message =
    error "DS 1 1 1;\nL NM;\nB 20 20 10 10;\nDF;\n\x01\xff\x1b[31mZZZ;\nE\n"
  in
  Alcotest.(check int) "line" 5 line;
  Alcotest.(check string) "message" "unknown command \\001\\255\\027[31mZZZ"
    message;
  let _, message = error ("DS 1 1 1;\n" ^ String.make 300 'Q' ^ ";\n") in
  Alcotest.(check bool) "long token cut" true (String.length message < 80);
  let line, _ = error "DS 1 1 1;\n9 a;\nDF;\nDS 2 1 1;\n9 a;\nDF;\n" in
  Alcotest.(check int) "second symbol of one name" 6 line;
  let line, _ = error "DS 1 1 1;\nL NM;\nB -4 4 0 0;\nDF;\n" in
  Alcotest.(check int) "negative size" 3 line

(* Property: random flat cells round trip through CIF. *)
let gen_flat_cell =
  let open QCheck in
  let gen_box =
    map
      (fun ((x, y), (w, h)) ->
        Box.of_size ~origin:(Vec.make x y) ~width:(w + 1) ~height:(h + 1))
      (pair
         (pair (int_range (-30) 30) (int_range (-30) 30))
         (pair (int_range 0 20) (int_range 0 20)))
  in
  let gen_layer = map (fun i -> List.nth Layer.all (i mod 8)) (int_range 0 7) in
  map
    (fun boxes ->
      let c = Cell.create "random" in
      List.iter (fun (l, b) -> Cell.add_box c l b) boxes;
      c)
    (list_of_size (Gen.int_range 1 20) (pair gen_layer gen_box))

let prop_cif_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random cells round trip" gen_flat_cell
       (fun c ->
         let r = Cif.of_string (Cif.to_string c) in
         Cif.roundtrip_equal c (Db.find_exn r.Cif.db "random")))

(* ------------------------------------------------------------------ *)
(* DEF (native text format)                                           *)

let exact_equal (a : Cell.t) (b : Cell.t) =
  (* structural equality, not just flattened-geometry equality *)
  let rec cmp (a : Cell.t) (b : Cell.t) =
    String.equal a.Cell.cname b.Cell.cname
    && List.length (Cell.objects a) = List.length (Cell.objects b)
    && List.for_all2
         (fun oa ob ->
           match (oa, ob) with
           | Cell.Obj_box (la, ba), Cell.Obj_box (lb, bb) ->
             Layer.equal la lb && Box.equal ba bb
           | Cell.Obj_label la, Cell.Obj_label lb ->
             String.equal la.Cell.text lb.Cell.text && Vec.equal la.Cell.at lb.Cell.at
           | Cell.Obj_instance ia, Cell.Obj_instance ib ->
             Vec.equal ia.Cell.point_of_call ib.Cell.point_of_call
             && Orient.equal ia.Cell.orientation ib.Cell.orientation
             && cmp ia.Cell.def ib.Cell.def
           | _ -> false)
         (Cell.objects a) (Cell.objects b)
  in
  cmp a b

let test_def_roundtrip () =
  let _, _, top = build_hierarchy () in
  let r = Def.of_string (Def.to_string top) in
  (match r.Def.top with
  | Some top' ->
    Alcotest.(check bool) "structurally identical" true (exact_equal top top')
  | None -> Alcotest.fail "no top cell");
  Alcotest.(check int) "three cells" 3 (Db.length r.Def.db)

let test_def_all_orientations () =
  let leaf = build_leaf () in
  let c = Cell.create "compass" in
  List.iteri
    (fun i o ->
      ignore (Cell.add_instance c ~orient:o ~at:(Vec.make (20 * i) (-7)) leaf))
    Orient.all;
  match (Def.of_string (Def.to_string c)).Def.top with
  | Some c' -> Alcotest.(check bool) "orientations exact" true (exact_equal c c')
  | None -> Alcotest.fail "no top"

let test_def_errors () =
  let raises s =
    try ignore (Def.of_string s); false with Def.Parse_error _ -> true
  in
  Alcotest.(check bool) "call before definition" true
    (raises "cell a\nc b 0 0 north\nend\n");
  Alcotest.(check bool) "box outside cell" true (raises "b metal 0 0 1 1\n");
  Alcotest.(check bool) "bad layer" true
    (raises "cell a\nb vibranium 0 0 1 1\nend\n");
  Alcotest.(check bool) "bad orientation" true
    (raises "cell a\nend\ncell b\nc a 0 0 sideways\nend\n");
  Alcotest.(check bool) "unterminated" true (raises "cell a\n");
  Alcotest.(check bool) "second cell of one name" true
    (raises "cell a\nend\ncell a\nend\n");
  match Def.of_string "cell a\nb metal 0 0 1 \x1b[31m\nend\n" with
  | _ -> Alcotest.fail "bad integer accepted"
  | exception Def.Parse_error { line; message } ->
    Alcotest.(check int) "line" 2 line;
    Alcotest.(check bool) "escaped" false (String.contains message '\x1b')

let prop_def_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random cells round trip (def)"
       gen_flat_cell (fun c ->
         match (Def.of_string (Def.to_string c)).Def.top with
         | Some c' -> exact_equal c c'
         | None -> false))

let test_def_cif_agree () =
  (* both formats preserve the same flattened geometry *)
  let _, _, top = build_hierarchy () in
  let via_def = Option.get (Def.of_string (Def.to_string top)).Def.top in
  let via_cif =
    Db.find_exn (Cif.of_string (Cif.to_string top)).Cif.db "top"
  in
  Alcotest.(check bool) "formats agree" true
    (Cif.roundtrip_equal via_def via_cif)

(* ------------------------------------------------------------------ *)
(* Reorient                                                           *)

let test_transpose_element () =
  Alcotest.(check vec) "maps (x,y) to (y,x)" (Vec.make 3 2)
    (Orient.apply Reorient.transpose (Vec.make 2 3));
  Alcotest.(check bool) "involution" true
    (Orient.equal
       (Orient.compose Reorient.transpose Reorient.transpose)
       Orient.identity)

let norm_flat (f : Flatten.flat) =
  List.sort compare
    (List.map (fun (l, b) -> (Layer.to_index l, b))
       (Array.to_list f.Flatten.flat_boxes))

let test_reorient_hierarchy () =
  let _, _, top = build_hierarchy () in
  List.iter
    (fun o ->
      let r = Reorient.cell o top in
      let expected =
        List.sort compare
          (List.map
             (fun (l, b) -> (Layer.to_index l, Box.transform o b))
             (Array.to_list (Flatten.flatten top).Flatten.flat_boxes))
      in
      Alcotest.(check bool)
        (Orient.name o ^ " commutes with flatten")
        true
        (norm_flat (Flatten.flatten r) = expected))
    Orient.all

let test_reorient_shares_definitions () =
  let _, duo, _ = build_hierarchy () in
  let top = Cell.create "two-duos" in
  ignore (Cell.add_instance top ~at:Vec.zero duo);
  ignore (Cell.add_instance top ~at:(Vec.make 50 0) duo);
  let r = Reorient.cell Orient.south top in
  match Cell.instances r with
  | [ a; b ] ->
    Alcotest.(check bool) "definition shared" true (a.Cell.def == b.Cell.def)
  | _ -> Alcotest.fail "two instances"

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)

let test_report () =
  let _, _, top = build_hierarchy () in
  let r = Report.of_cell top in
  Alcotest.(check string) "cell" "top" r.Report.r_cell;
  Alcotest.(check int) "instances" 6 r.Report.r_instances;
  Alcotest.(check int) "boxes" 4 r.Report.r_boxes;
  (* one layer in use: metal, 4 boxes of area 8 each *)
  (match r.Report.r_layers with
  | [ u ] ->
    Alcotest.(check bool) "metal" true (Layer.equal u.Report.lu_layer Layer.Metal);
    Alcotest.(check int) "boxes" 4 u.Report.lu_boxes;
    Alcotest.(check int) "area" 32 u.Report.lu_area
  | _ -> Alcotest.fail "expected one layer");
  (* hierarchy tree: top -> duo x2 -> leaf x2 *)
  (match r.Report.r_hierarchy with
  | { Report.t_name = "top"; t_children = [ duo ]; _ } ->
    Alcotest.(check string) "child" "duo" duo.Report.t_name;
    Alcotest.(check int) "duo count" 2 duo.Report.t_count;
    (match duo.Report.t_children with
    | [ leaf ] ->
      Alcotest.(check string) "grandchild" "leaf" leaf.Report.t_name;
      Alcotest.(check int) "leaf count" 2 leaf.Report.t_count
    | _ -> Alcotest.fail "expected one grandchild")
  | _ -> Alcotest.fail "bad hierarchy");
  (* the printer runs without error and mentions the cell *)
  let txt = Format.asprintf "%a" Report.pp r in
  Alcotest.(check bool) "printed" true
    (String.length txt > 0
    && String.length txt
       > String.length "cell top"
    && String.sub txt 0 8 = "cell top")

(* The report sums each celltype's own boxes by placement count; the
   flat walk must give the same box count and area on every layer. *)
let flat_usage cell =
  let f = Flatten.flatten cell in
  List.filter_map
    (fun layer ->
      let on =
        List.filter
          (fun (l, _) -> Layer.equal l layer)
          (Array.to_list f.Flatten.flat_boxes)
      in
      if on = [] then None
      else
        Some
          ( Layer.to_index layer,
            List.length on,
            List.fold_left (fun a (_, b) -> a + Box.area b) 0 on ))
    Layer.all

let report_usage cell =
  List.map
    (fun u ->
      (Layer.to_index u.Report.lu_layer, u.Report.lu_boxes, u.Report.lu_area))
    (Report.of_cell cell).Report.r_layers

let test_report_layers_builtins () =
  let pla =
    Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]
  in
  List.iter
    (fun (name, cell) ->
      Alcotest.(check (list (triple int int int)))
        (name ^ " layer usage") (flat_usage cell) (report_usage cell))
    [ ("pla", (Rsg_pla.Gen.generate pla).Rsg_pla.Gen.cell);
      ("decoder", (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
      ("ram", (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell);
      ( "multiplier",
        (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ()).Rsg_mult.Layout_gen.whole );
      ("hierarchy", (fun (_, _, top) -> top) (build_hierarchy ())) ]

(* rows of a random PLA truth table: 1..6 inputs, 1..4 outputs, 1..10
   terms *)
let gen_pla_rows =
  QCheck.Gen.(
    let* ins = int_range 1 6 and* outs = int_range 1 4 in
    let* terms = int_range 1 10 in
    list_repeat terms
      (pair
         (string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return ins))
         (string_size ~gen:(oneofl [ '0'; '1' ]) (return outs))))

let pla_of_rows rows =
  (Rsg_pla.Gen.generate (Rsg_pla.Truth_table.of_strings rows)).Rsg_pla.Gen.cell

let prop_report_layers_random_plas =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"report layer usage equals the flat's"
       (QCheck.make gen_pla_rows)
       (fun rows ->
         let cell = pla_of_rows rows in
         flat_usage cell = report_usage cell))

(* ------------------------------------------------------------------ *)
(* Golden CIF output: guards the writer against format drift.         *)

let test_cif_golden () =
  let c = Cell.create "gold" in
  Cell.add_box c Layer.Metal (Box.of_size ~origin:(Vec.make 1 2) ~width:3 ~height:4);
  Cell.add_label c "7" (Vec.make 2 3);
  let top = Cell.create "goldtop" in
  ignore (Cell.add_instance top ~orient:Orient.east ~at:(Vec.make 5 6) c);
  let expected =
    "(CIF written by rsg; 1 lambda = 2 units);\n\
     DS 1 1 1;\n\
     9 gold;\n\
     L NM;\n\
     B 6 8 5 8;\n\
     94 7 4 6;\n\
     DF;\n\
     DS 2 1 1;\n\
     9 goldtop;\n\
     C 1 R 0 -1 T 10 12;\n\
     DF;\n\
     C 2;\n\
     E\n"
  in
  Alcotest.(check string) "golden cif" expected (Cif.to_string top)

let test_def_golden () =
  let c = Cell.create "gold" in
  Cell.add_box c Layer.Poly (Box.of_size ~origin:(Vec.make 0 0) ~width:2 ~height:2);
  let top = Cell.create "goldtop" in
  ignore (Cell.add_instance top ~orient:Orient.mirror_y ~at:(Vec.make (-3) 4) c);
  let expected =
    "; rsg def 1\n\
     cell gold\n\
     b poly 0 0 2 2\n\
     end\n\
     cell goldtop\n\
     c gold -3 4 mirror-north\n\
     end\n\
     top goldtop\n"
  in
  Alcotest.(check string) "golden def" expected (Def.to_string top)

(* Regression: a real generator output (not just synthetic fixtures)
   survives the CIF writer/reader with geometry intact, through an
   actual file on disk. *)
let test_cif_generated_pla_roundtrip () =
  let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  let cell = (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell in
  let path = Filename.temp_file "rsg_pla" ".cif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cif.write_file path cell;
      let r = Cif.read_file path in
      let cell' = Db.find_exn r.Cif.db cell.Cell.cname in
      Alcotest.(check bool) "geometry identical" true
        (Cif.roundtrip_equal cell cell');
      let flat c =
        Array.to_list (Flatten.flatten c).Flatten.flat_boxes
        |> List.map (fun (l, b) ->
               (Layer.name l, b.Box.xmin, b.Box.ymin, b.Box.xmax, b.Box.ymax))
        |> List.sort compare
      in
      Alcotest.(check int) "same box count"
        (List.length (flat cell))
        (List.length (flat cell'));
      Alcotest.(check bool) "same box multiset" true (flat cell = flat cell'))

(* ------------------------------------------------------------------ *)
(* Prototype cache                                                    *)
(* ------------------------------------------------------------------ *)

(* The cached path must agree with the naive traversal exactly — same
   boxes, same order, same labels — on every generator family, because
   DRC, extraction and the writers now consume it. *)
let check_prototypes_match name cell =
  let f = Flatten.flatten cell in
  let p = Flatten.prototypes cell in
  let pf = Flatten.protos_flat p in
  Alcotest.(check bool)
    (name ^ ": boxes identical")
    true
    (pf.Flatten.flat_boxes = f.Flatten.flat_boxes);
  Alcotest.(check bool)
    (name ^ ": labels identical")
    true
    (pf.Flatten.flat_labels = f.Flatten.flat_labels);
  Alcotest.(check bool)
    (name ^ ": bbox identical")
    true
    (pf.Flatten.flat_bbox = f.Flatten.flat_bbox);
  (* stats cross-checks against the materialised geometry *)
  let s = Flatten.protos_stats p in
  Alcotest.(check int)
    (name ^ ": n_boxes")
    (Array.length f.Flatten.flat_boxes)
    s.Flatten.n_boxes;
  let area =
    Array.fold_left (fun a (_, b) -> a + Box.area b) 0 f.Flatten.flat_boxes
  in
  Alcotest.(check int) (name ^ ": box_area") area s.Flatten.box_area;
  let bb =
    Array.fold_left
      (fun acc (_, b) ->
        match acc with None -> Some b | Some a -> Some (Box.union a b))
      None f.Flatten.flat_boxes
  in
  Alcotest.(check bool) (name ^ ": bbox = fold") true (bb = s.Flatten.bbox);
  Alcotest.(check int)
    (name ^ ": n_instances")
    (List.length (Flatten.instance_placements cell))
    s.Flatten.n_instances

let test_prototypes_pla () =
  let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  check_prototypes_match "pla" (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell

let test_prototypes_decoder () =
  check_prototypes_match "decoder" (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell

let test_prototypes_ram () =
  let r = Rsg_ram.Ram_gen.generate ~words:16 ~bits:8 () in
  check_prototypes_match "ram" r.Rsg_ram.Ram_gen.cell

let test_prototypes_multiplier () =
  let m = Rsg_mult.Layout_gen.generate ~xsize:6 ~ysize:6 () in
  check_prototypes_match "multiplier" m.Rsg_mult.Layout_gen.whole;
  check_prototypes_match "multiplier array" m.Rsg_mult.Layout_gen.array_cell

let test_prototypes_synthetic () =
  let _, _, top = build_hierarchy () in
  check_prototypes_match "hierarchy" top;
  check_prototypes_match "leaf only" (build_leaf ())

(* Both traversals report runaway recursion as the same typed error,
   with the offending cell in the payload. *)
let test_depth_exceeded () =
  let a = Cell.create "a" in
  let b = Cell.create "b" in
  ignore (Cell.add_instance a ~at:Vec.zero b);
  ignore (Cell.add_instance b ~at:Vec.zero a);
  Alcotest.check_raises "flatten"
    (Flatten.Depth_exceeded { cell = "b"; max_depth = 4 }) (fun () ->
      ignore (Flatten.flatten ~max_depth:4 a));
  Alcotest.check_raises "prototypes"
    (Flatten.Depth_exceeded { cell = "b"; max_depth = 4 }) (fun () ->
      ignore (Flatten.prototypes ~max_depth:4 a))

(* A 50 000-deep instance chain: the explicit work stack must not
   overflow the OCaml call stack, and the single leaf box must land at
   the sum of all the instance offsets. *)
let test_flatten_deep_chain () =
  let depth = 50_000 in
  let leaf = Cell.create "chain-0" in
  Cell.add_box leaf Layer.Metal (Box.of_size ~origin:Vec.zero ~width:2 ~height:2);
  let top = ref leaf in
  for i = 1 to depth do
    let c = Cell.create (Printf.sprintf "chain-%d" i) in
    ignore (Cell.add_instance c ~at:(Vec.make 1 0) !top);
    top := c
  done;
  let f = Flatten.flatten ~max_depth:(depth + 1) !top in
  Alcotest.(check int) "one box" 1 (Array.length f.Flatten.flat_boxes);
  let _, b = f.Flatten.flat_boxes.(0) in
  Alcotest.(check box) "translated by the chain"
    (Box.make ~xmin:depth ~ymin:0 ~xmax:(depth + 2) ~ymax:2)
    b

(* Same shape through the prototype cache (shorter: every link is a
   distinct celltype, so the per-cell census makes this quadratic in
   chain length — regular designs have a handful of celltypes). *)
let test_prototypes_deep_chain () =
  let depth = 2_000 in
  let leaf = Cell.create "pchain-0" in
  Cell.add_box leaf Layer.Metal (Box.of_size ~origin:Vec.zero ~width:2 ~height:2);
  let top = ref leaf in
  for i = 1 to depth do
    let c = Cell.create (Printf.sprintf "pchain-%d" i) in
    ignore (Cell.add_instance c ~at:(Vec.make 1 0) !top);
    top := c
  done;
  let p = Flatten.prototypes ~max_depth:(depth + 1) !top in
  Alcotest.(check int) "distinct cells" (depth + 1) (Flatten.distinct_cells p);
  let s = Flatten.protos_stats p in
  Alcotest.(check int) "one box" 1 s.Flatten.n_boxes;
  Alcotest.(check int) "instances" depth s.Flatten.n_instances;
  let pf = Flatten.protos_flat p in
  Alcotest.(check bool) "matches naive" true
    (pf.Flatten.flat_boxes
    = (Flatten.flatten ~max_depth:(depth + 1) !top).Flatten.flat_boxes)

(* Byte-for-byte CIF regression on a real generator output.  The
   writer is a plain Buffer pipeline; any change to its framing,
   ordering or number formatting must be a conscious one. *)
let test_cif_golden_pla () =
  let expected =
    String.concat "\n"
      [ "(CIF written by rsg; 1 lambda = 2 units);";
        "DS 1 1 1;";
        "9 and-sq;";
        "L NP;";
        "B 8 40 20 20;";
        "L NM;";
        "B 40 8 20 20;";
        "DF;";
        "DS 2 1 1;";
        "9 and-cross;";
        "L NB;";
        "B 16 16 8 8;";
        "L NC;";
        "B 8 8 8 8;";
        "DF;";
        "DS 3 1 1;";
        "9 inbuf;";
        "L ND;";
        "B 72 24 40 20;";
        "L NP;";
        "B 8 40 20 20;";
        "B 8 40 60 20;";
        "L NM;";
        "B 80 8 40 36;";
        "DF;";
        "DS 4 1 1;";
        "9 connect-ao;";
        "L NM;";
        "B 40 8 20 20;";
        "L ND;";
        "B 16 24 20 20;";
        "L XC;";
        "B 8 8 20 20;";
        "DF;";
        "DS 5 1 1;";
        "9 or-sq;";
        "L NM;";
        "B 8 40 20 20;";
        "L NP;";
        "B 40 8 20 20;";
        "DF;";
        "DS 6 1 1;";
        "9 or-cross;";
        "L NI;";
        "B 16 16 8 8;";
        "L NC;";
        "B 8 8 8 8;";
        "DF;";
        "DS 7 1 1;";
        "9 outbuf;";
        "L ND;";
        "B 24 24 20 20;";
        "L NM;";
        "B 8 40 20 20;";
        "B 40 8 20 36;";
        "DF;";
        "DS 8 1 1;";
        "9 pla;";
        "C 1;";
        "C 1 T 40 0;";
        "C 1 T 0 40;";
        "C 2 T 12 12;";
        "C 1 T 80 0;";
        "C 1 T 40 40;";
        "C 3 T 0 80;";
        "C 1 T 120 0;";
        "C 1 T 80 40;";
        "C 2 T 52 52;";
        "C 1 T 160 0;";
        "C 2 T 132 12;";
        "C 1 T 120 40;";
        "C 3 T 80 80;";
        "C 1 T 200 0;";
        "C 1 T 160 40;";
        "C 4 T 240 0;";
        "C 1 T 200 40;";
        "C 3 T 160 80;";
        "C 2 T 172 52;";
        "C 5 T 280 0;";
        "C 4 T 240 40;";
        "C 5 T 320 0;";
        "C 6 T 292 12;";
        "C 5 T 280 40;";
        "C 5 T 320 40;";
        "C 7 T 280 80;";
        "C 7 T 320 80;";
        "C 6 T 332 52;";
        "DF;";
        "C 8;";
        "E";
        "" ]
  in
  let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  let cell = (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell in
  Alcotest.(check string) "pla cif bytes" expected (Cif.to_string cell)

(* ------------------------------------------------------------------ *)
(* Composed chips: same-named celltypes of different content           *)

(* Blocks generated separately, side by side: every block's celltypes
   carry the generator's names, so the chip holds physically distinct
   celltypes under one name. *)
let chip_of blocks =
  let chip = Cell.create "chip" in
  let x = ref 0 in
  List.iter
    (fun (b : Cell.t) ->
      ignore (Cell.add_instance chip ~at:(Vec.make !x 0) b);
      match Cell.bbox b with
      | Some bb -> x := !x + Box.width bb + 20
      | None -> ())
    blocks;
  chip

let mult_chip sizes =
  chip_of
    (List.map
       (fun n ->
         (Rsg_mult.Layout_gen.generate ~xsize:n ~ysize:n ())
           .Rsg_mult.Layout_gen.whole)
       sizes)

let n_boxes c = Array.length (Flatten.flatten c).Flatten.flat_boxes

let via_cif c =
  let r = Cif.of_string (Cif.to_string c) in
  match r.Cif.top with
  | Some top -> (List.hd (Cell.instances top)).Cell.def
  | None -> Alcotest.fail "no top-level call"

let via_def c = Option.get (Def.of_string (Def.to_string c)).Def.top

(* [c]'s flat under [f] equals the flat of the rewritten [c'] *)
let maps_flat f c c' =
  List.sort compare
    (List.map (fun (l, b) -> (Layer.to_index l, f b))
       (Array.to_list (Flatten.flatten c).Flatten.flat_boxes))
  = norm_flat (Flatten.flatten c')

(* Every rewrite of a composed chip keeps the chip's whole flat. *)
let chip_survives chip =
  Cif.roundtrip_equal chip (via_cif chip)
  && Cif.roundtrip_equal chip (via_def chip)
  && maps_flat (Box.transform Orient.south) chip
       (Reorient.cell Orient.south chip)
  && maps_flat (Scale.box ~num:2 ~den:1) chip (Scale.cell ~num:2 chip)

let test_chip_roundtrip () =
  let chip = mult_chip [ 3; 4 ] in
  Alcotest.(check int) "chip boxes" 966 (n_boxes chip);
  Alcotest.(check int) "through cif" 966 (n_boxes (via_cif chip));
  Alcotest.(check int) "through def" 966 (n_boxes (via_def chip));
  Alcotest.(check int) "reoriented" 966
    (n_boxes (Reorient.cell Orient.east chip));
  Alcotest.(check int) "scaled" 966 (n_boxes (Scale.cell ~num:2 chip));
  Alcotest.(check bool) "every rewrite keeps the flat" true
    (chip_survives chip)

(* The ten-block chip of sizes 3..12: 201 distinct celltypes under 21
   names.  The codec's cell table told celltypes apart by identity
   before it moved onto [Flatten.postorder], so its bytes are pinned. *)
let test_ten_block_chip () =
  let chip = mult_chip (List.init 10 (fun k -> k + 3)) in
  let protos = Flatten.prototypes chip in
  let order = Flatten.protos_order protos in
  Alcotest.(check int) "distinct celltypes" 201 (List.length order);
  Alcotest.(check int) "names" 21
    (List.length
       (List.sort_uniq String.compare
          (List.map (fun (c : Cell.t) -> c.Cell.cname) order)));
  Alcotest.(check int) "chip boxes" 21860 (n_boxes chip);
  Alcotest.(check int) "through cif" 21860 (n_boxes (via_cif chip));
  Alcotest.(check int) "through def" 21860 (n_boxes (via_def chip));
  let bytes =
    Rsg_store.Codec.encode
      ~protos:(Rsg_store.Codec.proto_table protos)
      ~label:"chip" chip
  in
  Alcotest.(check string) "codec bytes" "6eaa5c6f088925582aea697f963fd39c"
    (Digest.to_hex (Digest.string bytes))

let prop_pla_pair_chip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"chips of two random PLAs round trip"
       (QCheck.make (QCheck.Gen.pair gen_pla_rows gen_pla_rows))
       (fun (a, b) -> chip_survives (chip_of [ pla_of_rows a; pla_of_rows b ])))

(* ------------------------------------------------------------------ *)
(* The rerouted entry points agree with the reference walks            *)

let random_pla seed =
  pla_of_rows
    (QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen_pla_rows)

let reference_designs () =
  let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  [ ("pla", (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell);
    ("decoder", (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
    ("ram", (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell);
    ( "multiplier",
      (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ()).Rsg_mult.Layout_gen.whole )
  ]
  @ List.init 10 (fun k -> (Printf.sprintf "random pla %d" k, random_pla k))

let test_reference_walks () =
  let module Scanline = Rsg_compact.Scanline in
  let module Extract = Rsg_extract.Extract in
  let rules = Rsg_compact.Rules.default in
  List.iter
    (fun (name, cell) ->
      let f = Flatten.flatten cell in
      let items = Scanline.items_of_flat f in
      let labels = Array.to_list f.Flatten.flat_labels in
      let check what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
      check "scanline items" (Scanline.items_of_cell cell = items);
      check "extract" (Extract.of_cell cell = Extract.of_items items labels);
      check "mos extract"
        (Extract.mos_of_cell cell = Extract.mos_of_items items labels);
      (* a contact smaller than one cut fails alike on both paths *)
      let expanded f =
        match f () with v -> Ok v | exception Invalid_argument m -> Error m
      in
      check "contact expansion"
        (expanded (fun () ->
             (Flatten.flatten
                (Rsg_compact.Expand_contact.expand_cell rules cell))
               .Flatten.flat_boxes)
        = expanded (fun () ->
              Array.of_list
                (List.concat_map
                   (fun (l, b) ->
                     if Layer.equal l Layer.Contact then
                       Rsg_compact.Expand_contact.expand_box rules b
                     else [ (l, b) ])
                   (Array.to_list f.Flatten.flat_boxes))));
      let placements = Flatten.instance_placements cell in
      List.iter
        (fun (n, _) ->
          check ("positions of " ^ n)
            (Flatten.positions cell n
            = List.sort Vec.compare
                (List.filter_map
                   (fun (m, (t : Transform.t)) ->
                     if String.equal m n then Some t.Transform.offset else None)
                   placements)))
        (Flatten.stats cell).Flatten.by_cell)
    (reference_designs ())

(* Group names stay within ten characters ("prototypes"): Alcotest pads
   every group to the longest name and cuts case names short to fit an
   80-column report, so a longer group name would rename long cases in
   the report. *)
let () =
  Alcotest.run "rsg_layout"
    [ ("cell",
       [ Alcotest.test_case "accessors" `Quick test_cell_accessors;
         Alcotest.test_case "recursive bbox" `Quick test_bbox_recursive;
         Alcotest.test_case "cycle detection" `Quick test_instance_cycle_detected ]);
      ("flatten",
       [ Alcotest.test_case "counts" `Quick test_flatten_counts;
         Alcotest.test_case "placement" `Quick test_flatten_placement ]);
      ("db", [ Alcotest.test_case "operations" `Quick test_db ]);
      ("cif",
       [ Alcotest.test_case "hierarchy round trip" `Quick test_cif_roundtrip_hierarchy;
         Alcotest.test_case "all orientations" `Quick test_cif_all_orientations;
         Alcotest.test_case "all layers" `Quick test_cif_layers;
         Alcotest.test_case "negative coordinates" `Quick test_cif_negative_coords;
         Alcotest.test_case "file io" `Quick test_cif_file_io;
         Alcotest.test_case "rejects garbage" `Quick test_cif_rejects_garbage;
         Alcotest.test_case "error names line and escapes token" `Quick
           test_cif_error_excerpt;
         Alcotest.test_case "generated pla round trip" `Quick
           test_cif_generated_pla_roundtrip;
         prop_cif_roundtrip ]);
      ("def",
       [ Alcotest.test_case "hierarchy round trip" `Quick test_def_roundtrip;
         Alcotest.test_case "all orientations" `Quick test_def_all_orientations;
         Alcotest.test_case "errors" `Quick test_def_errors;
         Alcotest.test_case "agrees with cif" `Quick test_def_cif_agree;
         prop_def_roundtrip ]);
      ("reorient",
       [ Alcotest.test_case "transpose element" `Quick test_transpose_element;
         Alcotest.test_case "hierarchy" `Quick test_reorient_hierarchy;
         Alcotest.test_case "shares definitions" `Quick
           test_reorient_shares_definitions ]);
      ("report",
       [ Alcotest.test_case "summary" `Quick test_report;
         Alcotest.test_case "layer usage equals the flat's" `Quick
           test_report_layers_builtins;
         prop_report_layers_random_plas ]);
      ("prototypes",
       [ Alcotest.test_case "pla" `Quick test_prototypes_pla;
         Alcotest.test_case "decoder" `Quick test_prototypes_decoder;
         Alcotest.test_case "ram" `Quick test_prototypes_ram;
         Alcotest.test_case "multiplier" `Quick test_prototypes_multiplier;
         Alcotest.test_case "synthetic" `Quick test_prototypes_synthetic;
         Alcotest.test_case "depth exceeded" `Quick test_depth_exceeded;
         Alcotest.test_case "deep chain" `Quick test_flatten_deep_chain;
         Alcotest.test_case "deep chain prototypes" `Quick
           test_prototypes_deep_chain ]);
      ("golden",
       [ Alcotest.test_case "cif output" `Quick test_cif_golden;
         Alcotest.test_case "def output" `Quick test_def_golden;
         Alcotest.test_case "pla cif bytes" `Quick test_cif_golden_pla ]);
      ("chips",
       [ Alcotest.test_case "3x3 and 4x4 multipliers" `Quick test_chip_roundtrip;
         Alcotest.test_case "ten-block chip" `Quick test_ten_block_chip;
         prop_pla_pair_chip ]);
      ("reference",
       [ Alcotest.test_case "rerouted entry points" `Quick test_reference_walks ]);
      ("fuzz",
       [ (* hostile input must fail cleanly, never crash *)
         QCheck_alcotest.to_alcotest
           (QCheck.Test.make ~count:300 ~name:"cif reader never crashes"
              QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200)
                        QCheck.Gen.printable)
              (fun s ->
                match Cif.of_string s with
                | _ -> true
                | exception Cif.Parse_error _ -> true));
         QCheck_alcotest.to_alcotest
           (QCheck.Test.make ~count:300 ~name:"def reader never crashes"
              QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200)
                        QCheck.Gen.printable)
              (fun s ->
                match Def.of_string s with
                | _ -> true
                | exception Def.Parse_error _ -> true)) ]) ]
