(* Tests for whole-structure hierarchical compaction (lib/compact
   Hcompact): the identity on fully abutted structures, shrinking a
   loose floorplan DRC-clean, determinism, feasibility of the interior
   systems the stitch never builds, and golden outputs. *)

open Rsg_geom
open Rsg_layout
module H = Rsg_compact.Hcompact
module Rules = Rsg_compact.Rules
module Bellman = Rsg_compact.Bellman
module Scanline = Rsg_compact.Scanline
module Drc = Rsg_drc.Drc

let rules = Rules.default

(* A loose floorplan: two PLA blocks side by side with a huge gap and
   a y misalignment — the kind of input the stitch is for. *)
let pla_cell () =
  (Rsg_pla.Gen.generate
     (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
    .Rsg_pla.Gen.cell

let chip_of ?(gap = 2000) cell =
  let protos = Flatten.prototypes cell in
  let bb =
    match Flatten.cell_bbox protos cell with
    | Some b -> b
    | None -> Alcotest.fail "empty cell"
  in
  let chip = Cell.create "chip" in
  ignore (Cell.add_instance chip ~at:(Vec.make 0 0) cell);
  ignore (Cell.add_instance chip ~at:(Vec.make (Box.width bb + gap) 17) cell);
  chip

let fingerprint cell =
  let protos = Flatten.prototypes cell in
  let f = Flatten.proto_flat protos (Flatten.protos_root protos) in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (Array.to_list
             (Array.map
                (fun (l, b) ->
                  Printf.sprintf "%s:%d,%d,%d,%d" (Layer.name l) b.Box.xmin
                    b.Box.ymin b.Box.xmax b.Box.ymax)
                f.Flatten.flat_boxes))))

let test_identity_on_abutted () =
  (* a fully abutted builtin has no slack at any seam: hier compaction
     must be the identity on area and keep the structure DRC-clean *)
  let cell = pla_cell () in
  let r = H.hier ~domains:2 rules cell in
  Alcotest.(check int) "area unchanged" r.H.hr_stats.H.hs_area_before
    r.H.hr_stats.H.hs_area_after;
  Alcotest.(check int) "drc clean" 0
    (List.length (Drc.check_cell ~domains:1 r.H.hr_cell).Drc.r_violations)

let test_shrinks_loose_floorplan () =
  let chip = chip_of (pla_cell ()) in
  let before = fingerprint chip in
  let r = H.hier ~domains:2 rules chip in
  let s = r.H.hr_stats in
  Alcotest.(check bool) "area strictly shrinks" true
    (s.H.hs_area_after < s.H.hs_area_before);
  Alcotest.(check int) "output drc clean" 0
    (List.length (Drc.check_cell ~domains:1 r.H.hr_cell).Drc.r_violations);
  Alcotest.(check string) "input cell untouched" before (fingerprint chip);
  Alcotest.(check bool) "stitch emitted constraints" true
    (s.H.hs_stitch_constraints > 0)

let test_deterministic_across_domains () =
  let fp d = fingerprint (H.hier ~domains:d rules (chip_of (pla_cell ()))).H.hr_cell in
  let f1 = fp 1 in
  Alcotest.(check string) "domains 2 = domains 1" f1 (fp 2);
  Alcotest.(check string) "domains 4 = domains 1" f1 (fp 4)

(* ---- the interior systems hier does not solve ---------------------- *)

(* Every distinct prototype's interior x and y constraint systems,
   generated and solved leftmost.  Hier never moves interior geometry,
   so it does not build these; the oracle pins that on DRC-clean input
   they are feasible anyway, i.e. solving them could never have raised
   [Bellman.Infeasible] or changed a result. *)
let interior_systems_solve cell =
  let protos = Flatten.prototypes cell in
  let rep = Flatten.representatives protos in
  let solve items =
    ignore
      (Bellman.solve
         (Scanline.generate rules Scanline.Visibility items).Scanline.graph)
  in
  List.iteri
    (fun i c ->
      if rep.(i) = i then begin
        let items = Scanline.items_of_flat (Flatten.proto_flat protos c) in
        solve items;
        solve (Scanline.transpose items)
      end)
    (Flatten.protos_order protos)

(* The oracle holds, hier answers, and its output is DRC-clean. *)
let pinned cell =
  interior_systems_solve cell;
  let r = H.hier rules cell in
  (Drc.check_cell ~domains:1 r.H.hr_cell).Drc.r_violations = []

let builtins =
  [ ("pla", pla_cell);
    ("decoder", fun () -> (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
    ("ram",
     fun () -> (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell);
    ("mult4x4",
     fun () ->
       (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ()).Rsg_mult.Layout_gen.whole) ]

(* each builtin, and two copies of it at the deck gap's order of
   magnitude and far apart *)
let pinned_inputs =
  List.concat_map
    (fun (name, mk) ->
      [ (name, mk);
        (name ^ "-chip-gap3", fun () -> chip_of ~gap:3 (mk ()));
        (name ^ "-chip-gap2000", fun () -> chip_of ~gap:2000 (mk ())) ])
    builtins

let gen_tt =
  let open QCheck.Gen in
  let lit = frequency [ (2, return '1'); (2, return '0'); (3, return '-') ] in
  let* n = int_range 2 5 in
  let* m = int_range 1 2 in
  let* p = int_range 1 4 in
  let term =
    let* ins = string_size ~gen:lit (return n) in
    let* outs = array_repeat m bool in
    let* k = int_range 0 (m - 1) in
    outs.(k) <- true;
    return (ins, String.init m (fun j -> if outs.(j) then '1' else '0'))
  in
  map Rsg_pla.Truth_table.of_strings (list_repeat p term)

(* a random walk of [steps] proposed moves from a problem's start state *)
let walk (p : (_, _) Rsg_search.Anneal.problem) st ~seed ~steps =
  let rng = Rsg_search.Anneal.Rng.make seed in
  for _ = 1 to steps do
    Option.iter (p.Rsg_search.Anneal.apply st) (p.Rsg_search.Anneal.propose rng st)
  done;
  st

let gen_input =
  let open QCheck.Gen in
  let module Fold_opt = Rsg_search.Fold_opt in
  let module Place_opt = Rsg_search.Place_opt in
  let walk_of = pair small_nat (int_range 0 6) in
  frequency
    [ (3,
       map (fun tt -> ("pla", fun () -> (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell))
         gen_tt);
      (3,
       map
         (fun (tt, (seed, steps)) ->
           ( Printf.sprintf "fold seed %d steps %d" seed steps,
             fun () ->
               (Fold_opt.generate
                  (walk Fold_opt.problem (Fold_opt.make ~rules tt) ~seed ~steps))
                 .Rsg_pla.Folding.cell ))
         (pair gen_tt walk_of));
      (3,
       map
         (fun (tts, (seed, steps)) ->
           ( Printf.sprintf "place %d blocks seed %d steps %d" (List.length tts)
               seed steps,
             fun () ->
               Place_opt.cell
                 (walk Place_opt.problem
                    (Place_opt.make ~rules
                       (List.map (fun tt -> (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell) tts))
                    ~seed ~steps) ))
         (pair (list_size (int_range 1 3) gen_tt) walk_of));
      (1, oneofl pinned_inputs) ]

let prop_interior_feasible =
  QCheck.Test.make ~count:150
    ~name:"interior systems feasible and output drc clean"
    (QCheck.make ~print:fst gen_input)
    (fun (_, mk) -> pinned (mk ()))

(* hier's output CIF on the builtins and their chips, recorded before
   the interior condensation phase was deleted *)
let golden =
  [ ("pla", "db695bcc00d542763575c6696954b64b");
    ("pla-chip-gap3", "7f858be33063d4c2cf7776563a0d5a94");
    ("pla-chip-gap2000", "7f858be33063d4c2cf7776563a0d5a94");
    ("decoder", "e0774c93b66dbf5c589cb816a03e538c");
    ("decoder-chip-gap3", "c2cb90ef95a42625926e99ed6691ebe8");
    ("decoder-chip-gap2000", "c2cb90ef95a42625926e99ed6691ebe8");
    ("ram", "2bda28500cf38a899100bf152adc507e");
    ("ram-chip-gap3", "bb7cdc8feb04415cd20ebb61c322708a");
    ("ram-chip-gap2000", "bb7cdc8feb04415cd20ebb61c322708a");
    ("mult4x4", "281a5d5053ef7a0f2d5b0c545ab0290e");
    ("mult4x4-chip-gap3", "0aa11fd890f9f12872237d9b509c23ca");
    ("mult4x4-chip-gap2000", "0aa11fd890f9f12872237d9b509c23ca") ]

let test_golden_outputs () =
  List.iter
    (fun (name, mk) ->
      Alcotest.(check bool) (name ^ " pinned") true (pinned (mk ()));
      Alcotest.(check string) (name ^ " output cif")
        (List.assoc name golden)
        (Digest.to_hex (Digest.string (Cif.to_string (H.hier rules (mk ())).H.hr_cell))))
    pinned_inputs

let () =
  Alcotest.run "rsg_hcompact"
    [ ("hier",
       [ Alcotest.test_case "identity on abutted" `Quick
           test_identity_on_abutted;
         Alcotest.test_case "shrinks loose floorplan" `Quick
           test_shrinks_loose_floorplan;
         Alcotest.test_case "deterministic across domains" `Quick
           test_deterministic_across_domains;
         QCheck_alcotest.to_alcotest prop_interior_feasible;
         Alcotest.test_case "golden outputs" `Quick test_golden_outputs ]) ]
