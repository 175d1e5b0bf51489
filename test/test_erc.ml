(* Tests for the static electrical rule checker: one synthetic fixture
   per rule, the generated families' golden cleanliness, domain-count
   determinism, cached replay and the mutation self-check. *)

open Rsg_geom
open Rsg_erc.Erc

let box x0 y0 x1 y1 = Box.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1

let item layer b = { Rsg_compact.Scanline.layer; box = b }

let no_ports = { default_config with ports_at_boundary = false }

let codes (r : Rsg_lint.Diag.report) c =
  List.length
    (List.filter (fun (d : Rsg_lint.Diag.t) -> d.Rsg_lint.Diag.code = c)
       r.Rsg_lint.Diag.r_diags)

let run ?cfg items labels =
  let _, r = check_items ?cfg items labels in
  r

(* one transistor: poly crossing a diffusion, both sides left over *)
let transistor =
  [| item Layer.Poly (box 0 6 10 8); item Layer.Diffusion (box 2 0 6 14) |]

(* ------------------------------------------------------------------ *)
(* Per-rule fixtures                                                  *)

let test_floating_gate () =
  let r = run ~cfg:no_ports transistor [] in
  Alcotest.(check int) "one floating gate" 1 (codes r "E301");
  Alcotest.(check bool) "warnings do not make it unclean" true
    (Rsg_lint.Diag.clean r)

let test_boundary_port_drives_gate () =
  (* same geometry, default config: the poly reaches the design
     boundary, so it counts as an externally driven port *)
  let r = run transistor [] in
  Alcotest.(check int) "no floating gate" 0 (codes r "E301")

let test_terminal_drives_gate () =
  let r = run ~cfg:no_ports transistor [ ("in", Vec.make 1 7) ] in
  Alcotest.(check int) "no floating gate" 0 (codes r "E301")

let test_strict_escalates () =
  let r = run ~cfg:{ no_ports with strict = true } transistor [] in
  Alcotest.(check int) "still one E301" 1 (codes r "E301");
  Alcotest.(check bool) "strict makes it an error" false
    (Rsg_lint.Diag.clean r)

let test_supply_short () =
  let items = [| item Layer.Metal (box 0 0 40 6) |] in
  let r =
    run items [ ("vdd", Vec.make 1 1); ("gnd", Vec.make 30 1) ]
  in
  Alcotest.(check int) "one supply short" 1 (codes r "E300");
  Alcotest.(check bool) "short is an error" false (Rsg_lint.Diag.clean r)

let test_undriven_net () =
  let r = run ~cfg:no_ports [| item Layer.Poly (box 0 0 4 4) |] [] in
  Alcotest.(check int) "one undriven net" 1 (codes r "E302")

let test_dangling_device () =
  (* the gate runs to the diffusion's lower edge: no source fragment *)
  let items =
    [| item Layer.Poly (box 8 10 22 14); item Layer.Diffusion (box 10 10 20 20) |]
  in
  let r = run items [] in
  Alcotest.(check int) "one dangling device" 1 (codes r "E303")

let test_fanout_limit () =
  let items =
    [| item Layer.Poly (box 0 10 40 12);
       item Layer.Diffusion (box 5 6 9 16);
       item Layer.Diffusion (box 15 6 19 16);
       item Layer.Diffusion (box 25 6 29 16) |]
  in
  let cfg = { default_config with max_fanout = 2 } in
  let r = run ~cfg items [] in
  Alcotest.(check int) "one fanout violation" 1 (codes r "E304");
  Alcotest.(check int) "within limit is silent" 0
    (codes (run items []) "E304")

let test_no_rail_path () =
  (* rails exist, but an interior transistor's channel cluster has no
     source/drain path to any rail or port *)
  let items =
    [| item Layer.Metal (box 0 0 60 4);          (* vdd rail *)
       item Layer.Metal (box 0 56 60 60);        (* output strip *)
       item Layer.Poly (box 18 24 26 28);
       item Layer.Diffusion (box 20 20 24 32) |]
  in
  let labels = [ ("vdd", Vec.make 1 1); ("g", Vec.make 19 25) ] in
  let r = run items labels in
  Alcotest.(check int) "both stranded channel nets flagged" 2
    (codes r "E305");
  Alcotest.(check int) "rails found, no E306" 0 (codes r "E306")

let test_rails_absent_note () =
  let r = run ~cfg:no_ports transistor [] in
  Alcotest.(check int) "one rails-absent note" 1 (codes r "E306")

(* ------------------------------------------------------------------ *)
(* Generated families                                                 *)

let families =
  lazy
    (let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
     [ ("mult4",
        (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
          .Rsg_mult.Layout_gen.whole);
       ("pla", (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell);
       ("rom",
        (Rsg_pla.Rom.generate ~word_bits:4 [| 1; 9; 4; 13 |]).Rsg_pla.Rom.pla
          .Rsg_pla.Gen.cell);
       ("decoder", (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell) ])

let test_families_clean () =
  List.iter
    (fun (name, cell) ->
      let r = check_cell cell in
      Alcotest.(check bool) (name ^ " erc-clean") true (clean r);
      Alcotest.(check bool) (name ^ " has devices") true (r.r_devices > 0);
      Alcotest.(check bool) (name ^ " has nets") true (r.r_nets > 0))
    (Lazy.force families)

let test_domain_determinism () =
  List.iter
    (fun (name, cell) ->
      let j1 =
        Rsg_obs.Json.to_string (report_to_json (check_cell ~domains:1 cell))
      in
      let j2 =
        Rsg_obs.Json.to_string (report_to_json (check_cell ~domains:2 cell))
      in
      let j4 =
        Rsg_obs.Json.to_string (report_to_json (check_cell ~domains:4 cell))
      in
      Alcotest.(check string) (name ^ " d1=d2") j1 j2;
      Alcotest.(check string) (name ^ " d1=d4") j1 j4)
    (Lazy.force families)

let test_cached_replay () =
  List.iter
    (fun (name, cell) ->
      let r1 = check_cell cell in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun l -> Hashtbl.replace tbl l.l_hash l.l_verdict)
        r1.r_levels;
      let r2 = check_cell ~cached:(Hashtbl.find_opt tbl) cell in
      Alcotest.(check int)
        (name ^ " every level replays")
        (List.length r2.r_levels) r2.r_cached;
      Alcotest.(check string)
        (name ^ " identical diagnostics")
        (Rsg_obs.Json.to_string (Rsg_lint.Diag.report_to_json (to_diags r1)))
        (Rsg_obs.Json.to_string (Rsg_lint.Diag.report_to_json (to_diags r2)));
      Alcotest.(check int) (name ^ " same nets") r1.r_nets r2.r_nets;
      Alcotest.(check int) (name ^ " same devices") r1.r_devices r2.r_devices)
    (Lazy.force families)

let test_verdict_census_matches_extraction () =
  (* a level's stored censuses agree with direct extraction *)
  List.iter
    (fun (name, cell) ->
      let r = check_cell cell in
      let root = List.nth r.r_levels (List.length r.r_levels - 1) in
      let mn = Rsg_extract.Extract.mos_of_cell cell in
      Alcotest.(check int) (name ^ " nets") mn.Rsg_extract.Extract.mn_n_nets
        root.l_verdict.cv_nets;
      Alcotest.(check int) (name ^ " devices")
        (Rsg_extract.Extract.n_mos mn)
        root.l_verdict.cv_devices)
    (Lazy.force families)

(* ------------------------------------------------------------------ *)
(* Mutation self-check                                                *)

let test_self_check_fixture () =
  (* seeding a probe into a tiny clean fixture yields exactly one new
     floating gate *)
  let items =
    [| item Layer.Metal (box 0 0 60 4);
       item Layer.Diffusion (box 20 20 40 40) |]
  in
  match self_check items [] with
  | Ok (probe, d) ->
    Alcotest.(check string) "code" "E301" d.Rsg_lint.Diag.code;
    Alcotest.(check bool) "probe crosses the diffusion" true
      (Box.overlaps probe (box 20 20 40 40))
  | Error e -> Alcotest.fail e

let test_self_check_families () =
  List.iter
    (fun (name, cell) ->
      match self_check_cell cell with
      | Ok (_, d) ->
        Alcotest.(check string) (name ^ " code") "E301" d.Rsg_lint.Diag.code
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    (Lazy.force families)

(* ------------------------------------------------------------------ *)
(* JSON report                                                        *)

(* Cell names are arbitrary bytes, so the JSON report must escape
   them: the decoder's levels renamed to strings holding quotes,
   backslashes, control bytes and UTF-8 must still parse, and every
   level's "cell" must decode to its name. *)
let test_json_cell_names =
  let module Json = Rsg_obs.Json in
  let report =
    lazy (check_cell (List.assoc "decoder" (Lazy.force families)))
  in
  let fragment =
    QCheck.Gen.oneofl
      [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\x00"; "\x1f"; "\x7f"; "é"; "中";
        "😀"; "in"; "buf" ]
  in
  let name =
    QCheck.Gen.(map (String.concat "") (list_size (1 -- 6) fragment))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"json escapes cell names"
       (QCheck.make
          ~print:QCheck.Print.(array string)
          QCheck.Gen.(array_size (return 8) name))
       (fun names ->
         let r = Lazy.force report in
         let r =
           { r with
             r_levels =
               List.mapi
                 (fun i l -> { l with l_cell = names.(i mod 8) })
                 r.r_levels
           }
         in
         match Json.parse (Json.to_string (report_to_json r)) with
         | Error msg -> QCheck.Test.fail_reportf "unparsable report: %s" msg
         | Ok v ->
           Option.bind (Json.member "levels" v) Json.to_list_opt
           |> Option.value ~default:[]
           |> List.map (Json.mem_string "cell")
           = List.map (fun l -> Some l.l_cell) r.r_levels))

let () =
  Alcotest.run "erc"
    [ ( "rules",
        [ Alcotest.test_case "floating gate" `Quick test_floating_gate;
          Alcotest.test_case "boundary port" `Quick
            test_boundary_port_drives_gate;
          Alcotest.test_case "terminal drives" `Quick test_terminal_drives_gate;
          Alcotest.test_case "strict escalates" `Quick test_strict_escalates;
          Alcotest.test_case "supply short" `Quick test_supply_short;
          Alcotest.test_case "undriven net" `Quick test_undriven_net;
          Alcotest.test_case "dangling device" `Quick test_dangling_device;
          Alcotest.test_case "fanout limit" `Quick test_fanout_limit;
          Alcotest.test_case "no rail path" `Quick test_no_rail_path;
          Alcotest.test_case "rails absent" `Quick test_rails_absent_note ] );
      ( "families",
        [ Alcotest.test_case "erc-clean" `Quick test_families_clean;
          Alcotest.test_case "domain determinism" `Quick
            test_domain_determinism;
          Alcotest.test_case "cached replay" `Quick test_cached_replay;
          Alcotest.test_case "census matches extraction" `Quick
            test_verdict_census_matches_extraction ] );
      ( "self-check",
        [ Alcotest.test_case "fixture" `Quick test_self_check_fixture;
          Alcotest.test_case "families" `Quick test_self_check_families ] );
      ("report", [ test_json_cell_names ]) ]
