(* Tests for the lib/search annealing engine: PRNG determinism, the
   zero-iteration == greedy-baseline property, fixed-seed
   bit-identity across domain counts, fold validity of every reached
   state, strict improvement on a greedy-suboptimal table, and warm
   candidate-cache replay. *)

open Rsg_pla
open Rsg_search
module H = Rsg_compact.Hcompact
module Rules = Rsg_compact.Rules

let rules = Rules.default

(* Greedy provably suboptimal: column rows are 0:{0} 1:{1} 2:{1}
   3:{0}.  Greedy accepts (0,1) first, which makes (2,3) cyclic — one
   pair.  (0,2) and (3,1) together are acyclic — two pairs, two
   columns fewer. *)
let suboptimal_tt () =
  Truth_table.of_strings [ ("1--1", "10"); ("-11-", "01") ]

let greedy_area tt =
  let t = Folding.generate tt in
  (H.hier ~domains:1 rules t.Folding.cell).H.hr_stats.H.hs_area_after

(* ------------------------------------------------------------------ *)

let test_rng () =
  let a = Anneal.Rng.make 42 and b = Anneal.Rng.make 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Anneal.Rng.int a 1000)
      (Anneal.Rng.int b 1000)
  done;
  let c = Anneal.Rng.split a in
  ignore (Anneal.Rng.split b);
  let d = Anneal.Rng.make 43 in
  let xs rng = List.init 20 (fun _ -> Anneal.Rng.int rng 1_000_000) in
  Alcotest.(check bool) "split differs from other seed" false (xs c = xs d);
  List.iter
    (fun x ->
      Alcotest.(check bool) "int in range" true (x >= 0 && x < 1_000_000))
    (xs (Anneal.Rng.make 7));
  for _ = 1 to 100 do
    let f = Anneal.Rng.float (Anneal.Rng.split a) in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

(* small random truth tables for the properties *)
let gen_tt =
  let open QCheck.Gen in
  let lit = frequency [ (2, return 'T'); (2, return 'F'); (3, return 'X') ] in
  let* n = int_range 2 6 in
  let* m = int_range 1 2 in
  let* p = int_range 1 5 in
  let term _ =
    let* ls = array_repeat n lit in
    let* outs = array_repeat m bool in
    let* k = int_range 0 (m - 1) in
    outs.(k) <- true;
    return
      ( String.init n (fun i ->
            match ls.(i) with 'T' -> '1' | 'F' -> '0' | _ -> '-'),
        String.init m (fun k -> if outs.(k) then '1' else '0') )
  in
  let* rows = flatten_l (List.init p term) in
  return (Truth_table.of_strings rows)

let tt_arb = QCheck.make ~print:(fun tt ->
    String.concat "; "
      (List.map (fun (i, o) -> i ^ " " ^ o) (Truth_table.to_strings tt)))
    gen_tt

let prop_zero_iter_is_greedy =
  QCheck.Test.make ~count:25 ~name:"zero-iteration anneal == greedy plan"
    tt_arb (fun tt ->
      let st = Fold_opt.make ~rules tt in
      let r = Anneal.run ~domains:1 ~iters:0 ~seed:1 Fold_opt.problem st in
      Fold_opt.pairs r.Anneal.r_best
      = List.sort compare (Folding.plan tt).Folding.pairs
      && r.Anneal.r_cost = r.Anneal.r_initial_cost
      && r.Anneal.r_cost = greedy_area tt)

let prop_accepted_folds_valid =
  QCheck.Test.make ~count:15 ~name:"annealed fold acyclic and verified"
    tt_arb (fun tt ->
      let st = Fold_opt.make ~rules tt in
      let r =
        Anneal.run ~domains:1 ~chains:2 ~iters:12 ~seed:5 Fold_opt.problem st
      in
      let best = r.Anneal.r_best in
      Folding.acyclic tt (Fold_opt.pairs best)
      && Folding.verify (Fold_opt.generate best))

let test_domain_identity () =
  let tt = suboptimal_tt () in
  let run d =
    let st = Fold_opt.make ~rules tt in
    Anneal.run ~domains:d ~chains:3 ~iters:25 ~seed:11 Fold_opt.problem st
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  Alcotest.(check int) "cost 1=2" r1.Anneal.r_cost r2.Anneal.r_cost;
  Alcotest.(check int) "cost 1=4" r1.Anneal.r_cost r4.Anneal.r_cost;
  Alcotest.(check string) "digest 1=2"
    (Digest.to_hex r1.Anneal.r_digest)
    (Digest.to_hex r2.Anneal.r_digest);
  Alcotest.(check string) "digest 1=4"
    (Digest.to_hex r1.Anneal.r_digest)
    (Digest.to_hex r4.Anneal.r_digest);
  let cif r =
    Rsg_layout.Cif.to_string (Fold_opt.generate r.Anneal.r_best).Folding.cell
  in
  Alcotest.(check string) "cif 1=2" (cif r1) (cif r2);
  Alcotest.(check string) "cif 1=4" (cif r1) (cif r4);
  Alcotest.(check bool) "same eval set" true
    (List.sort compare r1.Anneal.r_evals
    = List.sort compare r2.Anneal.r_evals)

let test_strict_improvement () =
  let tt = suboptimal_tt () in
  let greedy = greedy_area tt in
  let st = Fold_opt.make ~rules tt in
  let r =
    Anneal.run ~domains:1 ~chains:3 ~iters:40 ~seed:3 Fold_opt.problem st
  in
  Alcotest.(check int) "greedy finds one pair" 1
    (List.length (Folding.plan tt).Folding.pairs);
  Alcotest.(check int) "anneal finds both pairs" 2
    (List.length (Fold_opt.pairs r.Anneal.r_best));
  Alcotest.(check bool)
    (Printf.sprintf "area %d < greedy %d" r.Anneal.r_cost greedy)
    true
    (r.Anneal.r_cost < greedy);
  Alcotest.(check bool) "fold still verifies" true
    (Folding.verify (Fold_opt.generate r.Anneal.r_best))

let test_warm_replay () =
  let tt = suboptimal_tt () in
  let go ?cached () =
    let st = Fold_opt.make ~rules tt in
    Anneal.run ?cached ~domains:1 ~chains:2 ~iters:20 ~seed:7
      Fold_opt.problem st
  in
  let cold = go () in
  Alcotest.(check bool) "cold run computed evals" true
    (cold.Anneal.r_stats.Anneal.st_computed > 0);
  let tbl = Hashtbl.create 64 in
  List.iter (fun (d, c) -> Hashtbl.replace tbl d c) cold.Anneal.r_evals;
  let warm = go ~cached:(Hashtbl.find_opt tbl) () in
  Alcotest.(check int) "warm run computes nothing" 0
    warm.Anneal.r_stats.Anneal.st_computed;
  Alcotest.(check bool) "warm run replays" true
    (warm.Anneal.r_stats.Anneal.st_cached > 0);
  Alcotest.(check int) "same best cost" cold.Anneal.r_cost warm.Anneal.r_cost;
  Alcotest.(check string) "same best digest"
    (Digest.to_hex cold.Anneal.r_digest)
    (Digest.to_hex warm.Anneal.r_digest)

(* ------------------------------------------------------------------ *)

let tall_block () =
  (Rsg_pla.Gen.generate
     (Truth_table.of_strings [ ("1-", "1"); ("-1", "1"); ("11", "1"); ("00", "1") ]))
    .Rsg_pla.Gen.cell

let test_place_improves_row () =
  let blocks = List.init 4 (fun _ -> tall_block ()) in
  let st = Place_opt.make ~rules blocks in
  let baseline =
    Anneal.run ~domains:1 ~iters:0 ~seed:1 Place_opt.problem st
  in
  let r =
    Anneal.run ~domains:1 ~chains:2 ~iters:60 ~seed:2 Place_opt.problem
      (Place_opt.make ~rules blocks)
  in
  Alcotest.(check bool)
    (Printf.sprintf "anneal %d <= row %d" r.Anneal.r_cost
       baseline.Anneal.r_cost)
    true
    (r.Anneal.r_cost <= baseline.Anneal.r_cost);
  (* the arrangement is realisable: hier still compacts it *)
  let cell = Place_opt.cell r.Anneal.r_best in
  let res = H.hier ~domains:1 rules cell in
  Alcotest.(check int) "realised cell scores the annealed cost"
    r.Anneal.r_cost res.H.hr_stats.H.hs_area_after

let test_place_domain_identity () =
  let blocks = List.init 3 (fun _ -> tall_block ()) in
  let run d =
    Anneal.run ~domains:d ~chains:3 ~iters:20 ~seed:9 Place_opt.problem
      (Place_opt.make ~rules blocks)
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  Alcotest.(check int) "cost 1=2" r1.Anneal.r_cost r2.Anneal.r_cost;
  Alcotest.(check int) "cost 1=4" r1.Anneal.r_cost r4.Anneal.r_cost;
  let cif r = Rsg_layout.Cif.to_string (Place_opt.cell r.Anneal.r_best) in
  Alcotest.(check string) "cif 1=2" (cif r1) (cif r2);
  Alcotest.(check string) "cif 1=4" (cif r1) (cif r4)

(* Every candidate is scored on its own chain's domain: a count made
   on any domain while chains anneal side by side is kept. *)
let test_chains_keep_obs_counts () =
  let module Obs = Rsg_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  let lookups = Atomic.make 0 in
  let cached _ =
    Atomic.incr lookups;
    Obs.count "test.lookup";
    None
  in
  let r =
    Anneal.run ~domains:2 ~cached ~chains:2 ~iters:20 ~seed:9
      Place_opt.problem
      (Place_opt.make ~rules (List.init 3 (fun _ -> tall_block ())))
  in
  let counted = List.assoc_opt "test.lookup" (Obs.counters ()) in
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check bool) "chains computed" true
    (r.Anneal.r_stats.Anneal.st_computed > 0);
  Alcotest.(check (option int)) "every lookup counted"
    (Some (Atomic.get lookups)) counted

(* ------------------------------------------------------------------ *)
(* Obs spans are the same at every domain count                        *)

module Obs = Rsg_obs.Obs

(* Span paths with their entry counts, the pool's own par.* levels
   spliced out (children promoted, then merged by name). *)
let spliced_paths spans =
  let tbl = Hashtbl.create 64 in
  let rec walk prefix s =
    if String.starts_with ~prefix:"par." s.Obs.sp_name then
      List.iter (walk prefix) s.Obs.sp_children
    else begin
      let p = prefix ^ "/" ^ s.Obs.sp_name in
      Hashtbl.replace tbl p
        (s.Obs.sp_count + Option.value ~default:0 (Hashtbl.find_opt tbl p));
      List.iter (walk p) s.Obs.sp_children
    end
  in
  List.iter (walk "") spans;
  List.sort compare (Hashtbl.fold (fun p n acc -> (p, n) :: acc) tbl [])

(* Hierarchical DRC and ERC, flat DRC and a two-chain placement anneal
   of the cell, recorded at [domains]. *)
let observed cell domains =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let protos = Rsg_layout.Flatten.prototypes cell in
      ignore (Rsg_drc.Drc.check_protos ~domains protos);
      ignore (Rsg_erc.Erc.check_protos ~domains protos);
      ignore
        (Rsg_drc.Drc.check_flat ~domains (Rsg_layout.Flatten.protos_flat protos));
      ignore
        (Anneal.run ~domains ~chains:2 ~iters:4 ~seed:5 Place_opt.problem
           (Place_opt.make ~rules [ cell; cell ]));
      (spliced_paths (Obs.spans ()), Obs.counters ()))

let check_obs_agree name cell =
  let spans1, counters1 = observed cell 1 in
  List.iter
    (fun d ->
      let spans, counters = observed cell d in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s spans 1=%d" name d) spans1 spans;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s counters 1=%d" name d) counters1 counters)
    [ 2; 4 ]

let test_obs_builtins_agree () =
  List.iter
    (fun (name, cell) -> check_obs_agree name cell)
    [ ( "pla",
        (Gen.generate (Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
          .Gen.cell );
      ("decoder", (Gen.generate_decoder 3).Gen.cell);
      ( "ram",
        (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell );
      ( "multiplier",
        (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
          .Rsg_mult.Layout_gen.whole ) ]

let prop_obs_random_plas_agree =
  QCheck.Test.make ~count:8 ~name:"random PLAs: spans agree at domains 1, 2, 4"
    tt_arb (fun tt ->
      check_obs_agree "pla" (Gen.generate tt).Gen.cell;
      true)

let () =
  Alcotest.run "search"
    [
      ( "anneal",
        [
          Alcotest.test_case "rng determinism" `Quick test_rng;
          QCheck_alcotest.to_alcotest prop_zero_iter_is_greedy;
          QCheck_alcotest.to_alcotest prop_accepted_folds_valid;
          Alcotest.test_case "fold: fixed seed identical at domains 1/2/4"
            `Quick test_domain_identity;
          Alcotest.test_case "fold: strict improvement over greedy" `Quick
            test_strict_improvement;
          Alcotest.test_case "fold: warm candidate-cache replay" `Quick
            test_warm_replay;
        ] );
      ( "place",
        [
          Alcotest.test_case "anneal never worse than row baseline" `Quick
            test_place_improves_row;
          Alcotest.test_case "place: fixed seed identical at domains 1/2/4"
            `Quick test_place_domain_identity;
          Alcotest.test_case "place: chains keep Obs counts" `Quick
            test_chains_keep_obs_counts;
        ] );
      ( "obs",
        [
          Alcotest.test_case "builtins: spans agree at domains 1, 2, 4" `Quick
            test_obs_builtins_agree;
          QCheck_alcotest.to_alcotest prop_obs_random_plas_agree;
        ] );
    ]
