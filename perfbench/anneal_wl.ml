(* anneal: a seeded stream of Anneal.run problems, PLA folding over
   random truth tables and placement of 2-3 PLA blocks.  Chains,
   iterations and the anneal seed are fixed per problem; the chains fan
   out over the pool.  Every candidate is scored by a Hcompact.hier
   solve, so lib/compact and the chain fan-out do the work here.

   The stream cycles through a fixed set of problems drawn from the
   seed, so [best_area] — the sum of the set's best compacted areas —
   is exact whatever the run length, and each repeat of a problem must
   reproduce its first answer. *)

open Common
module A = Rsg_search.Anneal
module F = Rsg_search.Fold_opt
module P = Rsg_search.Place_opt
module H = Rsg_compact.Hcompact

(* the search budget of bench E31 (bench/main.ml): 2 chains, 30
   iterations per fold and 40 per placement *)
let chains = 2

let fold_iters = 30

let place_iters = 40

type problem =
  | Fold of { tt : Rsg_pla.Truth_table.t; iters : int; seed : int }
  | Place of { blocks : Rsg_layout.Cell.t list; iters : int; seed : int }

(* One cycle: three folds and two placements, and each size list is as
   long as its share of the cycle, so every cycle holds each size once.
   The five kinds of op then hold a fifth of the ops each, and the median
   and p90 fall inside a kind rather than on the gap between two.  At
   this budget a placement of four blocks costs about 5 ops' worth, so
   the set stops at three, and 100 ops fit in a run. *)
let fold_sizes = [| (4, 2, 4); (5, 2, 4); (4, 3, 5) |]

let place_sizes = [| 2; 3 |]

let n_problems = 60

let problems seed =
  let st = rng seed 3 in
  let off_f = Random.State.int st 6 and off_p = Random.State.int st 6 in
  let per_cycle = [| `F; `F; `F; `P; `P |] in
  let nf = ref 0 and np = ref 0 in
  Array.concat
    (List.init (n_problems / Array.length per_cycle) (fun _ ->
         Array.map
           (function
             | `F ->
               let inputs, outputs, terms =
                 fold_sizes.((off_f + !nf) mod Array.length fold_sizes)
               in
               incr nf;
               (* a table with no legal fold move would cost one solve
                  instead of a search; draw again *)
               let rec foldable () =
                 let tt = truth_table st ~inputs ~outputs ~terms ~density:0.3 in
                 if F.problem.A.propose (A.Rng.make 0) (F.make tt) = None then foldable ()
                 else tt
               in
               Fold { tt = foldable (); iters = fold_iters; seed = Random.State.bits st }
             | `P ->
               let n = place_sizes.((off_p + !np) mod Array.length place_sizes) in
               incr np;
               let block () =
                 let tt = truth_table st ~inputs:2 ~outputs:1 ~terms:2 ~density:0.5 in
                 (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell
               in
               Place
                 { blocks = List.init n (fun _ -> block ());
                   iters = place_iters;
                   seed = Random.State.bits st })
           (shuffle st per_cycle)))

(* each candidate's Hcompact solve gets a span on whichever pool domain
   scores it *)
let traced ctx (p : ('s, 'm) A.problem) =
  { p with
    A.evaluate =
      (fun s -> Trace.span ~local:false ctx "search.evaluate" (fun _ -> p.A.evaluate s))
  }

type answer = { cost : int; digest : string; area : int }

let answer (r : _ A.result) =
  { cost = r.A.r_cost; digest = Digest.to_hex r.A.r_digest; area = 0 }

let solve ?(ctx = Trace.root ~on:false 0) ~domains = function
  | Fold { tt; iters; seed } ->
    let r =
      Trace.span ctx "search" @@ fun ctx ->
      A.run ~domains ~chains ~iters ~seed (traced ctx F.problem) (F.make tt)
    in
    (r.A.r_stats, answer r, `Fold r.A.r_best)
  | Place { blocks; iters; seed } ->
    let r =
      Trace.span ctx "search" @@ fun ctx ->
      A.run ~domains ~chains ~iters ~seed (traced ctx P.problem) (P.make blocks)
    in
    (r.A.r_stats, answer r, `Place r.A.r_best)

(* the realised best layout, compacted again from scratch *)
let realised_area = function
  | `Fold best ->
    (H.hier ~domains:1 Rsg_compact.Rules.default (F.generate best).Rsg_pla.Folding.cell)
      .H.hr_stats.H.hs_area_after
  | `Place best ->
    (H.hier ~domains:1 Rsg_compact.Rules.default (P.cell best)).H.hr_stats.H.hs_area_after

let setup env ~rep:_ =
  let set = problems env.seed in
  let answers : (int, answer) Hashtbl.t = Hashtbl.create 256 in
  let references =
    lazy
      (Array.of_list
         (par_concat_map
            (fun p ->
              let _, a, best = solve ~domains:1 p in
              [ { a with area = realised_area best } ])
            (Array.to_list set)))
  in
  let op ~slot:_ ctx i =
    let t0 = Unix.gettimeofday () in
    let stats, a, _ = solve ~ctx ~domains set.(i mod n_problems) in
    let wall = Unix.gettimeofday () -. t0 in
    ( Miss,
      fun () ->
        tally "search.wall_s" ~n:wall;
        tally "search.iters" ~n:(float_of_int stats.A.st_iters);
        tally "search.accepted" ~n:(float_of_int stats.A.st_accepted);
        tally "search.computed" ~n:(float_of_int stats.A.st_computed);
        Hashtbl.replace answers i a )
  in
  (* every answer against the same problem at one domain, and each best
     area against a fresh compaction of the realised best layout *)
  let check ~corrupt =
    let refs = Lazy.force references in
    Hashtbl.fold (fun i a acc -> (i, a) :: acc) answers []
    |> List.sort compare
    |> List.concat_map (fun (i, a) ->
           let r = refs.(i mod n_problems) in
           let r = if corrupt && i = 0 then { r with digest = flip r.digest } else r in
           let fails = ref [] in
           let expect what ok = if not ok then fails := (i, what) :: !fails in
           expect "best layout differs at one domain"
             (a.digest = r.digest && a.cost = r.cost);
           expect "best area differs from the realised layout's compaction"
             (r.area = r.cost);
           !fails)
  in
  {
    concurrency = 1;
    op;
    after_window = ignore;
    check;
    best_area =
      (fun () ->
        Some
          (Array.fold_left (fun acc (r : answer) -> acc + r.cost) 0
             (Lazy.force references)));
    teardown = ignore;
  }

let workload = { name = "anneal"; setup }
