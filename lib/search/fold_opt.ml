(* PLA column folding as an annealing problem.  The state is an
   accepted pair list over Folding's precedence machinery; every move
   is pre-validated (disjoint rows, acyclic precedence) so accepted
   folds are realisable by construction.  Cost is the compacted area
   of the folded plane under Compact.hier. *)

open Rsg_pla
module Sample = Rsg_core.Sample
module H = Rsg_compact.Hcompact
module Rules = Rsg_compact.Rules

type state = {
  tt : Truth_table.t;
  tt_digest : string;
  rules : Rules.t;
  mutable pairs : (int * int) list;
  paired : bool array;
  sample : Sample.t;
      (* private scratch library: generate_fold registers every
         candidate cell in its db, so chains must not share one *)
}

type move =
  | Accept of int * int
  | Reject of int * int
  | Swap of (int * int) * (int * int)

let canon pairs = List.sort compare pairs

let make ?(rules = Rules.default) tt =
  let n = tt.Truth_table.n_inputs in
  let greedy = (Folding.plan tt).Folding.pairs in
  let paired = Array.make n false in
  List.iter
    (fun (i, j) ->
      paired.(i) <- true;
      paired.(j) <- true)
    greedy;
  {
    tt;
    tt_digest =
      Digest.string
        (String.concat "\n"
           (List.map
              (fun (i, o) -> i ^ " " ^ o)
              (Truth_table.to_strings tt)));
    rules;
    pairs = greedy;
    paired;
    sample = fst (Pla_cells.build ());
  }

let pairs st = canon st.pairs

let fold_of st = Folding.fold_of_pairs st.tt (canon st.pairs)

(* all valid ordered pairs over currently unpaired columns (after
   [exempt] columns are treated as free), acyclic against [base] *)
let legal_pairs st ~exempt ~base =
  let n = st.tt.Truth_table.n_inputs in
  let free k = (not st.paired.(k)) || List.mem k exempt in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if
        i <> j && free i && free j
        && Folding.disjoint st.tt i j
        && Folding.acyclic st.tt ((i, j) :: base)
      then out := (i, j) :: !out
    done
  done;
  !out

let moves st =
  let accepts =
    List.map
      (fun p -> Accept (fst p, snd p))
      (legal_pairs st ~exempt:[] ~base:st.pairs)
  in
  let rejects = List.map (fun (i, j) -> Reject (i, j)) st.pairs in
  let swaps =
    List.concat_map
      (fun ((a, b) as old) ->
        let rest = List.filter (fun p -> p <> old) st.pairs in
        legal_pairs st ~exempt:[ a; b ] ~base:rest
        |> List.filter (fun p -> p <> old)
        |> List.map (fun p -> Swap (old, p)))
      st.pairs
  in
  accepts @ rejects @ swaps

let remove_pair st ((i, j) as p) =
  st.pairs <- List.filter (fun q -> q <> p) st.pairs;
  st.paired.(i) <- false;
  st.paired.(j) <- false

let add_pair st ((i, j) as p) =
  st.pairs <- p :: st.pairs;
  st.paired.(i) <- true;
  st.paired.(j) <- true

let apply st = function
  | Accept (i, j) -> add_pair st (i, j)
  | Reject (i, j) -> remove_pair st (i, j)
  | Swap (old, fresh) ->
    remove_pair st old;
    add_pair st fresh

let undo st = function
  | Accept (i, j) -> remove_pair st (i, j)
  | Reject (i, j) -> add_pair st (i, j)
  | Swap (old, fresh) ->
    remove_pair st fresh;
    add_pair st old

let digest st =
  Digest.string
    (st.tt_digest
    ^ String.concat ";"
        (List.map (fun (i, j) -> Printf.sprintf "%d,%d" i j) (canon st.pairs))
    )

let evaluate st =
  let t = Folding.generate_fold ~sample:st.sample st.tt (fold_of st) in
  try (H.hier st.rules t.Folding.cell).H.hr_stats.H.hs_area_after
  with Rsg_compact.Bellman.Infeasible _ -> max_int

let copy st =
  {
    st with
    pairs = st.pairs;
    paired = Array.copy st.paired;
    sample = fst (Pla_cells.build ());
  }

let problem : (state, move) Anneal.problem =
  {
    copy;
    digest;
    evaluate;
    propose =
      (fun rng st ->
        match moves st with
        | [] -> None
        | ms -> Some (List.nth ms (Anneal.Rng.int rng (List.length ms))));
    apply;
    undo;
  }

(* realised with a fresh sample and the default name so the output
   depends only on the fold — byte-identical across domain counts and
   across cold/warm cache runs *)
let generate ?name st = Folding.generate_fold ?name st.tt (fold_of st)
