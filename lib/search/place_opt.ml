(* Macro arrangement on the interface grid as an annealing problem.
   The state assigns each block a slot on a G x G grid (pitch = the
   largest block dimension plus the deck's interaction horizon) and a
   D4 rotation; moves shift a block to a free slot, swap two blocks,
   or rotate one in place.  Cost is the compacted area of the
   arrangement under Compact.hier — the stitcher closes the slot
   slack down to the deck gap, so the score reflects the arrangement
   topology, not the grid pitch. *)

open Rsg_geom
open Rsg_layout
module H = Rsg_compact.Hcompact
module Rules = Rsg_compact.Rules

type state = {
  blocks : Cell.t array;
  block_digests : string array;
  rules : Rules.t;
  grid : int;  (* slots per side *)
  pitch : int;
  slot : int array;      (* block -> slot index, all distinct *)
  orient_ix : int array; (* block -> index into Orient.rotations *)
}

type move =
  | Shift of int * int * int  (* block, old slot, new slot *)
  | Swap of int * int         (* two distinct blocks *)
  | Rotate of int * int * int (* block, old ix, new ix *)

let block_bbox c =
  match Cell.bbox c with
  | Some b -> b
  | None -> Box.make ~xmin:0 ~ymin:0 ~xmax:0 ~ymax:0

let block_digest c =
  let protos = Flatten.prototypes c in
  match List.assq_opt c (Flatten.subtree_hashes protos) with
  | Some h -> h
  | None -> Digest.string (Cell.(c.cname))

let make ?(rules = Rules.default) blocks =
  let blocks = Array.of_list blocks in
  let nb = Array.length blocks in
  if nb = 0 then invalid_arg "Place_opt.make: no blocks";
  let pitch =
    Array.fold_left
      (fun acc c ->
        let b = block_bbox c in
        max acc (max (Box.width b) (Box.height b)))
      1 blocks
    + Rules.max_spacing rules
  in
  {
    blocks;
    block_digests = Array.map block_digest blocks;
    rules;
    grid = nb;
    pitch;
    (* initial arrangement: one row along x — the fixed floorplan
       heuristic the chip generators use, i.e. the greedy baseline *)
    slot = Array.init nb Fun.id;
    orient_ix = Array.make nb 0;
  }

let cell_of st =
  let chip = Cell.create "placed-chip" in
  Array.iteri
    (fun k c ->
      let orient = List.nth Orient.rotations st.orient_ix.(k) in
      let b = Box.transform orient (block_bbox c) in
      let s = st.slot.(k) in
      let origin =
        Vec.make (s mod st.grid * st.pitch) (s / st.grid * st.pitch)
      in
      (* anchor the oriented bounding box's lower-left on the slot
         origin so no rotation can reach a neighbouring slot *)
      let at = Vec.sub origin (Vec.make b.Box.xmin b.Box.ymin) in
      ignore (Cell.add_instance chip ~orient ~at c))
    st.blocks;
  chip

let digest st =
  let b = Buffer.create 128 in
  Array.iter (fun d -> Buffer.add_string b d) st.block_digests;
  Buffer.add_string b (string_of_int st.grid);
  Array.iteri
    (fun k s ->
      Buffer.add_string b (Printf.sprintf ";%d,%d" s st.orient_ix.(k)))
    st.slot;
  Digest.string (Buffer.contents b)

let evaluate st =
  try (H.hier st.rules (cell_of st)).H.hr_stats.H.hs_area_after
  with Rsg_compact.Bellman.Infeasible _ -> max_int

let moves st =
  let nb = Array.length st.blocks in
  let nslots = st.grid * st.grid in
  let taken = Array.make nslots false in
  Array.iter (fun s -> taken.(s) <- true) st.slot;
  let out = ref [] in
  for k = nb - 1 downto 0 do
    for o = 3 downto 0 do
      if o <> st.orient_ix.(k) then
        out := Rotate (k, st.orient_ix.(k), o) :: !out
    done
  done;
  for k1 = nb - 1 downto 0 do
    for k2 = nb - 1 downto k1 + 1 do
      out := Swap (k1, k2) :: !out
    done
  done;
  for k = nb - 1 downto 0 do
    for s = nslots - 1 downto 0 do
      if not taken.(s) then out := Shift (k, st.slot.(k), s) :: !out
    done
  done;
  !out

let apply st = function
  | Shift (k, _, s) -> st.slot.(k) <- s
  | Swap (k1, k2) ->
    let s = st.slot.(k1) in
    st.slot.(k1) <- st.slot.(k2);
    st.slot.(k2) <- s
  | Rotate (k, _, o) -> st.orient_ix.(k) <- o

let undo st = function
  | Shift (k, s, _) -> st.slot.(k) <- s
  | Swap (k1, k2) ->
    let s = st.slot.(k1) in
    st.slot.(k1) <- st.slot.(k2);
    st.slot.(k2) <- s
  | Rotate (k, o, _) -> st.orient_ix.(k) <- o

let copy st =
  {
    st with
    slot = Array.copy st.slot;
    orient_ix = Array.copy st.orient_ix;
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

let cell = cell_of

let summary_json ~target ~strategy ~seed (r : state Anneal.result) =
  let module Json = Rsg_obs.Json in
  let s = r.Anneal.r_stats in
  Json.Obj
    [ ("target", Json.String target);
      ("blocks", Json.Int (Array.length r.Anneal.r_best.blocks));
      ("strategy", Json.String strategy);
      ("seed", Json.Int seed);
      ("iters", Json.Int s.Anneal.st_iters);
      ("chains", Json.Int s.Anneal.st_chains);
      ("initial_area", Json.Int r.Anneal.r_initial_cost);
      ("best_area", Json.Int r.Anneal.r_cost);
      ("best", Json.String (Digest.to_hex r.Anneal.r_digest));
      ("computed", Json.Int s.Anneal.st_computed);
      ("cached", Json.Int s.Anneal.st_cached) ]
