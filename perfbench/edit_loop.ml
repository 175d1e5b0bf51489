(* edit-loop: one chip of ten multiplier blocks in a fresh store, edited
   and reopened on the CLI's --cache --drc path.

   Edit: duplicate an existing box of a seeded leaf in a seeded block
   (the union of geometry, hence DRC cleanliness, is unchanged, but the
   leaf's prototype and its ancestors are dirty).  Then Store.find
   misses -> generate -> Flatten.prototypes -> Store.harvest ->
   Drc.check_protos ~cached -> Codec.proto_table -> Flatten.protos_flat
   -> Store.save.

   Reopen an earlier version: Store.find hits -> Flatten.prototypes ->
   Drc.check_protos, replaying every level from the entry.

   Each edit is followed by two reopens.  With one reopen per edit the
   two latency modes hold exactly half the ops each, so the median would
   sit on the gap between them and flip from run to run. *)

open Rsg_geom
open Rsg_layout
open Common
module Drc = Rsg_drc.Drc
module Store = Rsg_store.Store
module Codec = Rsg_store.Codec

let stem = "perfbench:chip"

let deck = Rsg_drc.Deck.to_string Rsg_drc.Deck.default

let deck_digest = Rsg_drc.Deck.digest Rsg_drc.Deck.default

(* block [b], leaf celltype [leaf], box index [k] (mod the leaf's box
   count) *)
type edit = { b : int; leaf : string; k : int }

let multiplier n =
  (Rsg_mult.Layout_gen.generate ~xsize:n ~ysize:n ()).Rsg_mult.Layout_gen.whole

(* leaf celltypes of the multiplier sample that carry geometry *)
let leaves =
  lazy
    (Flatten.protos_order (Flatten.prototypes (multiplier 2))
     |> List.filter (fun c -> Cell.instances c = [] && Cell.boxes c <> [])
     |> List.map (fun (c : Cell.t) -> c.Cell.cname)
     |> List.sort_uniq compare |> Array.of_list)

(* the chip of a version: its blocks side by side, each block generated
   afresh and its edits applied in order *)
let build sizes edits =
  let chip = Cell.create "chip" in
  let x = ref 0 in
  Array.iteri
    (fun bi n ->
      let m = multiplier n in
      let protos = Flatten.prototypes m in
      List.iter
        (fun e ->
          if e.b = bi then
            match
              List.find_opt
                (fun (c : Cell.t) -> c.Cell.cname = e.leaf)
                (Flatten.protos_order protos)
            with
            | Some c ->
              let boxes = Cell.boxes c in
              let l, box = List.nth boxes (e.k mod List.length boxes) in
              Cell.add_box c l box
            | None -> ())
        edits;
      ignore (Cell.add_instance chip ~at:(Vec.make !x 0) m);
      match Flatten.cell_bbox protos (Flatten.protos_root protos) with
      | Some bb -> x := !x + (bb.Box.xmax - bb.Box.xmin) + 2000
      | None -> ())
    sizes;
  chip

let key_of sizes edits =
  let design = Buffer.create 256 in
  Buffer.add_string design "perfbench chip\nblocks";
  Array.iter (fun n -> Buffer.add_string design (Printf.sprintf " %d" n)) sizes;
  List.iter
    (fun e -> Buffer.add_string design (Printf.sprintf "\nedit %d %s %d" e.b e.leaf e.k))
    edits;
  Store.key ~deck ~design:(Buffer.contents design) ~params:"" ()

let level_reports (r : Drc.hier_report) hex =
  match List.find_opt (fun (l : Drc.level) -> l.Drc.l_hash = hex) r.Drc.h_levels with
  | Some l ->
    [ ( deck_digest,
        { Drc.cl_violations = l.Drc.l_violations;
          cl_contexts = l.Drc.l_contexts;
          cl_distinct = l.Drc.l_distinct;
          cl_boxes = l.Drc.l_boxes } ) ]
  | None -> []

let index table =
  let h = Hashtbl.create 256 in
  Array.iter
    (fun (p : Codec.proto) -> Hashtbl.replace h (Digest.to_hex p.Codec.p_hash) p)
    table;
  h

let cached_of h hex =
  Option.bind (Hashtbl.find_opt h hex) (fun (p : Codec.proto) ->
      List.assoc_opt deck_digest p.Codec.p_reports)

(* a DRC result independent of how it was obtained (replayed or not) *)
let drc_fingerprint (r : Drc.hier_report) =
  digest_value
    ( r.Drc.h_deck,
      List.map
        (fun (l : Drc.level) -> (l.Drc.l_hash, l.Drc.l_placements, l.Drc.l_violations))
        r.Drc.h_levels )

let count_drc (r : Drc.hier_report) =
  tally "drc.levels" ~n:(float_of_int (List.length r.Drc.h_levels));
  tally "drc.replayed" ~n:(float_of_int r.Drc.h_cached)

let gate r = if not (Drc.hier_clean r) then failwith "drc violations"

(* what an op leaves for the oracle *)
type record = { version : int; root : string; drc : string; flat : string option }

let setup env ~rep =
  let st = rng env.seed 2 in
  let sizes = shuffle st (Array.init 10 (fun k -> k + 3)) in
  let leaves = Lazy.force leaves in
  let dir = Filename.concat env.dir (Printf.sprintf "edit-store-%d" rep) in
  rm_rf dir;
  let store = Store.open_ dir in
  (* version v carries the first v edits; both grow together, once an
     edit's version is saved *)
  let edits = ref [||] in
  let edits_of v = Array.to_list (Array.sub !edits 0 v) in
  let versions = ref 0 in
  (* the initial chip: cold check, saved with its prototype table *)
  let v0 = build sizes [] in
  let protos0 = Flatten.prototypes v0 in
  let r0 = Drc.check_protos ~domains protos0 in
  gate r0;
  Store.save store (key_of sizes []) ~stem ~label:"chip v0"
    ~flat:(Flatten.protos_flat protos0)
    ~protos:(Codec.proto_table protos0 ~reports:(level_reports r0))
    v0;
  let records : (int, record) Hashtbl.t = Hashtbl.create 512 in
  let record i v protos r flat () =
    Hashtbl.replace records i
      { version = v;
        root = Flatten.subtree_hex protos (Flatten.protos_root protos);
        drc = drc_fingerprint r;
        flat = Option.map digest_flat flat }
  in
  (* the cost of an edit depends on its block's size and its leaf, so
     both are drawn in rounds *)
  let next_block = rounds st (Array.length sizes) in
  let next_leaf = rounds st (Array.length leaves) in
  let edit ctx i =
    let e =
      { b = next_block (); leaf = leaves.(next_leaf ()); k = Random.State.int st 1000 }
    in
    let v = !versions + 1 in
    let edits_v = Array.append !edits [| e |] in
    let key = key_of sizes (Array.to_list edits_v) in
    (match Trace.span ctx "store.find" (fun _ -> Store.find store key) with
    | Store.Miss -> tally "store.find"
    | Store.Hit _ | Store.Corrupt _ -> failwith "edited version found in the store");
    let cell = Trace.span ctx "gen" @@ fun _ -> build sizes (Array.to_list edits_v) in
    let protos = Trace.span ctx "layout.flatten" @@ fun _ -> Flatten.prototypes cell in
    let old =
      Trace.span ctx "store.harvest" @@ fun _ ->
      match Store.harvest store ~stem with
      | Some (k, table) ->
        tally "store.bytes_read" ~n:(float_of_int (file_size (Store.path_of store k)));
        index table
      | None -> failwith "nothing to harvest"
    in
    let r =
      Trace.span ctx "drc" @@ fun _ ->
      Drc.check_protos ~domains ~cached:(cached_of old) protos
    in
    count_drc r;
    gate r;
    let table =
      Trace.span ctx "codec.table" @@ fun _ ->
      Codec.proto_table protos ~reused:(Hashtbl.mem old) ~reports:(level_reports r)
    in
    Array.iter
      (fun (p : Codec.proto) ->
        tally "store.protos";
        if p.Codec.p_reused then tally "store.reused")
      table;
    let flat = Trace.span ctx "layout.flat" @@ fun _ -> Flatten.protos_flat protos in
    Trace.span ctx "store.save" (fun _ ->
        Store.save store key ~stem ~label:(Printf.sprintf "chip v%d" v) ~flat
          ~protos:table cell);
    tally "store.bytes_written" ~n:(float_of_int (file_size (Store.path_of store key)));
    edits := edits_v;
    versions := v;
    (Miss, record i v protos r (Some flat))
  in
  let reopen ctx i =
    let v = Random.State.int st (max 1 !versions) in
    let key = key_of sizes (edits_of v) in
    let e =
      match Trace.span ctx "store.find" (fun _ -> Store.find store key) with
      | Store.Hit e ->
        tally "store.find";
        tally "store.find_hit";
        tally "store.bytes_read" ~n:(float_of_int (file_size (Store.path_of store key)));
        e
      | Store.Miss | Store.Corrupt _ -> failwith "saved version missing from the store"
    in
    let protos =
      Trace.span ctx "layout.flatten" @@ fun _ -> Flatten.prototypes e.Codec.e_cell
    in
    let h = index e.Codec.e_protos in
    let r =
      Trace.span ctx "drc" @@ fun _ ->
      Drc.check_protos ~domains ~cached:(cached_of h) protos
    in
    count_drc r;
    gate r;
    (Hit, record i v protos r None)
  in
  let op ~slot:_ ctx i = if i mod 3 = 0 then edit ctx i else reopen ctx i in
  (* every result against a cold check of the same version, built from
     scratch: root subtree digest, uncached DRC at one domain, and the
     saved flat against the naive flatten walk *)
  let check ~corrupt =
    let cold = Hashtbl.create 64 in
    Hashtbl.fold (fun _ r acc -> r.version :: acc) records []
    |> List.sort_uniq compare
    |> par_concat_map (fun v ->
           let cell = build sizes (edits_of v) in
           let protos = Flatten.prototypes cell in
           [ ( v,
               ( Flatten.subtree_hex protos (Flatten.protos_root protos),
                 drc_fingerprint (Drc.check_protos ~domains:1 protos),
                 digest_flat (Flatten.flatten cell) ) ) ])
    |> List.iter (fun (v, r) -> Hashtbl.replace cold v r);
    Hashtbl.fold (fun i r acc -> (i, r) :: acc) records []
    |> List.sort compare
    |> List.concat_map (fun (i, r) ->
           let root, drc, flat = Hashtbl.find cold r.version in
           let root = if corrupt && i = 0 then flip root else root in
           let fails = ref [] in
           let expect what ok = if not ok then fails := (i, what) :: !fails in
           expect "hierarchy differs from a cold build" (r.root = root);
           expect "drc differs from a cold check" (r.drc = drc);
           (match r.flat with
           | Some f -> expect "saved flat differs from the naive walk" (f = flat)
           | None -> ());
           !fails)
  in
  {
    concurrency = 1;
    op;
    after_window = ignore;
    check;
    best_area = (fun () -> None);
    teardown = (fun () -> rm_rf dir);
  }

let workload = { name = "edit-loop"; setup }
