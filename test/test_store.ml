(* Tests for lib/store: codec round-trips (every generator family plus
   QCheck-random hierarchies), typed corruption errors, cache-key
   sensitivity, store lookup/gc semantics, and the parallel batch
   runner's determinism and corrupt-entry fallback. *)

open Rsg_geom
open Rsg_layout
open Rsg_store

(* ---- temp store directories ---------------------------------------- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rsg-store-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* ---- one layout per generator family -------------------------------- *)

let pla_tt () =
  Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01"); ("11-", "11") ]

let families =
  [
    ( "multiplier",
      fun () ->
        (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
          .Rsg_mult.Layout_gen.whole );
    ("pla", fun () -> (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell);
    ( "rom",
      fun () ->
        (Rsg_pla.Rom.generate ~word_bits:4 [| 1; 9; 4; 13 |]).Rsg_pla.Rom.pla
          .Rsg_pla.Gen.cell );
    ("decoder", fun () -> (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
    ( "ram",
      fun () ->
        (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell );
  ]

let flat_equal (a : Flatten.flat) (b : Flatten.flat) =
  a.Flatten.flat_boxes = b.Flatten.flat_boxes
  && a.Flatten.flat_labels = b.Flatten.flat_labels
  && a.Flatten.flat_bbox = b.Flatten.flat_bbox

(* what a decoded entry holds, comparable across encodings *)
let entry_view (e : Codec.entry) =
  ( e.Codec.e_label,
    Cif.to_string e.Codec.e_cell,
    Array.map
      (fun (p : Codec.proto) ->
        ( p.Codec.p_hash, p.Codec.p_reused, Cif.to_string p.Codec.p_cell,
          List.length p.Codec.p_reports, p.Codec.p_ercs, p.Codec.p_places ))
      e.Codec.e_protos )

let flat_section data =
  match
    List.find_opt
      (fun (s : Codec.section) -> s.Codec.s_name = "flat")
      (Codec.sections data)
  with
  | Some s -> s
  | None -> Alcotest.fail "no flat section"

(* ---- codec round-trips ---------------------------------------------- *)

(* An entry written with a flat section decodes to exactly what the
   same entry without one decodes to: the reader skips the section,
   and only Codec.sections still counts its boxes. *)
let test_roundtrip_families () =
  List.iter
    (fun (name, build) ->
      let cell = build () in
      let flat = Flatten.flatten cell in
      let protos = Codec.proto_table (Flatten.prototypes cell) in
      let data = Codec.encode ~flat ~protos ~label:name cell in
      let entry = Codec.decode data in
      Alcotest.(check string) (name ^ " label") name entry.Codec.e_label;
      Alcotest.(check string)
        (name ^ " cif identical")
        (Cif.to_string cell)
        (Cif.to_string entry.Codec.e_cell);
      Alcotest.(check bool)
        (name ^ " decodes as without flat")
        true
        (entry_view entry
        = entry_view (Codec.decode (Codec.encode ~protos ~label:name cell)));
      Alcotest.(check int)
        (name ^ " sections count flat boxes")
        (Array.length flat.Flatten.flat_boxes)
        (flat_section data).Codec.s_entries;
      (* decoded hierarchy re-flattens to the same geometry *)
      Alcotest.(check bool)
        (name ^ " reflatten identical")
        true
        (flat_equal flat (Flatten.flatten entry.Codec.e_cell));
      Alcotest.(check string)
        (name ^ " label peek")
        name (Codec.decode_label data))
    families

(* [data] with its payload's final byte (the flat flag of an entry
   written without a flat) replaced by [tail], re-framed with a valid
   length and checksum so only the flat section's framing is wrong *)
let with_flat_tail data tail =
  let payload = String.sub data 16 (String.length data - 17) ^ tail in
  let u32 n =
    String.init 4 (fun i ->
        Char.chr (Int32.to_int (Int32.shift_right_logical n (8 * i)) land 0xff))
  in
  String.sub data 0 8
  ^ u32 (Int32.of_int (String.length payload))
  ^ u32 (Codec.crc32 payload)
  ^ payload

let test_roundtrip_no_flat () =
  let cell = (Rsg_pla.Gen.generate_decoder 2).Rsg_pla.Gen.cell in
  let data = Codec.encode ~label:"bare" cell in
  let entry = Codec.decode data in
  let sec = flat_section data in
  Alcotest.(check (pair int int))
    "no flat stored: one flag byte, no boxes" (1, 0)
    (sec.Codec.s_bytes, sec.Codec.s_entries);
  Alcotest.(check string)
    "cif identical"
    (Cif.to_string cell)
    (Cif.to_string entry.Codec.e_cell);
  (* the skipped section's framing is still checked *)
  List.iter
    (fun (what, tail, msg) ->
      match Codec.decode (with_flat_tail data tail) with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Codec.Error (Codec.Malformed m) ->
        Alcotest.(check string) what msg m
      | exception Codec.Error e ->
        Alcotest.failf "%s: wanted Malformed, got %a" what Codec.pp_error e)
    [ ("flat flag 2", "\x02", "flat flag 2");
      ("overrunning flat length", "\x01\x64\x00", "flat section length") ]

(* A random hierarchy: a pool of cells where cell [i] may only
   instantiate cells [j < i] — acyclic by construction — with random
   boxes, labels and D4-oriented instance calls. *)
let gen_random_cell st =
  let open QCheck.Gen in
  let n_layers = List.length Layer.all in
  let coord st = int_range (-1000) 1000 st in
  let rand_box st =
    let x = coord st and y = coord st in
    let w = int_range 0 300 st and h = int_range 0 300 st in
    Box.make ~xmin:x ~ymin:y ~xmax:(x + w) ~ymax:(y + h)
  in
  let n_cells = int_range 1 8 st in
  let pool =
    Array.init n_cells (fun i -> Cell.create (Printf.sprintf "rc%d" i))
  in
  Array.iteri
    (fun i c ->
      let n_objs = int_range 1 12 st in
      for _ = 1 to n_objs do
        match int_range 0 2 st with
        | 0 ->
          Cell.add_box c
            (Layer.of_index_exn (int_range 0 (n_layers - 1) st))
            (rand_box st)
        | 1 ->
          Cell.add_label c
            (Printf.sprintf "l%d" (int_range 0 99 st))
            (Vec.make (coord st) (coord st))
        | _ ->
          if i = 0 then Cell.add_box c Layer.Metal (rand_box st)
          else begin
            let j = int_range 0 (i - 1) st in
            let orient = Orient.of_index (int_range 0 7 st) in
            ignore
              (Cell.add_instance c ~orient
                 ~at:(Vec.make (coord st) (coord st))
                 pool.(j))
          end
      done)
    pool;
  pool.(n_cells - 1)

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"random hierarchies round-trip"
       (QCheck.make gen_random_cell)
       (fun cell ->
         let flat = Flatten.flatten cell in
         let data = Codec.encode ~flat ~label:"rand" cell in
         let entry = Codec.decode data in
         Cif.to_string cell = Cif.to_string entry.Codec.e_cell
         && entry_view entry
            = entry_view (Codec.decode (Codec.encode ~label:"rand" cell))
         && (flat_section data).Codec.s_entries
            = Array.length flat.Flatten.flat_boxes
         && flat_equal flat (Flatten.flatten entry.Codec.e_cell)))

(* ---- corruption ------------------------------------------------------ *)

let test_corruption_detected () =
  let cell = (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell in
  let flat = Flatten.flatten cell in
  let data = Codec.encode ~flat ~label:"decoder 3" cell in
  let expect_error what s =
    match Codec.decode s with
    | _ -> Alcotest.fail (what ^ ": corruption not detected")
    | exception Codec.Error _ -> ()
  in
  (* truncation at a spread of prefixes *)
  List.iter
    (fun frac ->
      let len = String.length data * frac / 10 in
      expect_error
        (Printf.sprintf "truncated to %d/%d" len (String.length data))
        (String.sub data 0 len))
    [ 0; 1; 3; 5; 7; 9 ];
  (* single-byte flips across the whole file, header included *)
  let step = max 1 (String.length data / 97) in
  let i = ref 0 in
  while !i < String.length data do
    let b = Bytes.of_string data in
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0x41));
    expect_error (Printf.sprintf "flip at byte %d" !i) (Bytes.to_string b);
    i := !i + step
  done

let test_error_kinds () =
  let cell = Cell.create "unit" in
  Cell.add_box cell Layer.Metal (Box.make ~xmin:0 ~ymin:0 ~xmax:4 ~ymax:4);
  let data = Codec.encode ~label:"unit" cell in
  (match Codec.decode ("XXXX" ^ String.sub data 4 (String.length data - 4)) with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Codec.Error Codec.Bad_magic -> ()
  | exception Codec.Error e ->
    Alcotest.failf "wanted Bad_magic, got %a" Codec.pp_error e);
  (let b = Bytes.of_string data in
   Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 0xff));
   match Codec.decode (Bytes.to_string b) with
   | _ -> Alcotest.fail "bad version accepted"
   | exception Codec.Error (Codec.Bad_version _) -> ()
   | exception Codec.Error e ->
     Alcotest.failf "wanted Bad_version, got %a" Codec.pp_error e);
  (* flip one payload byte: length still right, checksum must catch it *)
  let b = Bytes.of_string data in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  match Codec.decode (Bytes.to_string b) with
  | _ -> Alcotest.fail "payload flip accepted"
  | exception Codec.Error (Codec.Checksum_mismatch _) -> ()
  | exception Codec.Error e ->
    Alcotest.failf "wanted Checksum_mismatch, got %a" Codec.pp_error e

(* ---- cache keys ------------------------------------------------------ *)

let test_key_sensitivity () =
  let base = Store.key ~deck:"deck" ~scale:"1" ~design:"design" ~params:"p" () in
  let same = Store.key ~deck:"deck" ~scale:"1" ~design:"design" ~params:"p" () in
  Alcotest.(check string) "stable" (Store.key_hex base) (Store.key_hex same);
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool)
        (what ^ " changes key")
        false
        (Store.key_hex k = Store.key_hex base))
    [
      ("design", Store.key ~deck:"deck" ~scale:"1" ~design:"design2" ~params:"p" ());
      ("params", Store.key ~deck:"deck" ~scale:"1" ~design:"design" ~params:"q" ());
      ("deck", Store.key ~deck:"deck2" ~scale:"1" ~design:"design" ~params:"p" ());
      ("scale", Store.key ~deck:"deck" ~scale:"2" ~design:"design" ~params:"p" ());
    ];
  (* components must not concatenate ambiguously *)
  let a = Store.key ~design:"ab" ~params:"c" ()
  and b = Store.key ~design:"a" ~params:"bc" () in
  Alcotest.(check bool) "no component bleed" false
    (Store.key_hex a = Store.key_hex b)

(* ---- store ----------------------------------------------------------- *)

let test_store_lookup () =
  let st = Store.open_ (temp_dir ()) in
  let cell = (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell in
  let flat = Flatten.flatten cell in
  let k = Store.key ~design:"decoder" ~params:"n=3" () in
  (match Store.find st k with
  | Store.Miss -> ()
  | _ -> Alcotest.fail "expected Miss before save");
  Store.save st k ~label:"decoder 3" ~flat cell;
  (match Store.find st k with
  | Store.Hit e ->
    Alcotest.(check string) "hit label" "decoder 3" e.Codec.e_label;
    Alcotest.(check string)
      "hit cif" (Cif.to_string cell)
      (Cif.to_string e.Codec.e_cell)
  | _ -> Alcotest.fail "expected Hit after save");
  (* corrupt the file on disk: find must report Corrupt and remove it *)
  let path = Store.path_of st k in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  Bytes.set b (Bytes.length b - 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 2)) lxor 0x10));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b));
  (match Store.find st k with
  | Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt after byte flip");
  (match Store.find st k with
  | Store.Miss -> ()
  | _ -> Alcotest.fail "corrupt entry should have been removed");
  ignore (Store.clear st)

let test_store_stats_gc () =
  let st = Store.open_ (temp_dir ()) in
  let cell = Cell.create "c" in
  Cell.add_box cell Layer.Poly (Box.make ~xmin:0 ~ymin:0 ~xmax:2 ~ymax:2);
  let keys =
    List.map
      (fun i ->
        let k = Store.key ~design:"d" ~params:(string_of_int i) () in
        Store.save st k ~label:(Printf.sprintf "entry %d" i) cell;
        k)
      [ 0; 1; 2; 3 ]
  in
  let s = Store.stats st in
  Alcotest.(check int) "entries" 4 s.Store.st_entries;
  Alcotest.(check bool) "bytes > 0" true (s.Store.st_bytes > 0);
  let listed = List.map (fun e -> e.Store.es_key) s.Store.st_list in
  Alcotest.(check (list string))
    "sorted deterministic" (List.sort String.compare listed) listed;
  Alcotest.(check int) "listed all" 4 (List.length listed);
  (* gc by size down to roughly half must remove something but not all *)
  let per = s.Store.st_bytes / 4 in
  let removed = Store.gc ~max_bytes:(per * 2) st in
  Alcotest.(check bool) "gc removed some" true (removed >= 1 && removed < 4);
  let s2 = Store.stats st in
  Alcotest.(check bool) "gc under budget" true (s2.Store.st_bytes <= per * 2);
  (* gc by age: everything is fresh, so a 1-hour horizon removes nothing *)
  Alcotest.(check int) "age gc keeps fresh" 0 (Store.gc ~max_age:3600.0 st);
  let n = Store.clear st in
  Alcotest.(check int) "clear removes rest" s2.Store.st_entries n;
  Alcotest.(check int) "empty after clear" 0 (Store.stats st).Store.st_entries;
  ignore keys

(* ---- v2 prototype table --------------------------------------------- *)

module Drc = Rsg_drc.Drc
module Deck = Rsg_drc.Deck

let deck_digest = Deck.digest Deck.default

(* Package a hierarchical DRC report as the per-prototype cache the
   codec stores: hex subtree digest -> [(deck digest, cached level)]. *)
let reports_of_hier (r : Drc.hier_report) =
  let by_hex =
    List.map
      (fun (l : Drc.level) -> (l.Drc.l_hash, Drc.cached_of_level l))
      r.Drc.h_levels
  in
  fun hex ->
    match List.assoc_opt hex by_hex with
    | Some cl -> [ (deck_digest, cl) ]
    | None -> []

let cached_of_table (table : Codec.proto array) =
  let h = Hashtbl.create 32 in
  Array.iter
    (fun (p : Codec.proto) -> Hashtbl.replace h (Digest.to_hex p.Codec.p_hash) p)
    table;
  fun hex ->
    Option.bind (Hashtbl.find_opt h hex) (fun (p : Codec.proto) ->
        List.assoc_opt deck_digest p.Codec.p_reports)

let test_proto_roundtrip () =
  let cell =
    (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ()).Rsg_mult.Layout_gen.whole
  in
  let protos = Flatten.prototypes cell in
  let hier = Drc.check_protos ~domains:1 protos in
  let table =
    Codec.proto_table protos ~reused:(fun _ -> false)
      ~reports:(reports_of_hier hier)
  in
  Alcotest.(check bool) "table non-empty" true (Array.length table > 0);
  let flat = Flatten.protos_flat protos in
  let data = Codec.encode ~flat ~protos:table ~label:"mult 4x4" cell in
  let entry = Codec.decode data in
  Alcotest.(check int)
    "proto count survives" (Array.length table)
    (Array.length entry.Codec.e_protos);
  Array.iter2
    (fun (a : Codec.proto) (b : Codec.proto) ->
      Alcotest.(check string)
        "hash survives"
        (Digest.to_hex a.Codec.p_hash)
        (Digest.to_hex b.Codec.p_hash);
      Alcotest.(check bool) "reused survives" a.Codec.p_reused b.Codec.p_reused;
      Alcotest.(check int)
        "report count survives"
        (List.length a.Codec.p_reports)
        (List.length b.Codec.p_reports);
      (* the decoded proto cell's content digest must equal its stored
         hash — the table is self-consistently content-addressed *)
      let ps = Flatten.prototypes b.Codec.p_cell in
      Alcotest.(check string)
        "decoded cell digest = stored hash"
        (Digest.to_hex b.Codec.p_hash)
        (Flatten.subtree_hex ps (Flatten.protos_root ps)))
    table entry.Codec.e_protos;
  (* decode_protos reads only the table, and agrees with full decode *)
  let label, table' = Codec.decode_protos data in
  Alcotest.(check string) "decode_protos label" "mult 4x4" label;
  Alcotest.(check int)
    "decode_protos count" (Array.length table) (Array.length table');
  (* replaying every stored level recomputes nothing and reproduces the
     verdict *)
  let replay = Drc.check_protos ~domains:1 ~cached:(cached_of_table table') protos in
  Alcotest.(check int)
    "all levels replayed"
    (List.length replay.Drc.h_levels)
    replay.Drc.h_cached;
  Alcotest.(check bool)
    "replayed verdict agrees" (Drc.hier_clean hier) (Drc.hier_clean replay)

let test_sections_accounting () =
  (* the per-section breakdown accounts for the payload and lands in
     Store.stats so `rsg cache stats` can report it *)
  let cell = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell in
  let protos = Flatten.prototypes cell in
  let table = Codec.proto_table protos in
  let flat = Flatten.protos_flat protos in
  let data = Codec.encode ~flat ~protos:table ~label:"pla" cell in
  let secs = Codec.sections data in
  let sec name =
    match List.find_opt (fun (s : Codec.section) -> s.Codec.s_name = name) secs with
    | Some s -> s
    | None -> Alcotest.failf "missing section %s" name
  in
  (* every byte of the entry is accounted to exactly one section *)
  Alcotest.(check int) "bytes partition the entry" (String.length data)
    (List.fold_left (fun a (s : Codec.section) -> a + s.Codec.s_bytes) 0 secs);
  Alcotest.(check int) "proto geometry entries"
    (Array.length table) (sec "proto geometry").Codec.s_entries;
  Alcotest.(check int) "flat boxes"
    (Array.length flat.Flatten.flat_boxes)
    (sec "flat").Codec.s_entries;
  (* store-level aggregation: one entry's sections, verbatim *)
  let store = Store.open_ (temp_dir ()) in
  let key = Store.key ~design:"sections-test" ~params:"p" () in
  Store.save store key ~label:"pla" ~flat ~protos:table cell;
  let st = Store.stats store in
  List.iter
    (fun (s : Codec.section) ->
      let agg =
        match
          List.find_opt
            (fun (t : Codec.section) -> t.Codec.s_name = s.Codec.s_name)
            st.Store.st_sections
        with
        | Some t -> t
        | None -> Alcotest.failf "stats missing section %s" s.Codec.s_name
      in
      Alcotest.(check int) (s.Codec.s_name ^ " bytes aggregate")
        s.Codec.s_bytes agg.Codec.s_bytes;
      Alcotest.(check int) (s.Codec.s_name ^ " entries aggregate")
        s.Codec.s_entries agg.Codec.s_entries)
    secs;
  ignore (Store.clear store)

(* Cold, fully-cached and partially-cached (one edited row) checks must
   agree on the verdict at every domain count. *)
let test_incremental_agreement () =
  let cell_a = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell in
  let tt_b =
    Rsg_pla.Truth_table.of_strings
      [ ("10-", "10"); ("0-1", "01"); ("111", "11") ]
  in
  let cell_b = (Rsg_pla.Gen.generate tt_b).Rsg_pla.Gen.cell in
  let protos_a = Flatten.prototypes cell_a in
  let hier_a = Drc.check_protos ~domains:1 protos_a in
  let table =
    Codec.proto_table protos_a ~reused:(fun _ -> false)
      ~reports:(reports_of_hier hier_a)
  in
  let cached = cached_of_table table in
  List.iter
    (fun domains ->
      let protos_b = Flatten.prototypes cell_b in
      let fresh = Drc.check_protos ~domains protos_b in
      let incr = Drc.check_protos ~domains ~cached protos_b in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d replay reuses something" domains)
        true (incr.Drc.h_cached > 0);
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d not everything cached" domains)
        true
        (incr.Drc.h_cached < List.length incr.Drc.h_levels);
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d verdict agrees" domains)
        (Drc.hier_clean fresh) (Drc.hier_clean incr);
      List.iter2
        (fun (f : Drc.level) (i : Drc.level) ->
          Alcotest.(check string)
            (Printf.sprintf "domains=%d level hash" domains)
            f.Drc.l_hash i.Drc.l_hash;
          Alcotest.(check int)
            (Printf.sprintf "domains=%d level violations" domains)
            (List.length f.Drc.l_violations)
            (List.length i.Drc.l_violations))
        fresh.Drc.h_levels incr.Drc.h_levels)
    [ 1; 2 ]

(* Seeding pre-flattened arrays from a previous run's table must
   recompose to bit-identical geometry. *)
let test_seed_recompose () =
  let cell_a = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell in
  let tt_b =
    Rsg_pla.Truth_table.of_strings
      [ ("10-", "10"); ("0-1", "01"); ("111", "11") ]
  in
  let make_b () = (Rsg_pla.Gen.generate tt_b).Rsg_pla.Gen.cell in
  let protos_a = Flatten.prototypes cell_a in
  let fresh = Flatten.protos_flat (Flatten.prototypes (make_b ())) in
  let seeded_protos = Flatten.prototypes (make_b ()) in
  List.iter
    (fun (c, _hex) ->
      let f = Flatten.proto_flat protos_a c in
      Flatten.seed_proto seeded_protos
        ~hash:(Flatten.subtree_digest protos_a c)
        ~boxes:f.Flatten.flat_boxes ~labels:f.Flatten.flat_labels)
    (Flatten.subtree_hashes protos_a);
  Alcotest.(check bool)
    "seeded flat identical to fresh" true
    (flat_equal fresh (Flatten.protos_flat seeded_protos))

let test_ercs_roundtrip () =
  (* v4: cached ERC verdicts ride in the prototype table, keyed by the
     ERC config digest, and survive the codec exactly — censuses,
     diag severities and spans included *)
  let module Erc = Rsg_erc.Erc in
  let module Diag = Rsg_lint.Diag in
  let cell = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell in
  let r = Erc.check_cell ~domains:1 cell in
  let cfg = Erc.config_digest Erc.default_config Rsg_compact.Rules.default in
  let by_hash = Hashtbl.create 16 in
  List.iter
    (fun (l : Erc.level) ->
      Hashtbl.replace by_hash l.Erc.l_hash [ (cfg, l.Erc.l_verdict) ])
    r.Erc.r_levels;
  let protos = Flatten.prototypes cell in
  let ercs hex = Option.value ~default:[] (Hashtbl.find_opt by_hash hex) in
  let table = Codec.proto_table protos ~ercs in
  Alcotest.(check bool) "every record carries a verdict" true
    (Array.for_all (fun (p : Codec.proto) -> p.Codec.p_ercs <> []) table);
  let data = Codec.encode ~protos:table ~label:"pla" cell in
  (* a root verdict with diagnostics exercises the diag codec; E306
     at least is always present on this unlabeled design *)
  Alcotest.(check bool) "root verdict has diagnostics" true
    (Array.exists
       (fun (p : Codec.proto) ->
         List.exists (fun (_, v) -> v.Erc.cv_diags <> []) p.Codec.p_ercs)
       table);
  let check_table (table' : Codec.proto array) =
    Array.iter2
      (fun (a : Codec.proto) (b : Codec.proto) ->
        List.iter2
          (fun (da, va) (db, vb) ->
            Alcotest.(check string) "config digest survives"
              (Digest.to_hex da) (Digest.to_hex db);
            Alcotest.(check int) "nets" va.Erc.cv_nets vb.Erc.cv_nets;
            Alcotest.(check int) "devices" va.Erc.cv_devices vb.Erc.cv_devices;
            Alcotest.(check int) "open" va.Erc.cv_open vb.Erc.cv_open;
            Alcotest.(check int) "rails" va.Erc.cv_rails vb.Erc.cv_rails;
            Alcotest.(check bool) "diags survive exactly" true
              (va.Erc.cv_diags = vb.Erc.cv_diags))
          a.Codec.p_ercs b.Codec.p_ercs)
      table table'
  in
  check_table (Codec.decode data).Codec.e_protos;
  check_table (snd (Codec.decode_protos data));
  (* the replayed verdicts reproduce the fresh report bit-exactly *)
  let tbl : (string, Erc.cached_verdict) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (p : Codec.proto) ->
      List.iter
        (fun (d, v) -> if d = cfg then Hashtbl.replace tbl (Digest.to_hex p.Codec.p_hash) v)
        p.Codec.p_ercs)
    (snd (Codec.decode_protos data));
  let r2 = Erc.check_cell ~domains:1 ~cached:(Hashtbl.find_opt tbl) cell in
  Alcotest.(check int) "all levels replay" (List.length r2.Erc.r_levels)
    r2.Erc.r_cached;
  Alcotest.(check string) "replayed diagnostics identical"
    (Rsg_obs.Json.to_string (Diag.report_to_json (Erc.to_diags r)))
    (Rsg_obs.Json.to_string (Diag.report_to_json (Erc.to_diags r2)));
  (* the sections table accounts the new payload section *)
  let row =
    List.find
      (fun (s : Codec.section) -> s.Codec.s_name = "erc verdicts")
      (Codec.sections data)
  in
  Alcotest.(check int) "one verdict per record" (Array.length table)
    row.Codec.s_entries;
  Alcotest.(check bool) "verdict bytes accounted" true (row.Codec.s_bytes > 0)

let test_places_roundtrip () =
  (* v5: cached placement-search evaluations ride on the root record,
     keyed by MD5(candidate digest ^ rule-deck digest), and survive
     the codec exactly *)
  let cell = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell in
  let protos = Flatten.prototypes cell in
  let root_hex = Digest.to_hex (Flatten.subtree_digest protos cell) in
  let deck = Rsg_compact.Rules.digest Rsg_compact.Rules.default in
  let evals =
    List.map
      (fun (cand, area) -> (Digest.string (Digest.string cand ^ deck), area))
      [ ("cand-a", 1234); ("cand-b", 987654); ("cand-c", 7) ]
  in
  let places hex = if hex = root_hex then evals else [] in
  let table = Codec.proto_table protos ~places in
  Alcotest.(check bool) "root record carries the evals" true
    (Array.exists (fun (p : Codec.proto) -> p.Codec.p_places = evals) table);
  let data = Codec.encode ~protos:table ~label:"pla" cell in
  let check_table (table' : Codec.proto array) =
    Array.iter2
      (fun (a : Codec.proto) (b : Codec.proto) ->
        Alcotest.(check int) "eval count survives"
          (List.length a.Codec.p_places)
          (List.length b.Codec.p_places);
        List.iter2
          (fun (ka, aa) (kb, ab) ->
            Alcotest.(check string) "eval key survives" (Digest.to_hex ka)
              (Digest.to_hex kb);
            Alcotest.(check int) "eval area survives" aa ab)
          a.Codec.p_places b.Codec.p_places)
      table table'
  in
  check_table (Codec.decode data).Codec.e_protos;
  check_table (snd (Codec.decode_protos data));
  (* the sections table accounts the new payload section *)
  let row =
    List.find
      (fun (s : Codec.section) -> s.Codec.s_name = "place evals")
      (Codec.sections data)
  in
  Alcotest.(check int) "three evals accounted" 3 row.Codec.s_entries;
  Alcotest.(check bool) "eval bytes accounted" true (row.Codec.s_bytes > 0)

(* ---- store maintenance and incremental lookup ------------------------ *)

(* Every earlier format version must be a clean miss: [Bad_version]
   against this build's version, deleted, never [Corrupt] or
   mis-decoded — and the re-save must warm the slot again. One case
   per older version, so a format bump adds a case and drops none. *)
let test_stale_miss v () =
  let st = Store.open_ (temp_dir ()) in
  let cell = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell in
  let k = Store.key ~design:"pla" ~params:"tt" () in
  Store.save st k ~label:"pla" cell;
  let path = Store.path_of st k in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  (* the version field is the u32 after the 4-byte magic: find the
     byte holding the current version and patch it to [v], whatever
     the endianness *)
  let patched = ref false in
  for i = 4 to 7 do
    if Bytes.get b i = Char.chr Codec.format_version then begin
      Bytes.set b i (Char.chr v);
      patched := true
    end
  done;
  let what = Printf.sprintf "v%d " v in
  Alcotest.(check bool) (what ^ "version byte found") true !patched;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  (match Codec.decode (Bytes.to_string b) with
  | exception Codec.Error (Codec.Bad_version { found; expected }) ->
    Alcotest.(check int) (what ^ "found") v found;
    Alcotest.(check int) (what ^ "expected") Codec.format_version expected
  | _ -> Alcotest.failf "v%d entry decoded by this build" v);
  (match Store.find st k with
  | Store.Miss -> ()
  | Store.Hit _ -> Alcotest.failf "v%d entry mis-decoded as hit" v
  | Store.Corrupt _ -> Alcotest.failf "v%d entry reported corrupt, not stale" v);
  Alcotest.(check bool) (what ^ "stale entry deleted") false
    (Sys.file_exists path);
  Store.save st k ~label:"pla" cell;
  (match Store.find st k with
  | Store.Hit _ -> ()
  | _ -> Alcotest.failf "v%d: re-save did not re-warm" v);
  ignore (Store.clear st)

let stale_cases =
  List.init (Codec.format_version - 1) (fun i ->
      let v = i + 1 in
      Alcotest.test_case
        (Printf.sprintf "stale v%d is a clean miss" v)
        `Quick (test_stale_miss v))

let touch path =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "x")

let test_tmp_sweep () =
  let st = Store.open_ (temp_dir ()) in
  let old_tmp = Filename.concat (Store.dir st) ".rsgdb-dead.tmp" in
  let fresh_tmp = Filename.concat (Store.dir st) ".rsgdb-live.tmp" in
  touch old_tmp;
  touch fresh_tmp;
  let ago = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes old_tmp ago ago;
  Alcotest.(check int) "sweeps only the old orphan" 1 (Store.sweep_tmp st);
  Alcotest.(check bool) "old orphan gone" false (Sys.file_exists old_tmp);
  Alcotest.(check bool) "fresh temp kept" true (Sys.file_exists fresh_tmp);
  (* gc runs the sweep too *)
  Unix.utimes fresh_tmp ago ago;
  let _ = Store.gc st in
  Alcotest.(check bool) "gc swept the aged temp" false (Sys.file_exists fresh_tmp)

(* Maintenance must survive (and not double-count) files a concurrent
   process removed first. *)
let test_removal_races () =
  let st = Store.open_ (temp_dir ()) in
  let cell = Cell.create "c" in
  Cell.add_box cell Layer.Poly (Box.make ~xmin:0 ~ymin:0 ~xmax:2 ~ymax:2);
  let k1 = Store.key ~design:"d" ~params:"1" () in
  let k2 = Store.key ~design:"d" ~params:"2" () in
  Store.save st k1 ~label:"one" cell;
  Store.save st k2 ~label:"two" cell;
  Sys.remove (Store.path_of st k1);
  Alcotest.(check int) "clear counts only real removals" 1 (Store.clear st);
  Store.save st k1 ~label:"one" cell;
  Store.save st k2 ~label:"two" cell;
  Sys.remove (Store.path_of st k2);
  Alcotest.(check int)
    "gc counts only real removals" 1
    (Store.gc ~max_bytes:0 st);
  ignore (Store.clear st)

let test_latest_and_harvest () =
  let st = Store.open_ (temp_dir ()) in
  let cell = (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell in
  let protos = Flatten.prototypes cell in
  let table = Codec.proto_table protos in
  let k = Store.key ~design:"decoder" ~params:"n=3" () in
  Alcotest.(check bool) "no pointer yet" true (Store.latest st ~stem:"dec" = None);
  Alcotest.(check bool) "nothing to harvest" true (Store.harvest st ~stem:"dec" = None);
  Store.save st k ~stem:"dec" ~label:"decoder 3" ~protos:table cell;
  (match Store.latest st ~stem:"dec" with
  | Some k' -> Alcotest.(check string) "pointer names the key" (Store.key_hex k) (Store.key_hex k')
  | None -> Alcotest.fail "pointer not written");
  (match Store.harvest st ~stem:"dec" with
  | Some (k', table') ->
    Alcotest.(check string) "harvest key" (Store.key_hex k) (Store.key_hex k');
    Alcotest.(check int) "harvest table size" (Array.length table) (Array.length table');
    Array.iter2
      (fun (a : Codec.proto) (b : Codec.proto) ->
        Alcotest.(check string) "harvest hash"
          (Digest.to_hex a.Codec.p_hash) (Digest.to_hex b.Codec.p_hash))
      table table'
  | None -> Alcotest.fail "harvest failed after save");
  (* an unrelated stem sees nothing *)
  Alcotest.(check bool) "stems are isolated" true (Store.harvest st ~stem:"other" = None);
  (* dangling pointer (entry deleted behind our back) harvests nothing *)
  Sys.remove (Store.path_of st k);
  Alcotest.(check bool) "dangling pointer" true (Store.harvest st ~stem:"dec" = None);
  ignore (Store.clear st)

(* A garbled [.latest] pointer — truncated write from a pre-atomic
   era, or tampering — must read as a clean [None], be deleted so it
   costs one report, and be counted on [store.bad_pointer]. *)
let test_bad_pointer () =
  let module Obs = Rsg_obs.Obs in
  let st = Store.open_ (temp_dir ()) in
  let cell = (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell in
  let k = Store.key ~design:"decoder" ~params:"n=3" () in
  Store.save st k ~stem:"dec" ~label:"decoder 3" cell;
  let pointer_file () =
    Array.to_list (Sys.readdir (Store.dir st))
    |> List.filter (fun f -> Filename.check_suffix f ".latest")
    |> function
    | [ f ] -> Filename.concat (Store.dir st) f
    | l -> Alcotest.failf "expected one pointer file, found %d" (List.length l)
  in
  let path = pointer_file () in
  let garble s =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  in
  let was_enabled = Obs.is_enabled () in
  Obs.enable ();
  let bad_count () =
    Option.value ~default:0 (List.assoc_opt "store.bad_pointer" (Obs.counters ()))
  in
  List.iter
    (fun junk ->
      garble junk;
      let before = bad_count () in
      (match Store.latest st ~stem:"dec" with
      | None -> ()
      | Some _ -> Alcotest.failf "garbled pointer %S decoded" junk);
      Alcotest.(check int) "bad pointer counted" (before + 1) (bad_count ());
      Alcotest.(check bool) "pointer file removed" false (Sys.file_exists path);
      (* with the pointer gone, the miss is silent — no second report *)
      Alcotest.(check bool) "miss after removal" true
        (Store.latest st ~stem:"dec" = None);
      Alcotest.(check int) "no double count" (before + 1) (bad_count ());
      (* harvest follows the same path and stays a clean None *)
      Alcotest.(check bool) "harvest clean miss" true
        (Store.harvest st ~stem:"dec" = None);
      (* and a fresh save re-installs a working pointer *)
      Store.save st k ~stem:"dec" ~label:"decoder 3" cell;
      match Store.latest st ~stem:"dec" with
      | Some k' ->
        Alcotest.(check string) "pointer healed" (Store.key_hex k)
          (Store.key_hex k')
      | None -> Alcotest.fail "re-save did not restore the pointer")
    [ ""; "deadbeef"; "not hex at all"; String.make 31 'a';
      String.make 32 'Z'; String.make 64 'a' ];
  if not was_enabled then Obs.disable ();
  ignore (Store.clear st)

(* The advisory lock: value passthrough, exception safety, shared
   mode, and actual mutual exclusion against a second process image
   (two store handles on one directory in the same process would
   deadlock by design, so exclusion is observed via file effects). *)
let test_with_lock () =
  let st = Store.open_ (temp_dir ()) in
  Alcotest.(check int) "value passes through" 42
    (Store.with_lock st (fun () -> 42));
  Alcotest.(check int) "shared mode too" 7
    (Store.with_lock ~shared:true st (fun () -> 7));
  (match Store.with_lock st (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  (* the lock was released by the raise: this would hang otherwise *)
  Alcotest.(check int) "lock released after raise" 1
    (Store.with_lock st (fun () -> 1));
  (* mutators still work under an explicit outer lock's directory *)
  let cell = Cell.create "c" in
  Cell.add_box cell Layer.Poly (Box.make ~xmin:0 ~ymin:0 ~xmax:2 ~ymax:2);
  let k = Store.key ~design:"d" ~params:"1" () in
  Store.save st k ~label:"one" cell;
  (match Store.find st k with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail "save under locking regime lost");
  ignore (Store.clear st)

(* ---- geometric dirtiness --------------------------------------------- *)

(* Construction plan for a random acyclic pool: cell [i] may only
   instantiate cells [j < i].  Building from a plan (instead of hashing
   one mutable pool twice) lets the property compare a pristine build
   against one with a single edited cell. *)
type plan_op =
  | P_box of Layer.t * Box.t
  | P_label of string * Vec.t
  | P_inst of int * Orient.t * Vec.t

let gen_plan st =
  let open QCheck.Gen in
  let n_layers = List.length Layer.all in
  let coord st = int_range (-500) 500 st in
  let rand_box st =
    let x = coord st and y = coord st in
    let w = int_range 0 200 st and h = int_range 0 200 st in
    Box.make ~xmin:x ~ymin:y ~xmax:(x + w) ~ymax:(y + h)
  in
  let n_cells = int_range 2 7 st in
  let plan =
    Array.init n_cells (fun i ->
        List.init (int_range 1 8 st) (fun _ ->
            match int_range 0 2 st with
            | 0 ->
              P_box
                ( Layer.of_index_exn (int_range 0 (n_layers - 1) st),
                  rand_box st )
            | 1 ->
              P_label (Printf.sprintf "l%d" (int_range 0 99 st),
                       Vec.make (coord st) (coord st))
            | _ ->
              if i = 0 then P_box (Layer.Metal, rand_box st)
              else
                P_inst
                  ( int_range 0 (i - 1) st,
                    Orient.of_index (int_range 0 7 st),
                    Vec.make (coord st) (coord st) )))
  in
  let edited = int_range 0 (n_cells - 1) st in
  (plan, edited)

let build_pool ?edit plan =
  let pool =
    Array.mapi (fun i _ -> Cell.create (Printf.sprintf "pc%d" i)) plan
  in
  Array.iteri
    (fun i ops ->
      List.iter
        (fun op ->
          match op with
          | P_box (l, bx) -> Cell.add_box pool.(i) l bx
          | P_label (s, v) -> Cell.add_label pool.(i) s v
          | P_inst (j, orient, at) ->
            ignore (Cell.add_instance pool.(i) ~orient ~at pool.(j)))
        ops;
      if edit = Some i then
        Cell.add_box pool.(i) Layer.Implant
          (Box.make ~xmin:9000 ~ymin:9000 ~xmax:9004 ~ymax:9004))
    plan;
  pool

(* cell [i]'s subtree digest, hashing [i] as its own root *)
let digest_of pool i =
  let p = Flatten.prototypes pool.(i) in
  Flatten.subtree_hex p (Flatten.protos_root p)

let reaches plan i k =
  let rec go i =
    i = k
    || List.exists
         (function P_inst (j, _, _) -> go j | _ -> false)
         plan.(i)
  in
  go i

let qcheck_edit_dirtiness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"one edit dirties exactly the edited cell and its ancestors"
       (QCheck.make gen_plan)
       (fun (plan, edited) ->
         let base = build_pool plan in
         let touched = build_pool ~edit:edited plan in
         Array.for_all Fun.id
           (Array.mapi
              (fun i _ ->
                let changed = digest_of base i <> digest_of touched i in
                changed = reaches plan i edited)
              plan)))

(* ---- batch ----------------------------------------------------------- *)

(* ---- cached runs (Store.Cached) ------------------------------------- *)

module Erc = Rsg_erc.Erc
module Anneal = Rsg_search.Anneal

(* Give the first leaf celltype carrying boxes a copy of its first box:
   the geometry's union is unchanged, but the leaf's digest and its
   ancestors' change.  Returns the edited leaf. *)
let edit_leaf cell =
  let leaf =
    List.find
      (fun c -> Cell.instances c = [] && Cell.boxes c <> [])
      (Flatten.protos_order (Flatten.prototypes cell))
  in
  let l, b = List.hd (Cell.boxes leaf) in
  Cell.add_box leaf l b;
  leaf

(* hexes of the prototypes on the dirty chain: the edited leaf and every
   celltype instantiating it, directly or not *)
let dirty_hexes leaf cell =
  let protos = Flatten.prototypes cell in
  let rec reaches (c : Cell.t) =
    c == leaf
    || List.exists (fun (i : Cell.instance) -> reaches i.Cell.def) (Cell.instances c)
  in
  List.filter_map
    (fun (c, hex) -> if reaches c then Some hex else None)
    (Flatten.subtree_hashes protos)

(* One run through the helper, as the CLI drives it: a hit replays from
   the key's own entry and saves nothing; a miss harvests the stem,
   computes and saves.  Returns the result and the cache lines. *)
let cached_run store ~stem key ~compute ~save =
  let buf = Buffer.create 256 in
  let log = Format.formatter_of_buffer buf in
  let run = Store.Cached.start ~log ~stem (Some store) in
  let r =
    Store.Cached.run run key ~redo:"recomputing"
      ~compute:(fun _ -> compute run)
      ~save:(save run key)
  in
  Format.pp_print_flush log ();
  (r, Buffer.contents buf)

let has_line log prefix =
  List.exists
    (fun l -> String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix)
    (String.split_on_char '\n' log)

(* The protocol every artifact kind must follow: a cold run saves, an
   edit of one leaf harvests the stem and replays exactly the
   prototypes off the dirty chain, an unchanged rerun computes nothing,
   and every result equals the uncached call.  [replayed design r]
   lists (subtree hex, replayed) per prototype; [canon] renders a
   result without its replay bookkeeping. *)
let check_protocol ~name ~make ~compute ~save ~uncached ~replayed ~canon =
  let st = Store.open_ (temp_dir ()) in
  let stem = "proto-test:" ^ name in
  let key_a = Store.key ~design:(name ^ " a") ~params:"" () in
  let key_b = Store.key ~design:(name ^ " b") ~params:"" () in
  let same what cell r =
    Alcotest.(check string) (name ^ ": " ^ what ^ " equals uncached")
      (canon (uncached cell)) (canon r)
  in
  let cell_a = make () in
  let r, log = cached_run st ~stem key_a ~compute:(compute cell_a) ~save:(save cell_a) in
  Alcotest.(check bool) (name ^ ": cold run saves") true (has_line log "cache: saved");
  Alcotest.(check bool) (name ^ ": cold run harvests nothing") false
    (has_line log "cache: harvesting");
  Alcotest.(check bool) (name ^ ": cold run replays nothing") true
    (List.for_all (fun (_, rp) -> not rp) (replayed cell_a r));
  (match Store.find st key_a with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail (name ^ ": cold entry not found"));
  same "cold" cell_a r;
  let cell_b = make () in
  let leaf = edit_leaf cell_b in
  let dirty = dirty_hexes leaf cell_b in
  let r, log = cached_run st ~stem key_b ~compute:(compute cell_b) ~save:(save cell_b) in
  Alcotest.(check bool) (name ^ ": edit harvests the stem") true
    (has_line log "cache: harvesting");
  List.iter
    (fun (hex, rp) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s replayed iff off the dirty chain" name hex)
        (not (List.mem hex dirty)) rp)
    (replayed cell_b r);
  same "edit" cell_b r;
  let r, log = cached_run st ~stem key_b ~compute:(compute cell_b) ~save:(save cell_b) in
  Alcotest.(check bool) (name ^ ": rerun hits") true (has_line log "cache: hit");
  Alcotest.(check bool) (name ^ ": rerun saves nothing") false (has_line log "cache: saved");
  Alcotest.(check bool) (name ^ ": rerun computes nothing") true
    (List.for_all snd (replayed cell_b r));
  same "rerun" cell_b r;
  ignore (Store.clear st)

let pla_cell () = (Rsg_pla.Gen.generate (pla_tt ())).Rsg_pla.Gen.cell

let test_cached_drc () =
  check_protocol ~name:"drc" ~make:pla_cell
    ~compute:(fun cell run ->
      Drc.check_protos ~domains:2
        ~cached:(Store.Cached.replay run (fun p -> p.Codec.p_reports) deck_digest)
        (Flatten.prototypes cell))
    ~save:(fun cell run key r ->
      ignore
        (Store.Cached.save run (lazy key)
           ~label:"drc" ~reports:(reports_of_hier r) (lazy (Flatten.prototypes cell)) cell))
    ~uncached:(fun cell -> Drc.check_protos ~domains:1 (Flatten.prototypes cell))
    ~replayed:(fun _ r ->
      List.map (fun (l : Drc.level) -> (l.Drc.l_hash, l.Drc.l_cached)) r.Drc.h_levels)
    ~canon:(fun r ->
      Marshal.to_string
        (List.map
           (fun (l : Drc.level) -> { l with Drc.l_cached = false })
           r.Drc.h_levels)
        [])

let erc_digest = Erc.config_digest Erc.default_config Rsg_compact.Rules.default

let test_cached_erc () =
  check_protocol ~name:"erc" ~make:pla_cell
    ~compute:(fun cell run ->
      Erc.check_protos ~domains:2
        ~cached:(Store.Cached.replay run (fun p -> p.Codec.p_ercs) erc_digest)
        (Flatten.prototypes cell))
    ~save:(fun cell run key r ->
      ignore
        (Store.Cached.save run (lazy key)
           ~label:"erc"
           ~ercs:
             (Store.Cached.by_hex erc_digest
                (List.map (fun (l : Erc.level) -> (l.Erc.l_hash, l.Erc.l_verdict)) r.Erc.r_levels))
           (lazy (Flatten.prototypes cell)) cell))
    ~uncached:(fun cell -> Erc.check_cell ~domains:1 cell)
    ~replayed:(fun _ r ->
      List.map (fun (l : Erc.level) -> (l.Erc.l_hash, l.Erc.l_cached)) r.Erc.r_levels)
    ~canon:(fun r ->
      Rsg_obs.Json.to_string @@ Erc.report_to_json
        { r with
          Erc.r_cached = 0;
          r_levels = List.map (fun (l : Erc.level) -> { l with Erc.l_cached = false }) r.Erc.r_levels })

let rules = Rsg_compact.Rules.default

let rules_digest = Rsg_compact.Rules.digest rules

let test_cached_places () =
  let search cell cached =
    let st0 = Rsg_search.Place_opt.make ~rules [ cell; cell ] in
    Anneal.run ~domains:2 ~cached ~chains:1 ~iters:6 ~seed:3
      Rsg_search.Place_opt.problem st0
  in
  let root_hex cell =
    let protos = Flatten.prototypes cell in
    Flatten.subtree_hex protos (Flatten.protos_root protos)
  in
  check_protocol ~name:"places" ~make:pla_cell
    ~compute:(fun cell run ->
      let hex = root_hex cell in
      search cell (fun d ->
          Store.Cached.replay run (fun p -> p.Codec.p_places)
            (Digest.string (d ^ rules_digest)) hex))
    ~save:(fun cell run key r ->
      let hex = root_hex cell in
      let evals =
        List.sort compare
          (List.map (fun (d, a) -> (Digest.string (d ^ rules_digest), a)) r.Anneal.r_evals)
      in
      ignore
        (Store.Cached.save run (lazy key)
           ~label:"places"
           ~places:(fun h -> if h = hex then evals else [])
           (lazy (Flatten.prototypes cell)) cell))
    ~uncached:(fun cell -> search cell (fun _ -> None))
    ~replayed:(fun cell r ->
      [ (root_hex cell, r.Anneal.r_stats.Anneal.st_computed = 0) ])
    ~canon:(fun r ->
      Printf.sprintf "%s %d %d" (Digest.to_hex r.Anneal.r_digest) r.Anneal.r_cost
        r.Anneal.r_initial_cost)

(* A fully replayed hierarchical check must build no prototype geometry
   — the reopen path of an edit loop depends on it.  Probe:
   [Flatten.seed_proto] refuses once any prototype array exists. *)
let test_replay_builds_no_geometry () =
  let mult () =
    (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ()).Rsg_mult.Layout_gen.whole
  in
  let probe what protos =
    match
      Flatten.seed_proto protos ~hash:(String.make 16 '\000') ~boxes:[||] ~labels:[||]
    with
    | () -> ()
    | exception Invalid_argument _ -> Alcotest.fail (what ^ " built prototype geometry")
  in
  let protos = Flatten.prototypes (mult ()) in
  let table =
    Codec.proto_table protos
      ~reports:(reports_of_hier (Drc.check_protos ~domains:2 protos))
      ~ercs:(fun hex ->
        List.filter_map
          (fun (l : Erc.level) ->
            if l.Erc.l_hash = hex then Some (erc_digest, l.Erc.l_verdict) else None)
          (Erc.check_protos ~domains:2 protos).Erc.r_levels)
  in
  let by_hex = Hashtbl.create 32 in
  Array.iter
    (fun (p : Codec.proto) -> Hashtbl.replace by_hex (Digest.to_hex p.Codec.p_hash) p)
    table;
  let replay field digest hex =
    Option.bind (Hashtbl.find_opt by_hex hex) (fun p -> List.assoc_opt digest (field p))
  in
  let protos = Flatten.prototypes (mult ()) in
  let d =
    Drc.check_protos ~domains:2
      ~cached:(replay (fun p -> p.Codec.p_reports) deck_digest)
      protos
  in
  Alcotest.(check int) "drc replays every level" (List.length d.Drc.h_levels) d.Drc.h_cached;
  probe "replayed drc" protos;
  let protos = Flatten.prototypes (mult ()) in
  let e =
    Erc.check_protos ~domains:2
      ~cached:(replay (fun p -> p.Codec.p_ercs) erc_digest)
      protos
  in
  Alcotest.(check int) "erc replays every level" (List.length e.Erc.r_levels) e.Erc.r_cached;
  probe "replayed erc" protos

let batch_jobs () =
  List.mapi
    (fun i (name, build) ->
      {
        Batch.j_name = Printf.sprintf "%02d-%s" i name;
        j_kind = name;
        j_key = Store.key ~design:name ~params:(string_of_int i) ();
        j_label = name;
        j_gen = build;
      })
    (families @ families)

let outcome_tag = function
  | Batch.Hit -> "hit"
  | Batch.Generated -> "gen"
  | Batch.Regenerated _ -> "regen"
  | Batch.Failed _ -> "failed"

let cif_of_results rs =
  List.map
    (fun r ->
      match r.Batch.r_cell with
      | Some c -> Cif.to_string c
      | None -> "<failed>")
    rs

let test_batch_hits_and_determinism () =
  let st = Store.open_ (temp_dir ()) in
  let jobs = batch_jobs () in
  let cold = Batch.run ~domains:2 ~store:st jobs in
  Alcotest.(check int) "all ran" (List.length jobs) (List.length cold);
  List.iter
    (fun r ->
      Alcotest.(check string)
        (r.Batch.r_job.Batch.j_name ^ " cold outcome")
        "gen"
        (outcome_tag r.Batch.r_outcome);
      Alcotest.(check bool)
        (r.Batch.r_job.Batch.j_name ^ " has boxes")
        true (r.Batch.r_boxes > 0))
    cold;
  (* manifest order is preserved *)
  Alcotest.(check (list string))
    "result order = manifest order"
    (List.map (fun j -> j.Batch.j_name) jobs)
    (List.map (fun r -> r.Batch.r_job.Batch.j_name) cold);
  let warm = Batch.run ~domains:2 ~store:st jobs in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (r.Batch.r_job.Batch.j_name ^ " warm outcome")
        "hit"
        (outcome_tag r.Batch.r_outcome))
    warm;
  Alcotest.(check (list string))
    "warm layouts identical to cold" (cif_of_results cold)
    (cif_of_results warm);
  (* any domain count produces the same outputs *)
  let d1 = Batch.run ~domains:1 ~store:st jobs in
  Alcotest.(check (list string))
    "domains=1 identical" (cif_of_results cold) (cif_of_results d1);
  ignore (Store.clear st)

let test_batch_corrupt_fallback () =
  let st = Store.open_ (temp_dir ()) in
  let jobs = batch_jobs () in
  let cold = Batch.run ~domains:1 ~store:st jobs in
  (* smash the first job's entry: flip a payload byte so the container
     still frames (a version mismatch would be a stale miss, not
     corruption) but the checksum fails *)
  let first = List.hd jobs in
  let path = Store.path_of st first.Batch.j_key in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let mid = 16 + ((Bytes.length b - 16) / 2) in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  let warm = Batch.run ~domains:2 ~store:st jobs in
  let r0 = List.hd warm in
  Alcotest.(check string) "first regenerated" "regen"
    (outcome_tag r0.Batch.r_outcome);
  (* fallback regeneration is box-for-box identical *)
  Alcotest.(check (list string))
    "fallback layouts identical" (cif_of_results cold) (cif_of_results warm);
  (match (r0.Batch.r_cell, (List.hd cold).Batch.r_cell) with
  | Some a, Some b ->
    Alcotest.(check bool) "fallback flat identical" true
      (flat_equal
         (Flatten.protos_flat (Flatten.prototypes a))
         (Flatten.protos_flat (Flatten.prototypes b)))
  | _ -> Alcotest.fail "missing cell");
  (* and the re-save healed the entry *)
  match Store.find st first.Batch.j_key with
  | Store.Hit _ -> ignore (Store.clear st)
  | _ -> Alcotest.fail "entry not healed after regeneration"

let () =
  Alcotest.run "rsg_store"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip all families" `Quick
            test_roundtrip_families;
          Alcotest.test_case "roundtrip without flat" `Quick
            test_roundtrip_no_flat;
          Alcotest.test_case "corruption detected" `Quick
            test_corruption_detected;
          Alcotest.test_case "typed error kinds" `Quick test_error_kinds;
          qcheck_roundtrip;
        ] );
      ( "key",
        [ Alcotest.test_case "sensitivity" `Quick test_key_sensitivity ] );
      ( "store",
        [
          Alcotest.test_case "lookup lifecycle" `Quick test_store_lookup;
          Alcotest.test_case "stats and gc" `Quick test_store_stats_gc;
        ]
        @ stale_cases
        @ [
            Alcotest.test_case "orphaned temp sweep" `Quick test_tmp_sweep;
            Alcotest.test_case "removal races" `Quick test_removal_races;
            Alcotest.test_case "latest pointer and harvest" `Quick
              test_latest_and_harvest;
            Alcotest.test_case "garbled pointer is a clean miss" `Quick
              test_bad_pointer;
            Alcotest.test_case "advisory lock" `Quick test_with_lock;
          ] );
      ( "protos",
        [
          Alcotest.test_case "table roundtrip and replay" `Quick
            test_proto_roundtrip;
          Alcotest.test_case "erc verdicts roundtrip" `Quick
            test_ercs_roundtrip;
          Alcotest.test_case "place evals roundtrip" `Quick
            test_places_roundtrip;
          Alcotest.test_case "sections accounting" `Quick
            test_sections_accounting;
          Alcotest.test_case "incremental agreement" `Quick
            test_incremental_agreement;
          Alcotest.test_case "seeded recomposition" `Quick
            test_seed_recompose;
          qcheck_edit_dirtiness;
        ] );
      ( "cached",
        [
          Alcotest.test_case "drc levels" `Quick test_cached_drc;
          Alcotest.test_case "erc verdicts" `Quick test_cached_erc;
          Alcotest.test_case "place evaluations" `Quick test_cached_places;
          Alcotest.test_case "full replay builds no geometry" `Quick
            test_replay_builds_no_geometry;
        ] );
      ( "batch",
        [
          Alcotest.test_case "hits and determinism" `Quick
            test_batch_hits_and_determinism;
          Alcotest.test_case "corrupt fallback" `Quick
            test_batch_corrupt_fallback;
        ] );
    ]
