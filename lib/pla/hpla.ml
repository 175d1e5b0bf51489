open Rsg_geom
open Rsg_layout
open Rsg_core

type comparison = {
  hpla_instances : int;
  hpla_declarations : int;
  hpla_duplicates : int;
  rsg_instances : int;
  rsg_declarations : int;
  rsg_duplicates : int;
}

let sq = Pla_cells.square

(* the 2x2x2 PLA as one labelled assembly cell *)
let assembled_sample () =
  (* fresh leaf cells via the minimal assemblies, but assembled here
     into a full 2-input / 2-output / 2-term PLA *)
  let tmp_sample, _ = Pla_cells.build () in
  let cell name = Db.find_exn tmp_sample.Sample.db name in
  let asq = cell Pla_cells.and_sq
  and osq = cell Pla_cells.or_sq
  and cao = cell Pla_cells.connect_ao
  and ib = cell Pla_cells.inbuf
  and ob = cell Pla_cells.outbuf
  and ac = cell Pla_cells.and_cross
  and oc = cell Pla_cells.or_cross in
  let pla = Cell.create "hpla-sample" in
  let at x y c = ignore (Cell.add_instance pla ~at:(Vec.make x y) c) in
  (* row-major placement: and plane (4 cols), connect column, or plane *)
  for r = 0 to 1 do
    for c = 0 to 3 do
      at (sq * c) (sq * r) asq
    done;
    at (sq * 4) (sq * r) cao;
    for k = 0 to 1 do
      at (sq * (5 + k)) (sq * r) osq
    done
  done;
  (* buffers *)
  at 0 (2 * sq) ib;
  at (2 * sq) (2 * sq) ib;
  at (5 * sq) (2 * sq) ob;
  at (6 * sq) (2 * sq) ob;
  (* a representative personality *)
  let off = Pla_cells.cross_offset in
  at off off ac;
  at ((3 * sq) + off) (sq + off) ac;
  at ((5 * sq) + off) off oc;
  at ((6 * sq) + off) (sq + off) oc;
  (* labels on EVERY adjacency, as HPLA's relocation scheme read them *)
  let label i x y = Cell.add_label pla (string_of_int i) (Vec.make x y) in
  for r = 0 to 1 do
    let ym = (sq * r) + (sq / 2) in
    for c = 1 to 3 do
      label 1 (sq * c) ym
    done;
    label 1 (4 * sq) ym;
    label 1 (5 * sq) ym;
    label 1 (6 * sq) ym
  done;
  for c = 0 to 3 do
    label 2 ((sq * c) + (sq / 2)) sq
  done;
  label 2 ((5 * sq) + (sq / 2)) sq;
  label 2 ((6 * sq) + (sq / 2)) sq;
  label 1 (sq / 2) (2 * sq);
  label 1 ((2 * sq) + (sq / 2)) (2 * sq);
  label 1 ((5 * sq) + (sq / 2)) (2 * sq);
  label 1 ((6 * sq) + (sq / 2)) (2 * sq);
  label 1 (off + 2) (off + 2);
  label 1 ((3 * sq) + off + 2) (sq + off + 2);
  label 1 ((5 * sq) + off + 2) (off + 2);
  label 1 ((6 * sq) + off + 2) (sq + off + 2);
  pla

let extract () = Sample.of_assemblies [ assembled_sample () ]

let compare_samples () =
  let hpla_sample = assembled_sample () in
  let _, hpla_decls = Sample.of_assemblies [ hpla_sample ] in
  let rsg_assemblies = Pla_cells.assemblies () in
  let _, rsg_decls = Sample.of_assemblies rsg_assemblies in
  let count_dup ds = List.length (List.filter (fun d -> d.Sample.d_duplicate) ds) in
  { hpla_instances = List.length (Cell.instances hpla_sample);
    hpla_declarations = List.length hpla_decls;
    hpla_duplicates = count_dup hpla_decls;
    rsg_instances =
      List.fold_left
        (fun acc c -> acc + List.length (Cell.instances c))
        0 rsg_assemblies;
    rsg_declarations = List.length rsg_decls;
    rsg_duplicates = count_dup rsg_decls }

let generates_same_pla tt =
  let from_hpla =
    let s, _ = extract () in
    Gen.generate ~sample:s tt
  in
  let from_minimal = Gen.generate tt in
  Cif.roundtrip_equal from_hpla.Gen.cell from_minimal.Gen.cell
