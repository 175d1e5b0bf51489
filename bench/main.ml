(* The experiment harness: regenerates every figure- and table-shaped
   artifact of the thesis (see DESIGN.md for the index and
   EXPERIMENTS.md for paper-vs-measured).  Run with

     dune exec bench/main.exe            -- all sections
     dune exec bench/main.exe -- E6 E11  -- selected sections
*)

open Rsg_geom
open Rsg_layout
open Rsg_core
open Bench_util

(* ------------------------------------------------------------------ *)
(* E2 (Figure 2.5): coordinate mapping of the four basic rotations.    *)

let e2 () =
  section "E2" "Figure 2.5: coordinate mapping for the 4 basic rotations";
  row "%-12s %-14s %-14s" "orientation" "x image" "y image";
  let show (v : Vec.t) =
    let part c name =
      if c = 0 then ""
      else if c = 1 then name
      else if c = -1 then "-" ^ name
      else assert false
    in
    let s = part v.Vec.x "x" ^ part v.Vec.y "y" in
    if s = "" then "0" else s
  in
  List.iter
    (fun o ->
      let ix = Orient.apply o (Vec.make 1 0) in
      let iy = Orient.apply o (Vec.make 0 1) in
      (* columns of the matrix: where x and y map to *)
      row "%-12s %-14s %-14s" (Orient.name o)
        (show (Vec.make ix.Vec.x iy.Vec.x) ^ " -> x")
        (show (Vec.make ix.Vec.y iy.Vec.y) ^ " -> y"))
    Orient.rotations;
  note "North (x,y); South (-x,-y); East (y,-x); West (-y,x)"

(* ------------------------------------------------------------------ *)
(* E3 (section 2.6): compact orientation representation vs matrices.   *)

let e3 () =
  section "E3" "section 2.6: (rot, refl) representation vs 2x2 matrices";
  let orients = Array.of_list Orient.all in
  let mats = Array.map Matrix_orient.of_orient orients in
  let vecs = Array.init 64 (fun i -> Vec.make (i - 32) (31 - i)) in
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"orient"
      [ Test.make ~name:"compact-compose"
          (Staged.stage (fun () ->
               let acc = ref Orient.identity in
               for i = 0 to 63 do
                 acc := Orient.compose orients.(i land 7) !acc
               done;
               !acc));
        Test.make ~name:"matrix-compose"
          (Staged.stage (fun () ->
               let acc = ref Matrix_orient.identity in
               for i = 0 to 63 do
                 acc := Matrix_orient.compose mats.(i land 7) !acc
               done;
               !acc));
        Test.make ~name:"compact-apply"
          (Staged.stage (fun () ->
               let acc = ref 0 in
               for i = 0 to 63 do
                 acc := !acc + (Orient.apply orients.(i land 7) vecs.(i)).Vec.x
               done;
               !acc));
        Test.make ~name:"matrix-apply"
          (Staged.stage (fun () ->
               let acc = ref 0 in
               for i = 0 to 63 do
                 acc := !acc + (Matrix_orient.apply mats.(i land 7) vecs.(i)).Vec.x
               done;
               !acc));
        Test.make ~name:"compact-invert"
          (Staged.stage (fun () ->
               let acc = ref 0 in
               for i = 0 to 63 do
                 acc := !acc + Orient.to_index (Orient.invert orients.(i land 7))
               done;
               !acc));
        Test.make ~name:"matrix-invert"
          (Staged.stage (fun () ->
               let acc = ref 0 in
               for i = 0 to 63 do
                 acc := !acc + (Matrix_orient.invert mats.(i land 7)).Matrix_orient.a
               done;
               !acc)) ]
  in
  row "%-32s %12s" "operation (64x per run)" "ns/run";
  List.iter (fun (name, ns) -> row "%-32s %12.1f" name ns) (ns_per_run test);
  note "matrices 'require storage and manipulation of much more information'";
  row "storage: compact = 2 words, matrix = 4 words"

(* ------------------------------------------------------------------ *)
(* E15 (Figures 2.3/2.4): interface families and inheritance.          *)

let e15 () =
  section "E15" "Figures 2.3/2.4: interface families and inheritance";
  let leaf name =
    let c = Cell.create name in
    Cell.add_box c Layer.Metal (Box.of_size ~origin:Vec.zero ~width:10 ~height:10);
    c
  in
  let a = leaf "A" and b = leaf "B" in
  let tbl = Interface_table.create () in
  (* the Figure 2.3 family: two different legal interfaces for (A, B) *)
  Interface_table.declare tbl ~from:"A" ~into:"B" ~index:1
    (Interface.make (Vec.make 12 0) Orient.west);
  Interface_table.declare tbl ~from:"A" ~into:"B" ~index:2
    (Interface.make (Vec.make 0 12) Orient.south);
  row "family of interfaces between A and B: indices %s"
    (String.concat ", "
       (List.map string_of_int (Interface_table.indices tbl ~from:"A" ~into:"B")));
  (* Figure 2.4: macrocells C and D inherit an interface from their
     subcells without any new layout *)
  let na = Graph.mk_instance a and nb = Graph.mk_instance b in
  let c_cell = Expand.mk_cell tbl "C" na in
  let d_cell = Expand.mk_cell tbl "D" nb in
  let inner = Interface_table.find_exn tbl ~from:"A" ~into:"B" ~index:1 in
  let inherited =
    Interface.inherit_interface ~inner
      ~a_in_c:(Option.get na.Graph.placement)
      ~b_in_d:(Option.get nb.Graph.placement)
  in
  Interface_table.declare tbl ~from:"C" ~into:"D" ~index:1 inherited;
  let nc = Graph.mk_instance c_cell and nd = Graph.mk_instance d_cell in
  Graph.connect nc nd 1;
  let top = Expand.mk_cell tbl "top" nc in
  let ok =
    match Cell.instances top with
    | [ _; id_ ] ->
      Transform.equal (Cell.transform_of_instance id_)
        (Interface.place ~a:Transform.identity inner)
    | _ -> false
  in
  row "inherited Icd = %a" Interface.pp inherited;
  row "macrocell placement equals subcell-level placement: %b" ok;
  note "new interfaces computed 'with no need for additional layout'"

(* ------------------------------------------------------------------ *)
(* E4 (Figures 3.2/3.3): spanning-tree sufficiency.                    *)

let e4 () =
  section "E4" "Figure 3.3: interfaces in the sample vs adjacencies in the layout";
  row "%-10s %14s %16s %18s" "array" "tree edges" "adjacent pairs"
    "sample interfaces";
  List.iter
    (fun k ->
      let tree = (k * k) - 1 in
      let adjacent = 2 * k * (k - 1) in
      row "%-10s %14d %16d %18d"
        (Printf.sprintf "%dx%d" k k)
        tree adjacent 2)
    [ 2; 4; 8; 16; 32 ];
  note "the connectivity graph need only be a spanning tree; interfaces";
  note "not on tree edges 'need not be present in the sample layout'"

(* ------------------------------------------------------------------ *)
(* E16 (Figures 3.5-3.7): same-celltype ambiguity, directed edges.     *)

let e16 () =
  section "E16" "Figures 3.5-3.7: directed edges disambiguate self-interfaces";
  let tbl = Interface_table.create () in
  Interface_table.declare tbl ~from:"A" ~into:"A" ~index:1
    (Interface.make (Vec.make 10 3) Orient.east);
  (match
     Expand.both_readings tbl ~placed:Transform.identity ~from:"A" ~into:"A"
       ~index:1
   with
  | Some (fwd, rev) ->
    row "I'aa reading:      neighbour at %a" Transform.pp fwd;
    row "(I'aa)^-1 reading: neighbour at %a" Transform.pp rev;
    row "readings differ: %b -> undirected edges are ambiguous"
      (not (Transform.equal fwd rev))
  | None -> row "missing interface?!");
  note "'the final layout depend[ed] on how the graph was traversed' until";
  note "edges between same-celltype nodes were given a direction"

(* ------------------------------------------------------------------ *)
(* E5 (section 1.2.2): RSG minimal sample vs HPLA assembled sample.    *)

let e5 () =
  section "E5" "section 1.2.2: sample economics vs HPLA";
  let c = Rsg_pla.Hpla.compare_samples () in
  row "%-26s %12s %12s" "" "HPLA 2x2x2" "RSG minimal";
  row "%-26s %12d %12d" "sample instances" c.Rsg_pla.Hpla.hpla_instances
    c.Rsg_pla.Hpla.rsg_instances;
  row "%-26s %12d %12d" "interface examples"
    c.Rsg_pla.Hpla.hpla_declarations c.Rsg_pla.Hpla.rsg_declarations;
  row "%-26s %12d %12d" "redundant examples" c.Rsg_pla.Hpla.hpla_duplicates
    c.Rsg_pla.Hpla.rsg_duplicates;
  row "identical generated PLA from either sample: %b"
    (Rsg_pla.Hpla.generates_same_pla
       (Rsg_pla.Truth_table.of_strings [ ("10", "10"); ("01", "01") ]));
  note "HPLA's sample 'contained 2 (identical) instances of the and-sq";
  note "connect-ao interface when only one was required'"

(* ------------------------------------------------------------------ *)
(* E6 (Figures 5.1/5.2): pipelining sweep, simulation-verified.        *)

let e6 () =
  section "E6" "Figure 5.2: degree of pipelining (m = n = 8, verified by simulation)";
  row "%-14s %9s %8s %11s %8s %7s %9s" "pipelining" "registers" "latency"
    "input-skew" "deskew" "depth" "verified";
  let verify t =
    List.for_all
      (fun (a, b) -> Rsg_mult.Multiplier.multiply t a b = a * b)
      [ (127, 127); (-128, -128); (127, -128); (-1, 1); (99, -55) ]
  in
  List.iter
    (fun beta ->
      let t = Rsg_mult.Multiplier.build ?beta ~m:8 ~n:8 () in
      let s = Rsg_mult.Multiplier.stats t in
      let name =
        match beta with
        | None -> "combinational"
        | Some 1 -> "bit-systolic"
        | Some b -> Printf.sprintf "beta=%d" b
      in
      row "%-14s %9d %8d %11d %8d %7d %9b" name s.Rsg_mult.Multiplier.registers
        s.Rsg_mult.Multiplier.latency_cycles s.Rsg_mult.Multiplier.input_skew
        s.Rsg_mult.Multiplier.output_deskew
        s.Rsg_mult.Multiplier.max_comb_depth (verify t))
    [ None; Some 4; Some 2; Some 1 ];
  note "fig 5.2a: bit-systolic = 'at most one full adder combinational delay";
  note "between any two registers'; fig 5.2b: at most two"

(* ------------------------------------------------------------------ *)
(* E7 (section 4.5): generation time and the three-phase split.        *)

let e7 () =
  section "E7" "section 4.5: generation time vs multiplier size";
  row "%-8s %10s %10s %10s %10s %10s" "size" "sample(s)" "execute(s)"
    "write(s)" "total(s)" "CIF bytes";
  List.iter
    (fun size ->
      let phases, _ = Rsg_mult.Design_file.timed_generate ~xsize:size ~ysize:size in
      let open Rsg_mult.Design_file in
      let total = phases.t_read_sample +. phases.t_execute +. phases.t_write in
      row "%-8s %10.4f %10.4f %10.4f %10.4f %10d"
        (Printf.sprintf "%dx%d" size size)
        phases.t_read_sample phases.t_execute phases.t_write total
        phases.cif_bytes)
    [ 4; 8; 16; 32 ];
  note "'a 32x32 Baugh-Wooley multiplier is generated in 5 seconds on a";
  note "DEC-2060'; execution time 'divided into roughly three equal parts'"

(* ------------------------------------------------------------------ *)
(* E8 (section 4.5): hash tables for interface/environment lookup.     *)

let e8 () =
  section "E8" "section 4.5: hash-table lookup vs association lists";
  (* an interface table the size of the multiplier sample's *)
  let tbl = Interface_table.create () in
  let names = Array.init 24 (fun i -> Printf.sprintf "cell%d" i) in
  Array.iteri
    (fun i a ->
      Interface_table.declare tbl ~from:a ~into:names.((i + 1) mod 24) ~index:1
        (Interface.make (Vec.make i 0) Orient.north))
    names;
  let assoc =
    Interface_table.fold
      (fun ~from ~into ~index i acc -> ((from, into, index), i) :: acc)
      tbl []
  in
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"lookup"
      [ Test.make ~name:"interface-hash"
          (Staged.stage (fun () ->
               for i = 0 to 23 do
                 ignore
                   (Interface_table.find tbl ~from:names.(i)
                      ~into:names.((i + 1) mod 24) ~index:1)
               done));
        Test.make ~name:"interface-assoc"
          (Staged.stage (fun () ->
               for i = 0 to 23 do
                 ignore
                   (List.assoc_opt (names.(i), names.((i + 1) mod 24), 1) assoc)
               done)) ]
  in
  row "%-32s %12s" "operation (24 lookups per run)" "ns/run";
  List.iter (fun (name, ns) -> row "%-32s %12.1f" name ns) (ns_per_run test);
  note "'the interface table, the cell definition table and even the";
  note "interpreter environment frames are all implemented with hash tables'"

(* ------------------------------------------------------------------ *)
(* E17 (Appendices B/C): interpreted design file vs native generator.  *)

let e17 () =
  section "E17" "Appendix B/C: the design file reproduces the native generator";
  List.iter
    (fun size ->
      let native = Rsg_mult.Layout_gen.generate ~xsize:size ~ysize:size () in
      let _, interp = Rsg_mult.Design_file.generate ~xsize:size ~ysize:size () in
      let sn = Flatten.stats native.Rsg_mult.Layout_gen.whole in
      let si = Flatten.stats interp in
      row "%dx%d: %d instances each, geometry identical: %b" size size
        sn.Flatten.n_instances
        (sn.Flatten.n_instances = si.Flatten.n_instances
        && Cif.roundtrip_equal native.Rsg_mult.Layout_gen.whole interp))
    [ 4; 8 ];
  note "fig 5.4/5.5: the design file + sample layout define the multiplier"

(* ------------------------------------------------------------------ *)
(* E1 (Figure 1.2): generality vs efficiency.                          *)

let e1 () =
  section "E1" "Figure 1.2: canonical architecture vs RSG vs specialised generator";
  row "%-8s %-22s %12s %10s %8s %14s" "size" "generator" "area" "area-ratio"
    "cyc/mul" "silicon-time";
  List.iter
    (fun size ->
      let c = Rsg_baseline.Canonical.generate ~m:size ~n:size in
      let g = Rsg_mult.Layout_gen.generate ~xsize:size ~ysize:size () in
      let s = Rsg_baseline.Specialized.generate ~xsize:size ~ysize:size in
      let rsg_area =
        match Cell.bbox g.Rsg_mult.Layout_gen.array_cell with
        | Some b -> Box.area b
        | None -> 0
      in
      let print name area cyc =
        row "%-8s %-22s %12d %9.1fx %8d %14d"
          (Printf.sprintf "%dx%d" size size)
          name area
          (float_of_int area /. float_of_int s.Rsg_baseline.Specialized.area)
          cyc (area * cyc)
      in
      print "canonical (Macpitts)" c.Rsg_baseline.Canonical.area
        c.Rsg_baseline.Canonical.cycles_per_multiply;
      print "RSG array" rsg_area 1;
      print "specialised" s.Rsg_baseline.Specialized.area 1)
    [ 8; 16 ];
  note "'Early versions of Macpitts required about 5 times the area than";
  note "would be the case for layouts generated by hand' — and pay a";
  note "further n+1 cycles per multiply in silicon-time"

(* ------------------------------------------------------------------ *)
(* E9 (Figures 6.1/6.2): pitch tradeoffs under different weights.      *)

let e9 () =
  section "E9" "Figures 6.1/6.2: pitch tradeoff under replication-weighted costs";
  let cell () =
    let c = Cell.create "tradeoff" in
    Cell.add_box c Layer.Metal (Box.make ~xmin:8 ~ymin:6 ~xmax:12 ~ymax:8);
    Cell.add_box c Layer.Metal (Box.make ~xmin:0 ~ymin:0 ~xmax:4 ~ymax:2);
    c
  in
  row "%-22s %12s %12s" "cost weights (n, m)" "pitch 1" "pitch 2";
  List.iter
    (fun (w1, w2) ->
      let specs =
        [ { Rsg_compact.Leaf.p_index = 1; p_dx = 16; p_dy = 0; p_weight = w1 };
          { Rsg_compact.Leaf.p_index = 2; p_dx = 14; p_dy = 6; p_weight = w2 } ]
      in
      let r = Rsg_compact.Leaf.compact Rsg_compact.Rules.default (cell ()) ~pitches:specs in
      match r.Rsg_compact.Leaf.lp_pitches with
      | Some ps ->
        row "%-22s %12.1f %12.1f"
          (Printf.sprintf "w1=%d w2=%d" w1 w2)
          (List.assoc 1 ps) (List.assoc 2 ps)
      | None -> row "w1=%d w2=%d: LP failed" w1 w2)
    [ (1, 1); (1, 100); (100, 1); (10, 10) ];
  note "'lambda_a can be minimized to a greater extent at the cost of";
  note "increasing lambda_b and vice versa' — weights follow replication"

(* ------------------------------------------------------------------ *)
(* E10 (section 6.1): leaf-cell vs flat compaction cost.               *)

let e10 () =
  section "E10" "section 6.1: leaf-cell vs flat compaction cost";
  let cell () =
    let c = Cell.create "bit" in
    Cell.add_box c Layer.Metal (Box.make ~xmin:0 ~ymin:0 ~xmax:40 ~ymax:4);
    Cell.add_box c Layer.Metal (Box.make ~xmin:0 ~ymin:28 ~xmax:40 ~ymax:32);
    Cell.add_box c Layer.Diffusion (Box.make ~xmin:6 ~ymin:8 ~xmax:16 ~ymax:24);
    Cell.add_box c Layer.Poly (Box.make ~xmin:2 ~ymin:14 ~xmax:20 ~ymax:17);
    Cell.add_box c Layer.Diffusion (Box.make ~xmin:26 ~ymin:8 ~xmax:34 ~ymax:24);
    c
  in
  let spec = { Rsg_compact.Leaf.p_index = 1; p_dx = 44; p_dy = 0; p_weight = 100 } in
  let leaf_time =
    seconds (fun () ->
        Rsg_compact.Leaf.compact ~use_simplex:false Rsg_compact.Rules.default
          (cell ()) ~pitches:[ spec ])
  in
  let leaf =
    Rsg_compact.Leaf.compact ~use_simplex:false Rsg_compact.Rules.default
      (cell ()) ~pitches:[ spec ]
  in
  row "%-18s %14s %12s" "problem" "constraints" "seconds";
  row "%-18s %14d %12.5f" "leaf cell (once)" leaf.Rsg_compact.Leaf.n_constraints
    leaf_time;
  let items = Rsg_compact.Scanline.items_of_cell (cell ()) in
  List.iter
    (fun n ->
      let flat =
        Array.concat
          (List.init n (fun k ->
               Array.map
                 (fun (it : Rsg_compact.Scanline.item) ->
                   { it with
                     Rsg_compact.Scanline.box =
                       Box.translate (Vec.make (44 * k) 0)
                         it.Rsg_compact.Scanline.box })
                 items))
      in
      let t =
        seconds (fun () ->
            Rsg_compact.Compactor.compact Rsg_compact.Rules.default flat)
      in
      let r = Rsg_compact.Compactor.compact Rsg_compact.Rules.default flat in
      row "%-18s %14d %12.5f"
        (Printf.sprintf "flat, %d copies" n)
        r.Rsg_compact.Compactor.n_constraints t)
    [ 4; 16; 64 ];
  note "'the compaction effort is not duplicated over the various";
  note "replication factors ... orders of magnitude improvements'"

(* ------------------------------------------------------------------ *)
(* E11 (section 6.4.2): Bellman-Ford edge ordering.                    *)

let e11 () =
  section "E11" "section 6.4.2: Bellman-Ford relaxation vs edge order";
  let build n =
    let g = Rsg_compact.Cgraph.create () in
    let v =
      Array.init n (fun i -> Rsg_compact.Cgraph.fresh_var g ~init:(10 * i) ())
    in
    Array.iter
      (fun vi -> Rsg_compact.Cgraph.add_ge g ~from:Rsg_compact.Cgraph.origin ~to_:vi ~gap:0)
      v;
    for i = 0 to n - 2 do
      Rsg_compact.Cgraph.add_ge g ~from:v.(i) ~to_:v.(i + 1) ~gap:4
    done;
    g
  in
  row "%-10s %-18s %8s %12s" "chain" "edge order" "passes" "relaxations";
  List.iter
    (fun n ->
      List.iter
        (fun (name, order) ->
          let r = Rsg_compact.Bellman.solve ~order (build n) in
          row "%-10d %-18s %8d %12d" n name r.Rsg_compact.Bellman.passes
            r.Rsg_compact.Bellman.relaxations)
        [ ("sorted", Rsg_compact.Bellman.Sorted_by_abscissa);
          ("insertion", Rsg_compact.Bellman.Insertion);
          ("reverse-sorted", Rsg_compact.Bellman.Reverse_sorted) ])
    [ 50; 200 ];
  note "'exactly one relaxation step is required instead of the |E| ...";
  note "required in the worst case' when edges are traversed sorted";
  row "";
  row "worklist vs fixed-pass sweep on compactor constraint graphs";
  row "%-12s %8s | %10s %10s %7s %5s" "layout" "edges" "fixed-scan"
    "work-scan" "saved" "same";
  List.iter
    (fun (name, mk) ->
      let items = Rsg_compact.Scanline.items_of_cell (mk ()) in
      let gen =
        Rsg_compact.Scanline.generate Rsg_compact.Rules.default
          Rsg_compact.Scanline.Visibility items
      in
      let w = Rsg_compact.Bellman.solve gen.Rsg_compact.Scanline.graph in
      let f = Rsg_compact.Bellman.solve_fixed gen.Rsg_compact.Scanline.graph in
      row "%-12s %8d | %10d %10d %6.0f%% %5b" name
        (Rsg_compact.Cgraph.n_constraints gen.Rsg_compact.Scanline.graph)
        f.Rsg_compact.Bellman.scans w.Rsg_compact.Bellman.scans
        (100.0
        *. float_of_int (f.Rsg_compact.Bellman.scans - w.Rsg_compact.Bellman.scans)
        /. float_of_int (max f.Rsg_compact.Bellman.scans 1))
        (w.Rsg_compact.Bellman.values = f.Rsg_compact.Bellman.values);
      json_int (name ^ ".edges")
        (Rsg_compact.Cgraph.n_constraints gen.Rsg_compact.Scanline.graph);
      json_int (name ^ ".fixed_scans") f.Rsg_compact.Bellman.scans;
      json_int (name ^ ".worklist_scans") w.Rsg_compact.Bellman.scans;
      json_bool (name ^ ".identical")
        (w.Rsg_compact.Bellman.values = f.Rsg_compact.Bellman.values))
    [ ("mult 8x8",
       fun () ->
         (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
           .Rsg_mult.Layout_gen.whole);
      ("pla 8-term",
       fun () ->
         (Rsg_pla.Gen.generate (Rsg_pla.Gen.minterm_table 3)).Rsg_pla.Gen.cell);
      ("ram 32x8",
       fun () ->
         (Rsg_ram.Ram_gen.generate ~words:32 ~bits:8 ()).Rsg_ram.Ram_gen.cell)
    ];
  note "the worklist rescans only out-edges of moved variables, so its";
  note "edge examinations drop while the least solution is identical"

(* ------------------------------------------------------------------ *)
(* E12 (Figure 6.8): jogs under leftmost packing vs slack spread.      *)

let e12 () =
  section "E12" "Figure 6.8: leftmost packing worsens jogs; slack spread repairs";
  let wire () =
    [| { Rsg_compact.Scanline.layer = Layer.Metal;
         box = Box.make ~xmin:0 ~ymin:0 ~xmax:4 ~ymax:2 };
       { Rsg_compact.Scanline.layer = Layer.Metal;
         box = Box.make ~xmin:10 ~ymin:0 ~xmax:13 ~ymax:2 };
       { Rsg_compact.Scanline.layer = Layer.Metal;
         box = Box.make ~xmin:10 ~ymin:2 ~xmax:13 ~ymax:4 };
       { Rsg_compact.Scanline.layer = Layer.Metal;
         box = Box.make ~xmin:10 ~ymin:4 ~xmax:13 ~ymax:6 } |]
  in
  let packed = Rsg_compact.Compactor.compact Rsg_compact.Rules.default (wire ()) in
  let eased =
    Rsg_compact.Compactor.compact ~distribute_slack:true
      Rsg_compact.Rules.default (wire ())
  in
  row "%-22s %8s %8s" "placement" "width" "jogs";
  row "%-22s %8d %8d" "input" 13 (Rsg_compact.Compactor.jog_metric (wire ()));
  row "%-22s %8d %8d" "leftmost (magnet)"
    packed.Rsg_compact.Compactor.width_after
    (Rsg_compact.Compactor.jog_metric packed.Rsg_compact.Compactor.items);
  row "%-22s %8d %8d" "slack (rubber band)"
    eased.Rsg_compact.Compactor.width_after
    (Rsg_compact.Compactor.jog_metric eased.Rsg_compact.Compactor.items);
  note "'although the algorithm minimizes the longest path it can actually";
  note "increase the length of other paths' — the fig 6.8 jog"

(* ------------------------------------------------------------------ *)
(* E13 (Figure 6.9): contact expansion.                                *)

let e13 () =
  section "E13" "Figure 6.9: synthetic contact layer expanded to cuts";
  row "%-14s %8s" "contact size" "cuts";
  List.iter
    (fun (w, h) ->
      let cuts =
        Rsg_compact.Expand_contact.cuts_for Rsg_compact.Rules.default
          (Box.of_size ~origin:Vec.zero ~width:w ~height:h)
      in
      row "%-14s %8d" (Printf.sprintf "%dx%d" w h) (List.length cuts))
    [ (4, 4); (8, 4); (12, 4); (8, 8); (12, 8); (16, 16) ];
  note "'the contact layer is converted into actual lithographic mask";
  note "layers which may contain one or several contact cuts'"

(* ------------------------------------------------------------------ *)
(* E14 (Figures 6.4-6.7): constraint generation quality.               *)

let e14 () =
  section "E14" "Figures 6.4-6.7: naive vs visibility constraint generation";
  row "%-12s %16s %16s %14s %14s" "fragments" "naive width"
    "visibility width" "naive cons" "vis cons";
  List.iter
    (fun n ->
      let fragments =
        Array.init n (fun i ->
            { Rsg_compact.Scanline.layer = Layer.Diffusion;
              box = Box.of_size ~origin:(Vec.make (4 * i) 0) ~width:4 ~height:3 })
      in
      let naive =
        Rsg_compact.Compactor.compact ~method_:Rsg_compact.Scanline.Naive
          Rsg_compact.Rules.default fragments
      in
      let vis = Rsg_compact.Compactor.compact Rsg_compact.Rules.default fragments in
      row "%-12d %16d %16d %14d %14d" n
        naive.Rsg_compact.Compactor.width_after
        vis.Rsg_compact.Compactor.width_after
        naive.Rsg_compact.Compactor.n_constraints
        vis.Rsg_compact.Compactor.n_constraints)
    [ 2; 4; 8; 16 ];
  note "'indiscriminately generating constraints ... would force the x size";
  note "of the final layout [to] be at least n*lambda' (fig 6.5)"

(* ------------------------------------------------------------------ *)
(* E18 (section 1.2.3): folded PLAs — the "more complex PLAs" claim.   *)

let e18 () =
  section "E18" "section 1.2.3: folded PLAs (columns shared by disjoint inputs)";
  row "%-26s %8s %8s %10s %8s" "personality" "inputs" "slots" "width"
    "verified";
  let cases =
    [ ("fully foldable (4 in)",
       Rsg_pla.Truth_table.of_strings
         [ ("10--", "10"); ("01--", "01"); ("--11", "11"); ("--01", "10") ]);
      ("interleaved (2 in)",
       Rsg_pla.Truth_table.of_strings
         [ ("1-", "1"); ("-1", "1"); ("0-", "1"); ("-0", "1") ]);
      ("unfoldable (3 in)",
       Rsg_pla.Truth_table.of_strings [ ("111", "1"); ("000", "1") ]) ]
  in
  List.iter
    (fun (name, tt) ->
      let folded = Rsg_pla.Folding.generate tt in
      let straight = Rsg_pla.Gen.generate tt in
      let width c =
        match (Flatten.stats c).Flatten.bbox with
        | Some b -> Box.width b
        | None -> 0
      in
      row "%-26s %8d %8d %5d->%-4d %8b" name tt.Rsg_pla.Truth_table.n_inputs
        (Rsg_pla.Folding.n_slots folded.Rsg_pla.Folding.fold)
        (width straight.Rsg_pla.Gen.cell)
        (width folded.Rsg_pla.Folding.cell)
        (Rsg_pla.Folding.verify folded))
    cases;
  note "the RSG 'can also generate more complex PLAs such as PLAs with";
  note "folded rows or columns', beyond HPLA's fixed architecture"

(* ------------------------------------------------------------------ *)
(* E19 (reference [18]): retiming, the transformation behind Ch. 5.    *)

let e19 () =
  section "E19" "reference [18]: Leiserson-Saxe retiming (3-tap correlator)";
  let g =
    { Rsg_mult.Retime.n = 8;
      delay = [| 0; 3; 3; 3; 3; 7; 7; 7 |];
      edges =
        [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (1, 5, 0); (2, 6, 0);
          (3, 7, 0); (4, 7, 0); (7, 6, 0); (6, 5, 0); (5, 0, 0) ] }
  in
  let c0 = Rsg_mult.Retime.clock_period g in
  let _c, r = Rsg_mult.Retime.min_period g in
  let g' = Rsg_mult.Retime.apply g r in
  row "%-28s %10s %12s" "" "period" "registers";
  row "%-28s %10d %12d" "unretimed correlator" c0
    (Rsg_mult.Retime.total_registers g);
  row "%-28s %10d %12d" "optimally retimed" (Rsg_mult.Retime.clock_period g')
    (Rsg_mult.Retime.total_registers g');
  row "retiming lags: %s"
    (String.concat " " (Array.to_list (Array.map string_of_int r)));
  note "'Using retiming transformations [18], the multiplier can be";
  note "pipelined to any degree' — canonical result: 24 -> 13"

(* ------------------------------------------------------------------ *)
(* E20 (introduction): the full regular-structure quartet.             *)

let e20 () =
  section "E20" "introduction: RAMs, ROMs, PLAs and multipliers, one framework";
  row "%-22s %12s %10s %10s" "structure" "instances" "area" "verified";
  let census cell verified =
    let s = Flatten.stats cell in
    let area = match s.Flatten.bbox with Some b -> Box.area b | None -> 0 in
    row "%-22s %12d %10d %10b" cell.Cell.cname s.Flatten.n_instances area
      verified
  in
  let mult = Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 () in
  let mult_ok =
    let t = Rsg_mult.Multiplier.build ~m:4 ~n:4 () in
    Rsg_mult.Multiplier.multiply t 7 (-8) = -56
  in
  census mult.Rsg_mult.Layout_gen.whole mult_ok;
  let pla =
    Rsg_pla.Gen.generate
      (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ])
  in
  census pla.Rsg_pla.Gen.cell (Rsg_pla.Gen.verify pla);
  let rom = Rsg_pla.Rom.generate ~word_bits:4 [| 1; 2; 4; 8; 3; 5; 9; 15 |] in
  census rom.Rsg_pla.Rom.pla.Rsg_pla.Gen.cell (Rsg_pla.Rom.verify rom);
  let ram = Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 () in
  let ram_ok =
    Rsg_ram.Ram_gen.docking_aligned ram
    &&
    let m = Rsg_ram.Ram_gen.Model.create ram in
    Rsg_ram.Ram_gen.Model.write m ~addr:5 11;
    Rsg_ram.Ram_gen.Model.read m ~addr:5 = 11
  in
  census ram.Rsg_ram.Ram_gen.cell ram_ok;
  note "'Familiar examples of regular circuit structures are RAMs, ROMs,";
  note "PLAs, and array multipliers' — all four from the same core"

(* ------------------------------------------------------------------ *)
(* E21 (section 6.1): technology transport of the multiplier cell.     *)

let e21 () =
  section "E21" "section 6.1: leaf-cell compaction makes the RSG transportable";
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let basic =
    Db.find_exn sample.Sample.db Rsg_mult.Sample_lib.basic_cell
  in
  let specs =
    [ { Rsg_compact.Leaf.p_index = 1; p_dx = Rsg_mult.Sample_lib.cell_width;
        p_dy = 0; p_weight = 100 } ]
  in
  row "%-18s %12s %12s %10s" "rules" "pitch" "strip legal" "array area";
  let array_area pitch =
    (* a 16-column, 17-row tiling at the given pitch *)
    ((15 * pitch) + 48) * (17 * 64)
  in
  row "%-18s %12d %12s %10d" "as drawn" Rsg_mult.Sample_lib.cell_width "-"
    (array_area Rsg_mult.Sample_lib.cell_width);
  List.iter
    (fun (name, rules) ->
      let r = Rsg_compact.Leaf.compact rules basic ~pitches:specs in
      let pitch = List.assoc 1 r.Rsg_compact.Leaf.pitches in
      row "%-18s %12d %12b %10d" name pitch
        (Rsg_compact.Leaf.verify rules r ~pitches:specs)
        (array_area pitch))
    [ ("same process", Rsg_compact.Rules.default);
      ("tighter process", Rsg_compact.Rules.tight) ];
  note "'The problem of making the RSG technology transportable ... could";
  note "be achieved by using a special kind of compactor' — the pitch, not";
  note "the cell extremity, is what a large array pays for (section 6.2)"

(* ------------------------------------------------------------------ *)
(* E22 (lib/obs): per-phase breakdown of generation and compaction.    *)

let e22 () =
  section "E22" "lib/obs: per-phase timing/counter breakdown of the pipeline";
  let module Obs = Rsg_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  ignore (Rsg_mult.Layout_gen.generate ~xsize:16 ~ysize:16 ());
  let pla =
    Rsg_pla.Gen.generate
      (Rsg_pla.Truth_table.of_strings
         [ ("10-1", "10"); ("0-11", "01"); ("1--0", "11") ])
  in
  ignore (Rsg_pla.Gen.verify pla);
  ignore
    (Rsg_compact.Compactor.compact_cell ~distribute_slack:true
       Rsg_compact.Rules.default pla.Rsg_pla.Gen.cell);
  Obs.disable ();
  Format.printf "%a" Obs.pp ();
  note "expansion, constraint generation and the Bellman-Ford solve are";
  note "now measurable per phase — the baseline every perf PR reports against"

(* ------------------------------------------------------------------ *)
(* E23 (lib/drc): scanline DRC runtime vs layout size.                 *)

let e23 () =
  section "E23" "lib/drc: scanline design-rule check scales near-linearly";
  row "%-10s %10s %10s %10s %12s %14s" "layout" "boxes" "regions" "violations"
    "seconds" "us per box";
  List.iter
    (fun n ->
      let g = Rsg_mult.Layout_gen.generate ~xsize:n ~ysize:n () in
      let items =
        Rsg_compact.Scanline.items_of_cell g.Rsg_mult.Layout_gen.whole
      in
      let secs = seconds (fun () -> Rsg_drc.Drc.check items) in
      let r = Rsg_drc.Drc.check items in
      row "%-10s %10d %10d %10d %12.4f %14.2f"
        (Printf.sprintf "mult %dx%d" n n)
        r.Rsg_drc.Drc.r_boxes r.Rsg_drc.Drc.r_regions
        (List.length r.Rsg_drc.Drc.r_violations)
        secs
        (1e6 *. secs /. float_of_int r.Rsg_drc.Drc.r_boxes))
    [ 2; 4; 8; 16; 24 ];
  note "generated layouts check clean; the plane sweep keeps cost per box";
  note "flat as the array grows (no all-pairs comparison anywhere)"

(* ------------------------------------------------------------------ *)
(* E24: prototype flatten cache + the domain pool.                     *)

let e24 () =
  section "E24"
    "flatten cache (prototypes) and multicore DRC/extraction (lib/par)";
  let configs =
    [ ("mult 8x8",
       fun () ->
         (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
           .Rsg_mult.Layout_gen.whole);
      ("mult 16x16",
       fun () ->
         (Rsg_mult.Layout_gen.generate ~xsize:16 ~ysize:16 ())
           .Rsg_mult.Layout_gen.whole);
      ("mult 24x24",
       fun () ->
         (Rsg_mult.Layout_gen.generate ~xsize:24 ~ysize:24 ())
           .Rsg_mult.Layout_gen.whole);
      ("ram 64x16",
       fun () ->
         (Rsg_ram.Ram_gen.generate ~words:64 ~bits:16 ()).Rsg_ram.Ram_gen.cell)
    ]
  in
  let nd = Rsg_par.Par.default_domains () in
  row "flatten: naive walk vs one shared prototype build (cells = distinct)";
  row "%-12s %8s %6s | %9s %9s %10s %9s %8s %5s" "layout" "boxes" "cells"
    "naive-s" "build-s" "cached-s" "stats-s" "speedup" "same";
  List.iter
    (fun (name, mk) ->
      let cell = mk () in
      let naive = seconds (fun () -> ignore (Flatten.flatten cell)) in
      let build =
        seconds (fun () ->
            ignore (Flatten.protos_flat (Flatten.prototypes cell)))
      in
      let protos = Flatten.prototypes cell in
      let flat = Flatten.protos_flat protos in
      let cached = seconds (fun () -> ignore (Flatten.protos_flat protos)) in
      let statss = seconds (fun () -> ignore (Flatten.stats cell)) in
      let same = flat = Flatten.flatten cell in
      row "%-12s %8d %6d | %9.4f %9.4f %10.6f %9.4f %7.0fx %5b" name
        (Array.length flat.Flatten.flat_boxes)
        (Flatten.distinct_cells protos)
        naive build cached statss
        (naive /. max cached 1e-9)
        same;
      json_num (name ^ ".flatten_naive_s") naive;
      json_num (name ^ ".flatten_build_s") build;
      json_num (name ^ ".flatten_cached_s") cached;
      json_bool (name ^ ".flatten_identical") same)
    configs;
  row "";
  row "DRC: 1 domain vs %d domains (identical = bit-identical report)" nd;
  row "%-12s %8s | %9s %9s %8s %9s" "layout" "boxes" "1-dom-s"
    (Printf.sprintf "%d-dom-s" nd) "speedup" "identical";
  List.iter
    (fun (name, mk) ->
      let cell = mk () in
      let items =
        Rsg_compact.Scanline.items_of_flat
          (Flatten.protos_flat (Flatten.prototypes cell))
      in
      let s1 = seconds (fun () -> ignore (Rsg_drc.Drc.check ~domains:1 items)) in
      let sn =
        seconds (fun () -> ignore (Rsg_drc.Drc.check ~domains:nd items))
      in
      let identical =
        Rsg_drc.Drc.check ~domains:1 items = Rsg_drc.Drc.check ~domains:nd items
      in
      row "%-12s %8d | %9.4f %9.4f %7.2fx %9b" name (Array.length items) s1 sn
        (s1 /. max sn 1e-9) identical;
      json_num (name ^ ".drc_1dom_s") s1;
      json_num (Printf.sprintf "%s.drc_%ddom_s" name nd) sn;
      json_bool (name ^ ".drc_identical") identical)
    configs;
  row "";
  row "extraction: 1 domain vs %d domains" nd;
  row "%-12s %8s %8s | %9s %9s %8s %9s" "layout" "nets" "devices" "1-dom-s"
    (Printf.sprintf "%d-dom-s" nd) "speedup" "identical";
  List.iter
    (fun (name, mk) ->
      let cell = mk () in
      let f = Flatten.protos_flat (Flatten.prototypes cell) in
      let items = Rsg_compact.Scanline.items_of_flat f in
      let labels = Array.to_list f.Flatten.flat_labels in
      let s1 =
        seconds (fun () ->
            ignore (Rsg_extract.Extract.of_items ~domains:1 items labels))
      in
      let sn =
        seconds (fun () ->
            ignore (Rsg_extract.Extract.of_items ~domains:nd items labels))
      in
      let n1 = Rsg_extract.Extract.of_items ~domains:1 items labels in
      let nn = Rsg_extract.Extract.of_items ~domains:nd items labels in
      row "%-12s %8d %8d | %9.4f %9.4f %7.2fx %9b" name
        n1.Rsg_extract.Extract.n_nets
        (Rsg_extract.Extract.n_devices n1)
        s1 sn
        (s1 /. max sn 1e-9)
        (n1 = nn);
      json_num (name ^ ".extract_1dom_s") s1;
      json_num (Printf.sprintf "%s.extract_%ddom_s" name nd) sn)
    configs;
  note "the cached column is the amortised cost once one prototype build";
  note "serves stats + DRC + extraction + the writer; domain speedups";
  note
    "depend on the machine (this host recommends %d domain%s)"
    (Rsg_par.Par.recommended ())
    (if Rsg_par.Par.recommended () = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* E25 (lib/lint): static analysis runtime vs design and graph size.   *)

let e25 () =
  section "E25" "lib/lint: static analysis cost vs design and graph size";
  row "design front end (scoping/arity/shape over the AST, no evaluation)";
  row "%-18s %8s %8s %8s %12s" "design" "chars" "checked" "diags" "seconds";
  let lint_design name cfg text =
    let secs =
      seconds (fun () -> ignore (Rsg_lint.Design_lint.check_string cfg text))
    in
    let r = Rsg_lint.Design_lint.check_string cfg text in
    row "%-18s %8d %8d %8d %12.5f" name (String.length text)
      r.Rsg_lint.Diag.r_checked
      (List.length r.Rsg_lint.Diag.r_diags)
      secs
  in
  let mult_cfg =
    let sample, _ = Rsg_mult.Sample_lib.build () in
    Rsg_lint.Design_lint.config_of_params
      ~cells:(Db.names sample.Sample.db)
      (Rsg_lang.Param.parse (Rsg_mult.Sample_lib.param_file ~xsize:8 ~ysize:8))
  in
  lint_design "mult (builtin)" mult_cfg Rsg_mult.Design_file.text;
  let pla_cfg =
    let sample, _ = Rsg_pla.Pla_cells.build () in
    let cfg =
      Rsg_lint.Design_lint.config_of_params
        ~cells:(Db.names sample.Sample.db)
        (Rsg_lang.Param.parse
           (Rsg_pla.Pla_design_file.param_file ~ninputs:3 ~noutputs:2
              ~nterms:4 ~name:"pla"))
    in
    { cfg with
      Rsg_lint.Design_lint.globals =
        "lits" :: "outs" :: cfg.Rsg_lint.Design_lint.globals
    }
  in
  lint_design "pla (builtin)" pla_cfg Rsg_pla.Pla_design_file.text;
  (* synthetic scaling: k independent row macros, each used once *)
  List.iter
    (fun k ->
      let buf = Buffer.create (256 * k) in
      for i = 1 to k do
        Buffer.add_string buf
          (Printf.sprintf
             "(macro mrow%d (n)\n\
             \  (locals r. nxt)\n\
             \  (mk_instance nxt basiccell)\n\
             \  (assign r.1 nxt)\n\
             \  (do (i 2 (+ i 1) (> i n))\n\
             \    (mk_instance nxt basiccell)\n\
             \    (assign r.i nxt)\n\
             \    (connect r.(- i 1) r.i 1)))\n\
              (assign row%d (mrow%d 4))\n"
             i i i)
      done;
      let cfg =
        { Rsg_lint.Design_lint.globals = []; cells = [ "basiccell" ];
          env_known = true
        }
      in
      lint_design
        (Printf.sprintf "synthetic x%d" k)
        cfg (Buffer.contents buf))
    [ 1; 8; 64; 256 ];
  row "";
  row "graph front end (reachability, spanning tree, cycle consistency)";
  row "%-18s %8s %8s %8s %12s %12s" "graph" "nodes" "edges" "diags" "seconds"
    "us per edge";
  List.iter
    (fun n ->
      (* a chain under a self-inverse interface plus every third rung
         doubled back consistently: tree edges and redundant-but-
         consistent cycle edges both get exercised *)
      let cname = Printf.sprintf "bench%d" n in
      let cc = Cell.create cname in
      let tbl = Interface_table.create () in
      Interface_table.declare tbl ~from:cname ~into:cname ~index:1
        (Interface.make (Vec.make 10 0) Orient.south);
      let gen = Graph.generator () in
      let nodes = Array.init n (fun _ -> Graph.mk_instance ~gen cc) in
      for i = 1 to n - 1 do
        Graph.connect nodes.(i - 1) nodes.(i) 1
      done;
      let node_list = Array.to_list nodes in
      let secs =
        seconds (fun () -> ignore (Rsg_lint.Graph_lint.check tbl node_list))
      in
      let r = Rsg_lint.Graph_lint.check tbl node_list in
      let edges = n - 1 in
      row "%-18s %8d %8d %8d %12.5f %12.2f"
        (Printf.sprintf "chain %d" n)
        n edges
        (List.length r.Rsg_lint.Diag.r_diags)
        secs
        (1e6 *. secs /. float_of_int (max edges 1)))
    [ 100; 1_000; 10_000; 50_000 ];
  note "no paper counterpart (the thesis reports no analysis timings);";
  note "both front ends are a constant number of linear passes, so cost";
  note "per form / per edge should stay flat as the input grows"

(* ------------------------------------------------------------------ *)
(* E26 (lib/store): content-addressed layout cache, cold vs warm, and  *)
(* batch throughput across the domain pool.                            *)

let e26 () =
  section "E26" "lib/store: layout cache cold vs warm, batch throughput";
  let module Store = Rsg_store.Store in
  let module Batch = Rsg_store.Batch in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rsg-bench-e26-%d" (Unix.getpid ()))
  in
  let with_store name f =
    let st = Store.open_ (Filename.concat tmp name) in
    Fun.protect
      ~finally:(fun () ->
        ignore (Store.clear st);
        try Unix.rmdir (Store.dir st) with Unix.Unix_error _ -> ())
      (fun () -> f st)
  in
  let cif cell = Cif.to_string cell in
  row "cold (generate + save) vs warm (verified load), largest configs;";
  row "+flat also composes the flat from the loaded hierarchy (what";
  row "drc --from-db pays); same = warm CIF byte-identical and that flat";
  row "equal to the cold one";
  row "%-12s %8s | %9s %9s %9s %8s %5s" "layout" "boxes" "cold-s" "warm-s"
    "+flat-s" "speedup" "same";
  with_store "cold-warm" (fun st ->
      List.iter
        (fun (name, mk) ->
          let key = Store.key ~design:name ~params:"" () in
          let save () =
            let cell = mk () in
            Store.save st key ~label:name cell;
            cell
          in
          let cold = seconds (fun () -> ignore (save ())) in
          let cell = save () in
          let compose c = Flatten.protos_flat (Flatten.prototypes c) in
          let flat = compose cell in
          let warm =
            seconds (fun () ->
                match Store.find st key with
                | Store.Hit _ -> ()
                | Store.Miss | Store.Corrupt _ -> assert false)
          in
          let warm_flat =
            seconds (fun () ->
                match Store.find st key with
                | Store.Hit e -> ignore (compose e.Rsg_store.Codec.e_cell)
                | Store.Miss | Store.Corrupt _ -> assert false)
          in
          let same =
            match Store.find st key with
            | Store.Hit e ->
              cif e.Rsg_store.Codec.e_cell = cif cell
              && compose e.Rsg_store.Codec.e_cell = flat
            | Store.Miss | Store.Corrupt _ -> false
          in
          row "%-12s %8d | %9.4f %9.4f %9.4f %7.1fx %5b" name
            (Array.length flat.Flatten.flat_boxes)
            cold warm warm_flat
            (cold /. max warm 1e-9)
            same)
        [ ("mult 16x16",
           fun () ->
             (Rsg_mult.Layout_gen.generate ~xsize:16 ~ysize:16 ())
               .Rsg_mult.Layout_gen.whole);
          ("mult 24x24",
           fun () ->
             (Rsg_mult.Layout_gen.generate ~xsize:24 ~ysize:24 ())
               .Rsg_mult.Layout_gen.whole);
          ("pla 32-term",
           fun () ->
             (Rsg_pla.Gen.generate (Rsg_pla.Gen.minterm_table 5))
               .Rsg_pla.Gen.cell)
        ]);
  row "";
  let jobs =
    let job name kind gen =
      { Batch.j_name = name;
        j_kind = kind;
        j_key = Store.key ~design:("bench:" ^ kind) ~params:name ();
        j_label = name;
        j_gen = gen
      }
    in
    [ job "mult6" "multiplier" (fun () ->
          (Rsg_mult.Layout_gen.generate ~xsize:6 ~ysize:6 ())
            .Rsg_mult.Layout_gen.whole);
      job "mult8" "multiplier" (fun () ->
          (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
            .Rsg_mult.Layout_gen.whole);
      job "mult10" "multiplier" (fun () ->
          (Rsg_mult.Layout_gen.generate ~xsize:10 ~ysize:10 ())
            .Rsg_mult.Layout_gen.whole);
      job "pla3" "pla" (fun () ->
          (Rsg_pla.Gen.generate (Rsg_pla.Gen.minterm_table 3))
            .Rsg_pla.Gen.cell);
      job "pla4" "pla" (fun () ->
          (Rsg_pla.Gen.generate (Rsg_pla.Gen.minterm_table 4))
            .Rsg_pla.Gen.cell);
      job "rom16" "rom" (fun () ->
          (Rsg_pla.Rom.generate ~word_bits:4
             [| 1; 9; 4; 13; 2; 6; 11; 7; 0; 15; 3; 14; 5; 10; 8; 12 |])
            .Rsg_pla.Rom.pla
            .Rsg_pla.Gen.cell);
      job "dec4" "decoder" (fun () ->
          (Rsg_pla.Gen.generate_decoder 4).Rsg_pla.Gen.cell);
      job "ram32" "ram" (fun () ->
          (Rsg_ram.Ram_gen.generate ~words:32 ~bits:8 ()).Rsg_ram.Ram_gen.cell)
    ]
  in
  let nd = Rsg_par.Par.default_domains () in
  let cifs rs =
    List.map
      (fun r ->
        match r.Batch.r_cell with Some c -> cif c | None -> "")
      rs
  in
  let hits rs =
    List.length
      (List.filter (fun r -> r.Batch.r_outcome = Batch.Hit) rs)
  in
  row "batch: %d-job manifest, cold (store cleared per run) vs warm"
    (List.length jobs);
  row "%-22s %8s %6s | %9s" "run" "domains" "hits" "seconds";
  with_store "batch" (fun st ->
      let batch domains = Batch.run ~domains ~store:st jobs in
      let cold domains =
        seconds (fun () ->
            ignore (Store.clear st);
            ignore (batch domains))
      in
      let c1 = cold 1 in
      let r1 = (ignore (Store.clear st) : unit); batch 1 in
      let cif1 = cifs r1 in
      let cn = cold nd in
      let rn = (ignore (Store.clear st) : unit); batch nd in
      let cifn = cifs rn in
      ignore (Store.clear st);
      ignore (batch nd);
      let rw = batch nd in
      let warm = seconds (fun () -> ignore (batch nd)) in
      row "%-22s %8d %6d | %9.4f" "cold" 1 (hits r1) c1;
      row "%-22s %8d %6d | %9.4f (%.2fx)" "cold" nd (hits rn) cn
        (c1 /. max cn 1e-9);
      row "%-22s %8d %6d | %9.4f (%.1fx vs 1-dom cold)" "warm" nd (hits rw)
        warm
        (c1 /. max warm 1e-9);
      row "1-dom and %d-dom outputs bit-identical: %b" nd (cif1 = cifn);
      row "warm outputs bit-identical to cold:      %b" (cifs rw = cif1));
  (try Unix.rmdir tmp with Unix.Unix_error _ -> ());
  note "warm runs skip parse/expand entirely: the store hands back the";
  note "checksummed hierarchy, so the target is >= 10x on the largest";
  note "configs; a check that needs the flat composes it (+flat); batch";
  note "scaling depends on the machine (RSG_DOMAINS overrides the default)"

(* ------------------------------------------------------------------ *)
(* E27 (lib/store + lib/drc): hierarchical incremental regeneration.   *)
(* Edit one leaf celltype of one block on a multi-block chip: the      *)
(* content-addressed prototype table from the previous run replays     *)
(* every clean DRC level, so only the dirty chain (edited leaf +       *)
(* ancestors up to the chip root) is re-flattened and re-checked.      *)

let e27 () =
  section "E27"
    "incremental regeneration: edit one leaf, replay the clean prototypes";
  let module Codec = Rsg_store.Codec in
  let module Drc = Rsg_drc.Drc in
  (* ten multiplier blocks of distinct sizes side by side: every block
     contributes its own prototype subtree, so the chip has many
     replayable levels and the dirty chain after a one-leaf edit is a
     tiny fraction of the design *)
  let sizes = [ 8; 10; 12; 14; 16; 18; 20; 22; 24; 26 ] in
  let deck_digest = Rsg_drc.Deck.digest Rsg_drc.Deck.default in
  (* the edit: duplicate an existing box of the "tr" (top register)
     leaf of the smallest block — a content change that leaves the
     union of geometry, and hence cleanliness, untouched, but dirties
     that prototype and its ancestors up to the chip root *)
  let build ~edited () =
    let chip = Cell.create "chip" in
    let x = ref 0 in
    List.iter
      (fun n ->
        let m =
          (Rsg_mult.Layout_gen.generate ~xsize:n ~ysize:n ())
            .Rsg_mult.Layout_gen.whole
        in
        (if edited && n = List.hd sizes then
           let leaf =
             List.find
               (fun (c : Cell.t) -> c.Cell.cname = "tr")
               (Flatten.protos_order (Flatten.prototypes m))
           in
           let l, b = List.hd (Cell.boxes leaf) in
           Cell.add_box leaf l b);
        ignore (Cell.add_instance chip ~at:(Vec.make !x 0) m);
        let pm = Flatten.prototypes m in
        let bb =
          match Flatten.cell_bbox pm (Flatten.protos_root pm) with
          | Some b -> b
          | None -> assert false
        in
        x := !x + (bb.Box.xmax - bb.Box.xmin) + 2000)
      sizes;
    chip
  in
  let reports_of (r : Drc.hier_report) hex =
    match
      List.find_opt (fun (l : Drc.level) -> l.Drc.l_hash = hex) r.Drc.h_levels
    with
    | Some l -> [ (deck_digest, Drc.cached_of_level l) ]
    | None -> []
  in
  (* previous run of the unedited design: its table is the cache; the
     flat is composed here, outside any timed region, the way a real
     previous run would already have paid for it *)
  let protos0 = Flatten.prototypes (build ~edited:false ()) in
  let hier0 = Drc.check_protos protos0 in
  ignore (Flatten.protos_flat protos0);
  let table =
    Codec.proto_table protos0 ~reused:(fun _ -> false)
      ~reports:(reports_of hier0)
  in
  let cached hex =
    Array.fold_left
      (fun acc (p : Codec.proto) ->
        if acc = None && Digest.to_hex p.Codec.p_hash = hex then
          List.assoc_opt deck_digest p.Codec.p_reports
        else acc)
      None table
  in
  (* the regeneration pipeline downstream of the edited hierarchy:
     hash the subtrees, flatten the prototypes (seeded from the
     previous run for the incremental path, so clean subtrees adopt
     their arrays instead of recomposing) and design-rule check (with
     clean levels replayed from the table).  Generation of the edited
     hierarchy itself is common to both paths and reported once. *)
  let gen_s, cell_edited =
    let t = Unix.gettimeofday () in
    let c = build ~edited:true () in
    (Unix.gettimeofday () -. t, c)
  in
  (* verify = subtree hashing + prototype flattening (seeded on the
     incremental path, so clean subtrees adopt their arrays instead of
     recomposing) + hierarchical DRC (clean levels replayed from the
     table); emit additionally composes the full output flat, a cost
     both paths share *)
  let verify ?seed ?cached domains () =
    let protos = Flatten.prototypes cell_edited in
    (match seed with
    | Some protos0 ->
      List.iter
        (fun (c, _hex) ->
          let f = Flatten.proto_flat protos0 c in
          Flatten.seed_proto protos
            ~hash:(Flatten.subtree_digest protos0 c)
            ~boxes:f.Flatten.flat_boxes ~labels:f.Flatten.flat_labels)
        (Flatten.subtree_hashes protos0)
    | None -> ());
    let hier = Drc.check_protos ~domains ?cached protos in
    (protos, hier)
  in
  let nd = Rsg_par.Par.default_domains () in
  row "chip of %d multiplier blocks (sizes %d..%d), one leaf celltype"
    (List.length sizes) (List.hd sizes)
    (List.fold_left max 0 sizes);
  row "of the smallest block edited; cold re-flattens and re-checks";
  row "every prototype, incremental seeds the unchanged ones from the";
  row "previous run's table and replays their DRC levels";
  row "(hierarchy generation, common to both paths: %.4fs)" gen_s;
  row "%-12s %7s %6s %8s | %8s %8s %8s %8s" "run" "domains" "levels"
    "replayed" "verify" "speedup" "total" "speedup";
  let results =
    List.concat_map
      (fun domains ->
        let cold_v = seconds (fun () -> ignore (verify domains ())) in
        let cold_t =
          seconds (fun () ->
              let p, _ = verify domains () in
              ignore (Flatten.protos_flat p))
        in
        let _, cold_hier = verify domains () in
        let cold_flat = Flatten.protos_flat (fst (verify domains ())) in
        let incr () = verify ~seed:protos0 ~cached domains () in
        let incr_v = seconds (fun () -> ignore (incr ())) in
        let incr_t =
          seconds (fun () ->
              let p, _ = incr () in
              ignore (Flatten.protos_flat p))
        in
        let incr_protos, incr_hier = incr () in
        let incr_flat = Flatten.protos_flat incr_protos in
        row "%-12s %7d %6d %8d | %8.4f %8s %8.4f %8s" "cold" domains
          (List.length cold_hier.Drc.h_levels)
          cold_hier.Drc.h_cached cold_v "" cold_t "";
        row "%-12s %7d %6d %8d | %8.4f %7.1fx %8.4f %7.1fx" "incremental"
          domains
          (List.length incr_hier.Drc.h_levels)
          incr_hier.Drc.h_cached incr_v
          (cold_v /. max incr_v 1e-9)
          incr_t
          (cold_t /. max incr_t 1e-9);
        json_num (Printf.sprintf "cold_verify_s.d%d" domains) cold_v;
        json_num (Printf.sprintf "incr_verify_s.d%d" domains) incr_v;
        json_num (Printf.sprintf "cold_total_s.d%d" domains) cold_t;
        json_num (Printf.sprintf "incr_total_s.d%d" domains) incr_t;
        json_int
          (Printf.sprintf "replayed_levels.d%d" domains)
          incr_hier.Drc.h_cached;
        [ (domains, cold_hier, cold_flat, incr_hier, incr_flat) ])
      (List.sort_uniq compare [ 1; nd ])
  in
  let identical =
    List.for_all
      (fun (_, ch, cf, ih, if_) ->
        cf.Flatten.flat_boxes = if_.Flatten.flat_boxes
        && Drc.hier_clean ch = Drc.hier_clean ih
        && List.map (fun (l : Drc.level) -> (l.Drc.l_hash, l.Drc.l_violations))
             ch.Drc.h_levels
           = List.map
               (fun (l : Drc.level) -> (l.Drc.l_hash, l.Drc.l_violations))
               ih.Drc.h_levels)
      results
  in
  let flats =
    List.map (fun (_, _, cf, _, _) -> cf.Flatten.flat_boxes) results
  in
  let cross_domain =
    match flats with [] -> true | f :: rest -> List.for_all (( = ) f) rest
  in
  row "incremental outputs/verdicts identical to cold: %b" identical;
  row "outputs identical across domain counts:         %b" cross_domain;
  json_bool "incremental_identical" identical;
  json_bool "cross_domain_identical" cross_domain;
  note "the acceptance floor is a >= 5x edit-one-leaf verify speedup:";
  note "replay covers every clean prototype, so only the dirty chain";
  note "(edited leaf + ancestors) pays for geometry windows and checks;";
  note "'total' adds composing the output flat, a cost both paths share"

(* ------------------------------------------------------------------ *)
(* E28: the resident serve daemon — request latency vs a per-request   *)
(* CLI process, throughput vs concurrency, coalescing, and graceful    *)
(* saturation (queue_full rejections, not unbounded queueing).         *)

let e28 () =
  section "E28" "lib/serve: daemon latency/throughput, coalescing, saturation";
  let module Serve = Rsg_serve.Serve in
  let module Client = Rsg_serve.Client in
  let module Load = Rsg_serve.Load in
  let module Json = Rsg_obs.Json in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rsg-bench-e28-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir tmp 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock_of name = Filename.concat tmp (name ^ ".sock") in
  let start cfg =
    let ready = Atomic.make false in
    let th =
      Thread.create
        (fun () -> Serve.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
        ()
    in
    while not (Atomic.get ready) do
      Thread.delay 0.002
    done;
    th
  in
  let connect sock =
    match Client.connect ~attempts:10 sock with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let shutdown sock th =
    let c = connect sock in
    ignore
      (Client.request c
         (Json.Obj [ ("id", Json.String "bye"); ("op", Json.String "shutdown") ]));
    Client.close c;
    Thread.join th
  in
  let obj fields = Json.Obj fields in
  let str s = Json.String s in
  let gen ?(cif = false) spec =
    obj
      ([ ("id", str "g"); ("op", str "generate"); ("spec", str spec) ]
      @ if cif then [ ("cif", Json.Bool true) ] else [])
  in
  let ms v = v *. 1000. in
  let replay ~sock ~concurrency ~repeat reqs =
    match Load.run ~socket:sock ~concurrency ~repeat reqs with
    | Ok r -> r
    | Error msg -> failwith ("replay failed: " ^ msg)
  in
  let err_count code (r : Load.result) =
    Option.value ~default:0 (List.assoc_opt code r.Load.l_errors)
  in

  (* -- main daemon: a worker pool over a disk store ------------------- *)
  let store_dir = Filename.concat tmp "store" in
  let sock = sock_of "main" in
  let th =
    start
      {
        (Serve.default_config ~socket_path:sock) with
        Serve.workers = 2;
        queue_depth = 16;
        store_dir = Some store_dir;
      }
  in
  let specs =
    [ "m12 multiplier size=12"; "m16 multiplier size=16"; "d6 decoder n=6";
      "ram84 ram words=8 bits=4" ]
  in
  let reqs = List.map gen specs in
  let cold = replay ~sock ~concurrency:1 ~repeat:1 reqs in
  row "four designs (mult 12/16, decoder 6, ram 8x4), %d cold generates:"
    cold.Load.l_sent;
  row "  cold p50 %.1f ms, total %.2f s (populates memory + disk store)"
    (ms (Load.percentile cold.Load.l_latencies 50.))
    cold.Load.l_seconds;
  row "";
  row "warm replay (every request a memory hit), mixed keys:";
  row "%5s | %6s %6s | %9s %9s %9s | %9s" "conc" "sent" "ok" "p50-ms"
    "p95-ms" "p99-ms" "req/s";
  List.iter
    (fun concurrency ->
      let r = replay ~sock ~concurrency ~repeat:16 reqs in
      row "%5d | %6d %6d | %9.3f %9.3f %9.3f | %9.0f" concurrency
        r.Load.l_sent r.Load.l_ok
        (ms (Load.percentile r.Load.l_latencies 50.))
        (ms (Load.percentile r.Load.l_latencies 95.))
        (ms (Load.percentile r.Load.l_latencies 99.))
        (float_of_int r.Load.l_sent /. r.Load.l_seconds))
    [ 1; 2; 4; 8 ];
  let warm = replay ~sock ~concurrency:1 ~repeat:8 reqs in
  let daemon_p50 = Load.percentile warm.Load.l_latencies 50. in

  (* -- the same warm request as a fresh CLI process ------------------- *)
  let cli = Filename.concat (Sys.getcwd ()) "_build/default/bin/rsg_cli.exe" in
  (if Sys.file_exists cli then begin
     let run () =
       let cmd =
         Printf.sprintf
           "%s multiplier --size 12 --cache %s -o /dev/null >/dev/null 2>&1"
           (Filename.quote cli) (Filename.quote store_dir)
       in
       if Sys.command cmd <> 0 then failwith "warm CLI run failed"
     in
     run ();
     (* once to warm *)
     let cli_warm = seconds run in
     row "";
     row "one warm request, daemon vs fresh CLI process on the same store:";
     row "  daemon p50 %.3f ms | CLI %.1f ms | %.0fx (process start, parse,"
       (ms daemon_p50) (ms cli_warm)
       (cli_warm /. max daemon_p50 1e-9);
     row "  store decode and render are paid once by the daemon, not per call"
   end
   else begin
     row "";
     row "warm CLI baseline skipped (%s not built)" cli
   end);

  (* -- bit identity: repeated and concurrent answers never drift ------ *)
  let cif_of r =
    match
      Option.bind (Json.member "result" r) (Json.mem_string "cif")
    with
    | Some s -> s
    | None -> failwith "no cif in response"
  in
  let c = connect sock in
  let rq v =
    match Client.request c v with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let a = cif_of (rq (gen ~cif:true "m12 multiplier size=12")) in
  let b = cif_of (rq (gen ~cif:true "m12 multiplier size=12")) in
  let direct =
    Cif.to_string
      (Rsg_mult.Layout_gen.generate ~xsize:12 ~ysize:12 ())
        .Rsg_mult.Layout_gen.whole
  in
  row "";
  row "warm answers byte-identical to each other: %b; to direct generation: %b"
    (a = b) (a = direct);
  Client.close c;
  shutdown sock th;

  (* -- coalescing and saturation on a deliberately small daemon ------- *)
  let sock = sock_of "small" in
  let th =
    start
      {
        (Serve.default_config ~socket_path:sock) with
        Serve.workers = 1;
        queue_depth = 2;
      }
  in
  let c = connect sock in
  let counter name =
    match Client.request c (obj [ ("id", str "s"); ("op", str "stats") ]) with
    | Ok r ->
      Option.value ~default:0
        (Option.bind (Json.member "result" r) (fun res ->
             Option.bind (Json.member "counters" res) (fun cs ->
                 Option.bind (Json.member name cs) Json.to_int_opt)))
    | Error msg -> failwith msg
  in
  let before = counter "serve.coalesced" in
  (* pin the one worker, then send identical generates back to back:
     all but the leader must attach to the in-flight computation *)
  (match
     Client.pipeline c
       [
         obj [ ("id", str "pin"); ("op", str "sleep"); ("ms", Json.Int 200) ];
         gen "d4 decoder n=4";
         gen "d4 decoder n=4";
         gen "d4 decoder n=4";
       ]
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  row "";
  row "coalescing (1 worker pinned, 3 identical generates pipelined):";
  row "  riders attached to the in-flight computation: %d (expected 2)"
    (counter "serve.coalesced" - before);
  Client.close c;
  (* offered load ~4x what one worker can clear: 8 threads of 25 ms
     jobs against a capacity of 40 jobs/s, all with generous deadlines
     so every rejection is admission control, not a deadline miss *)
  let sat =
    replay ~sock ~concurrency:8 ~repeat:6
      [
        obj
          [
            ("id", str "w"); ("op", str "sleep"); ("ms", Json.Int 25);
            ("deadline_ms", Json.Int 60_000);
          ];
      ]
  in
  row "";
  row "saturation, 1 worker / queue 2, 8 threads x 25 ms jobs:";
  row "  sent %d | ok %d | queue_full %d | deadline_expired %d"
    sat.Load.l_sent sat.Load.l_ok (err_count "queue_full" sat)
    (err_count "deadline_expired" sat);
  row "  p99 %.1f ms (bounded: excess load is rejected at admission,"
    (ms (Load.percentile sat.Load.l_latencies 99.));
  row "  never queued without limit)";
  shutdown sock th;
  note "a resident service answers warm requests at memory-cache cost;";
  note "per-request CLI processes pay startup + store decode every time.";
  note "admission control keeps tail latency flat under overload: the";
  note "daemon says queue_full immediately instead of queueing unboundedly"

(* ------------------------------------------------------------------ *)
(* E29 (lib/compact): whole-structure hierarchical compaction.  Only  *)
(* the effective root level is stitched: interior geometry never      *)
(* moves, and the stitch re-legislates only inter-element spacing —   *)
(* so a fully abutted builtin is the identity while a loose floorplan *)
(* shrinks to the rule-deck gap, DRC-clean and deterministic.         *)

let e29 () =
  section "E29" "hierarchical compaction: the root-level stitch";
  let module H = Rsg_compact.Hcompact in
  let module Drc = Rsg_drc.Drc in
  let rules = Rsg_compact.Rules.default in
  let builtins =
    [ ("pla",
       fun () ->
         (Rsg_pla.Gen.generate
            (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
           .Rsg_pla.Gen.cell);
      ("decoder", fun () -> (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
      ("ram",
       fun () ->
         (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell);
      ("multiplier",
       fun () ->
         (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
           .Rsg_mult.Layout_gen.whole) ]
  in
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
  in
  let violations cell =
    List.length (Drc.check_cell ~domains:1 cell).Drc.r_violations
  in
  (* fully abutted builtins: compaction is the identity (no seam has
     slack), which is itself the correctness statement — interior
     geometry and designed abutments are never rewritten *)
  row "builtin structures (fully abutted: hier compaction is the identity)";
  row "%-12s %6s %8s %7s | %9s %9s %6s | %7s %5s" "layout" "protos"
    "constrs" "k/sec" "area-in" "area-out" "drc" "cold-s" "same";
  List.iter
    (fun (name, mk) ->
      let cell = mk () in
      let cold_s = seconds (fun () -> ignore (H.hier rules cell)) in
      let r = H.hier rules cell in
      let s = r.H.hr_stats in
      (* a second run on a freshly generated copy of the input *)
      let same =
        fingerprint (H.hier rules (mk ())).H.hr_cell = fingerprint r.H.hr_cell
      in
      let constrs = s.H.hs_stitch_constraints in
      let drc_out = violations r.H.hr_cell in
      row "%-12s %6d %8d %7.0f | %9d %9d %6d | %7.4f %5b" name
        s.H.hs_protos constrs
        (float_of_int constrs /. max cold_s 1e-9 /. 1e3)
        s.H.hs_area_before s.H.hs_area_after drc_out cold_s same;
      json_int (name ^ ".protos") s.H.hs_protos;
      json_int (name ^ ".constraints") constrs;
      json_int (name ^ ".area_before") s.H.hs_area_before;
      json_int (name ^ ".area_after") s.H.hs_area_after;
      json_int (name ^ ".drc_out") drc_out;
      json_num (name ^ ".cold_s") cold_s;
      json_bool (name ^ ".identical") same)
    builtins;
  row "";
  (* loose floorplans: two copies of each builtin at a huge gap and a
     y misalignment; the stitch pulls them to the rule-deck spacing *)
  row "loose floorplans (2 copies, gap 2000, y off 17): stitch shrinks to";
  row "the deck gap; flat compact_xy shown for scale (it may rewrite";
  row "interiors, hier never does)";
  row "%-16s %9s %9s %7s | %9s %9s | %7s %7s" "chip" "area-in" "area-out"
    "shrunk" "flat-xy" "flat-s" "cold-s" "drc-out";
  List.iter
    (fun (name, mk) ->
      let cell = mk () in
      let protos = Flatten.prototypes cell in
      let bb =
        match Flatten.cell_bbox protos cell with
        | Some b -> b
        | None -> assert false
      in
      let chip () =
        let chip = Cell.create (name ^ "-chip") in
        ignore (Cell.add_instance chip ~at:(Vec.make 0 0) cell);
        ignore
          (Cell.add_instance chip ~at:(Vec.make (Box.width bb + 2000) 17) cell);
        chip
      in
      let cold_s, r = time_once (fun () -> H.hier rules (chip ())) in
      let s = r.H.hr_stats in
      (* the greedy flat compactor can emit a contradictory system on
         structures the hierarchical stitch handles (it re-derives
         every interior constraint from scratch); report that rather
         than crash the section *)
      let flat_s, flat =
        time_once (fun () ->
            try
              Some
                (Rsg_compact.Compactor.compact_xy rules
                   (Rsg_compact.Scanline.items_of_cell (chip ())))
            with Rsg_compact.Bellman.Infeasible _ -> None)
      in
      let flat_area =
        match flat with
        | Some f -> string_of_int f.Rsg_compact.Compactor.area_after
        | None -> "infeas."
      in
      let shrunk = s.H.hs_area_after < s.H.hs_area_before in
      let drc_out = violations r.H.hr_cell in
      row "%-16s %9d %9d %7b | %9s %9.3f | %7.4f %7d" (name ^ "-chip")
        s.H.hs_area_before s.H.hs_area_after shrunk flat_area flat_s cold_s
        drc_out;
      json_int (name ^ "-chip.area_before") s.H.hs_area_before;
      json_int (name ^ "-chip.area_after") s.H.hs_area_after;
      (match flat with
      | Some f ->
        json_int (name ^ "-chip.flat_xy_area") f.Rsg_compact.Compactor.area_after
      | None -> json_str (name ^ "-chip.flat_xy_area") "infeasible");
      json_int (name ^ "-chip.drc_out") drc_out;
      json_num (name ^ "-chip.cold_s") cold_s;
      json_num (name ^ "-chip.flat_xy_s") flat_s;
      json_bool (name ^ "-chip.shrunk") shrunk)
    builtins;
  note "constrs counts the stitch's last x + y round only: no prototype's";
  note "interior system is generated, so the stitch is the whole cost and";
  note "the result does not depend on the domain count"

(* E30 (lib/erc): static electrical rule checking.  One verdict per   *)
(* distinct prototype, content-addressed by subtree hash; the warm    *)
(* path replays every verdict (including the root adjudication)       *)
(* without touching any geometry, and the per-net classification fan  *)
(* is bit-identical at every domain count.                            *)

let e30 () =
  section "E30"
    "static ERC: per-prototype verdicts, cached replay, domain-pool fan";
  let module Erc = Rsg_erc.Erc in
  let mk_pla () =
    (Rsg_pla.Gen.generate
       (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
      .Rsg_pla.Gen.cell
  in
  let mk_mult () =
    (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
      .Rsg_mult.Layout_gen.whole
  in
  let chip_of name cell =
    (* the E29 chip shape: two copies at a wide gap, so the root flat
       is the dominant electrical context *)
    let protos = Flatten.prototypes cell in
    let bb =
      match Flatten.cell_bbox protos cell with
      | Some b -> b
      | None -> assert false
    in
    let chip = Cell.create (name ^ "-chip") in
    ignore (Cell.add_instance chip ~at:(Vec.make 0 0) cell);
    ignore
      (Cell.add_instance chip ~at:(Vec.make (Box.width bb + 2000) 17) cell);
    chip
  in
  let workloads =
    [ ("pla", mk_pla ());
      ("decoder", (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
      ("ram",
       (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell);
      ("multiplier", mk_mult ());
      ("mult-chip", chip_of "mult" (mk_mult ())) ]
  in
  let warm_of (r : Erc.report) =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (l : Erc.level) ->
        Hashtbl.replace tbl l.Erc.l_hash l.Erc.l_verdict)
      r.Erc.r_levels;
    Hashtbl.find_opt tbl
  in
  let domain_counts = [ 1; 2; 4 ] in
  row "%-12s %6s %6s %5s %6s | %8s %8s %6s | %6s %5s" "layout" "levels"
    "nets" "devs" "diags" "cold-s" "warm-s" "x" "replay" "same";
  List.iter
    (fun (name, cell) ->
      let r = Erc.check_cell ~domains:4 cell in
      let levels = List.length r.Erc.r_levels in
      let diags =
        List.length (Erc.to_diags r).Rsg_lint.Diag.r_diags
      in
      let cold_s =
        seconds (fun () -> ignore (Erc.check_cell ~domains:4 cell))
      in
      let warm_s =
        seconds (fun () ->
            ignore (Erc.check_cell ~domains:4 ~cached:(warm_of r) cell))
      in
      let rw = Erc.check_cell ~domains:4 ~cached:(warm_of r) cell in
      (* cross-domain: full report JSON bit-identical; warm: the
         replayed diagnostics bit-identical to the cold adjudication *)
      let per_domain =
        List.map
          (fun d -> Erc.report_to_json (Erc.check_cell ~domains:d cell))
          domain_counts
      in
      let same =
        (match per_domain with
        | [] -> true
        | f :: rest -> List.for_all (( = ) f) rest)
        && Rsg_lint.Diag.report_to_json (Erc.to_diags rw)
           = Rsg_lint.Diag.report_to_json (Erc.to_diags r)
      in
      let speedup = cold_s /. Float.max warm_s 1e-9 in
      row "%-12s %6d %6d %5d %6d | %8.4f %8.4f %5.0fx | %3d/%-3d %5b" name
        levels r.Erc.r_nets r.Erc.r_devices diags cold_s warm_s speedup
        rw.Erc.r_cached levels same;
      json_int (name ^ ".erc_levels") levels;
      json_int (name ^ ".erc_nets") r.Erc.r_nets;
      json_int (name ^ ".erc_devices") r.Erc.r_devices;
      json_int (name ^ ".erc_diags") diags;
      json_num (name ^ ".erc_cold_s") cold_s;
      json_num (name ^ ".erc_warm_s") warm_s;
      json_num (name ^ ".erc_speedup") speedup;
      json_int (name ^ ".erc_replayed") rw.Erc.r_cached;
      json_bool (name ^ ".erc_identical") same)
    workloads;
  note "electrical judgement is global (a gate's driver may sit in a";
  note "personalisation mask deep inside a parent), so non-root levels";
  note "carry censuses and the root carries the adjudication; a warm";
  note "run replays every verdict (replay = levels) without extracting";
  note "a single box"

(* E31 (lib/search): parallel search-based placement & PLA folding.   *)
(* Cost is hierarchically compacted area; independent chains fan      *)
(* across the domain pool and merge best-of-N in chain order, so a    *)
(* fixed seed is bit-identical at every domain count; candidate       *)
(* evaluations are content-addressed and a warm re-run replays them   *)
(* without re-solving a single constraint graph.                      *)

type e31_runner =
  ?cached:(string -> int option) ->
  domains:int ->
  unit ->
  int * string * int * (string * int) list * Rsg_search.Anneal.stats

let e31 () =
  section "E31"
    "annealed placement & folding: chain fan-out, cached candidate evals";
  let module A = Rsg_search.Anneal in
  let module F = Rsg_search.Fold_opt in
  let module P = Rsg_search.Place_opt in
  let rules = Rsg_compact.Rules.default in
  (* greedy folds (0,1) first, and the induced row precedence makes
     (2,3) cyclic — one pair.  (0,2)+(3,1) folds every column. *)
  let tt_sub =
    Rsg_pla.Truth_table.of_strings [ ("1--1", "10"); ("-11-", "01") ]
  in
  let tt_simple =
    Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]
  in
  let block () =
    (Rsg_pla.Gen.generate tt_simple).Rsg_pla.Gen.cell
  in
  let summary (r : _ A.result) =
    (r.A.r_cost, Digest.to_hex r.A.r_digest, r.A.r_initial_cost, r.A.r_evals,
     r.A.r_stats)
  in
  (* each runner rebuilds its start state, so repeated timings never
     share mutable internals or sample databases *)
  let fold_runner tt ?cached ~domains () =
    summary
      (A.run ~domains ?cached ~chains:2 ~iters:30 ~seed:3 F.problem
         (F.make ~rules tt))
  in
  let place_runner ?cached ~domains () =
    summary
      (A.run ~domains ?cached ~chains:2 ~iters:40 ~seed:7 P.problem
         (P.make ~rules (List.init 4 (fun _ -> block ()))))
  in
  let workloads : (string * [ `Pla | `Chip ] * e31_runner) list =
    [ ("pla-sub", `Pla, fold_runner tt_sub);
      ("pla-simple", `Pla, fold_runner tt_simple);
      ("pla-chip", `Chip, place_runner) ]
  in
  let never_worse = ref true in
  let strict_pla = ref false in
  let strict_chip = ref false in
  let replay_10x = ref true in
  row "%-10s %8s %8s %6s | %8s %8s %7s %5s | %5s" "workload" "greedy"
    "anneal" "impr" "cold-s" "warm-s" "x" "warm#" "same";
  List.iter
    (fun (name, kind, (run : e31_runner)) ->
      let cold_s, (cost, digest, greedy, evals, _) =
        time_once (fun () -> run ~domains:4 ())
      in
      let tbl = Hashtbl.create 64 in
      List.iter (fun (d, c) -> Hashtbl.replace tbl d c) evals;
      let cached d = Hashtbl.find_opt tbl d in
      let warm_s, (wcost, wdigest, _, _, wst) =
        time_once (fun () -> run ~cached ~domains:4 ())
      in
      (* candidates/sec at 1, 2 and 4 domains, identical best layout *)
      let per_domain =
        List.map
          (fun d ->
            let s, (c, dg, _, _, st) = time_once (fun () -> run ~domains:d ()) in
            (d, c, dg, float_of_int st.A.st_computed /. Float.max s 1e-9))
          [ 1; 2; 4 ]
      in
      let same =
        List.for_all (fun (_, c, dg, _) -> c = cost && dg = digest) per_domain
        && wcost = cost && wdigest = digest
      in
      let speedup = cold_s /. Float.max warm_s 1e-9 in
      never_worse := !never_worse && cost <= greedy && same;
      if cost < greedy then begin
        match kind with
        | `Pla -> strict_pla := true
        | `Chip -> strict_chip := true
      end;
      replay_10x :=
        !replay_10x && wst.A.st_computed = 0 && speedup >= 10.0;
      row "%-10s %8d %8d %6b | %8.3f %8.3f %6.0fx %5d | %5b" name greedy cost
        (cost < greedy) cold_s warm_s speedup wst.A.st_computed same;
      List.iter
        (fun (d, _, _, cps) -> row "%-10s   domains=%d  %7.1f candidates/sec" ""
            d cps)
        per_domain;
      json_int (name ^ ".greedy_area") greedy;
      json_int (name ^ ".anneal_area") cost;
      json_bool (name ^ ".improved") (cost < greedy);
      json_num (name ^ ".cold_s") cold_s;
      json_num (name ^ ".warm_s") warm_s;
      json_num (name ^ ".warm_speedup") speedup;
      json_int (name ^ ".warm_computed") wst.A.st_computed;
      json_int (name ^ ".warm_cached") wst.A.st_cached;
      json_bool (name ^ ".identical") same;
      List.iter
        (fun (d, _, _, cps) ->
          json_num (Printf.sprintf "%s.candidates_per_s_d%d" name d) cps)
        per_domain)
    workloads;
  json_bool "anneal_never_worse" !never_worse;
  json_bool "strictly_smaller_pla" !strict_pla;
  json_bool "strictly_smaller_chip" !strict_chip;
  json_bool "warm_replay_10x" !replay_10x;
  note "the greedy column is the zero-iteration baseline (the fixed";
  note "fold heuristic / one-row floorplan); anneal can only match or";
  note "beat it, and the warm pass replays every candidate from the";
  note "evaluation cache (warm# = evaluations actually computed).";
  note "chains are pure functions of (seed, index), so the best layout";
  note "is bit-identical at every domain count; a candidate's cost is";
  note "generating its layout plus the Hcompact.hier stitch of its root";
  note "level, and past 2 domains the 2 chains add nothing"

let sections =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21);
    ("E22", e22); ("E23", e23); ("E24", e24); ("E25", e25); ("E26", e26);
    ("E27", e27); ("E28", e28); ("E29", e29); ("E30", e30); ("E31", e31) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json, names = List.partition (String.equal "--json") args in
  if json <> [] then Bench_util.json_enabled := true;
  let wanted = match names with [] -> List.map fst sections | ns -> ns in
  Format.printf "RSG experiment harness — see DESIGN.md for the index@.";
  List.iter
    (fun id ->
      match List.assoc_opt id sections with
      | Some f ->
        f ();
        flush_json id
      | None -> Format.printf "unknown section %s@." id)
    wanted;
  Format.printf "@.done.@."
