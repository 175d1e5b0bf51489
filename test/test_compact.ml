(* Tests for the compaction subsystem (Chapter 6): constraint graphs,
   Bellman-Ford, the two constraint generators, slack distribution,
   leaf-cell compaction with pitch variables, the simplex solver and
   contact expansion. *)

open Rsg_geom
open Rsg_compact

let box x0 y0 x1 y1 = Box.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1

let item layer b = { Scanline.layer; box = b }

(* ------------------------------------------------------------------ *)
(* Cgraph + Bellman                                                   *)

let test_bellman_chain () =
  let g = Cgraph.create () in
  let v = Array.init 4 (fun i -> Cgraph.fresh_var g ~init:(10 * i) ()) in
  Array.iter (fun vi -> Cgraph.add_ge g ~from:Cgraph.origin ~to_:vi ~gap:0) v;
  for i = 0 to 2 do
    Cgraph.add_ge g ~from:v.(i) ~to_:v.(i + 1) ~gap:5
  done;
  let r = Bellman.solve g in
  Alcotest.(check (list int)) "leftmost chain" [ 0; 5; 10; 15 ]
    (Array.to_list (Array.map (fun vi -> r.Bellman.values.(vi)) v));
  Alcotest.(check bool) "satisfied" true (Cgraph.satisfied g r.Bellman.values)

let test_bellman_infeasible () =
  let g = Cgraph.create () in
  let a = Cgraph.fresh_var g ~init:0 () and b = Cgraph.fresh_var g ~init:1 () in
  Cgraph.add_ge g ~from:Cgraph.origin ~to_:a ~gap:0;
  Cgraph.add_ge g ~from:a ~to_:b ~gap:5;
  Cgraph.add_ge g ~from:b ~to_:a ~gap:(-2);
  (* a >= b - 2 and b >= a + 5: positive cycle *)
  Alcotest.(check bool) "infeasible" true
    (try ignore (Bellman.solve g); false with Bellman.Infeasible _ -> true)

let test_infeasible_witness () =
  (* the exception names the offending constraint chain so a CLI (or a
     server worker) can print it without access to the solver's graph *)
  let g = Cgraph.create () in
  let a = Cgraph.fresh_var g ~name:"a" ~init:0 () in
  let b = Cgraph.fresh_var g ~name:"b" ~init:1 () in
  Cgraph.add_ge g ~from:Cgraph.origin ~to_:a ~gap:0;
  Cgraph.add_ge g ~from:a ~to_:b ~gap:5;
  Cgraph.add_ge g ~from:b ~to_:a ~gap:(-2);
  let check_witness what w =
    Alcotest.(check bool) (what ^ ": non-empty") true (w <> []);
    Alcotest.(check bool)
      (what ^ ": positive gain") true
      (Bellman.cycle_gain w > 0);
    let names =
      List.concat_map (fun e -> [ e.Bellman.w_from; e.Bellman.w_to ]) w
    in
    Alcotest.(check bool) (what ^ ": names a") true (List.mem "a" names);
    Alcotest.(check bool) (what ^ ": names b") true (List.mem "b" names);
    let rendered = Format.asprintf "%a" Bellman.pp_witness w in
    Alcotest.(check bool)
      (what ^ ": rendering mentions the cycle") true
      (let has needle =
         let rec scan i =
           i + String.length needle <= String.length rendered
           && (String.sub rendered i (String.length needle) = needle
              || scan (i + 1))
         in
         scan 0
       in
       has "positive constraint cycle" && has "a -> b" && has "b -> a")
  in
  (match Bellman.solve g with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Bellman.Infeasible w -> check_witness "worklist" w);
  match Bellman.solve_fixed g with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Bellman.Infeasible w -> check_witness "fixed" w

let test_bellman_unbounded () =
  let g = Cgraph.create () in
  let _a = Cgraph.fresh_var g ~init:0 () in
  Alcotest.(check bool) "unbounded" true
    (try ignore (Bellman.solve g); false with Bellman.Unbounded _ -> true)

let test_bellman_negative_weights () =
  (* rigid widths need negative back edges *)
  let g = Cgraph.create () in
  let l = Cgraph.fresh_var g ~init:0 () and r = Cgraph.fresh_var g ~init:7 () in
  Cgraph.add_ge g ~from:Cgraph.origin ~to_:l ~gap:2;
  Cgraph.add_eq g ~from:l ~to_:r ~gap:7;
  let sol = Bellman.solve g in
  Alcotest.(check int) "left" 2 sol.Bellman.values.(l);
  Alcotest.(check int) "right" 9 sol.Bellman.values.(r)

(* the worklist solver must agree with the fixed-pass reference on
   random feasible systems, for every edge ordering, while never
   examining more edges *)
let prop_worklist_matches_fixed =
  let gen_graph =
    QCheck.make
      QCheck.Gen.(
        fun st ->
          let n = int_range 2 20 st in
          let g = Cgraph.create () in
          let v =
            Array.init n (fun _ -> Cgraph.fresh_var g ~init:(int_range 0 100 st) ())
          in
          Array.iter
            (fun vi -> Cgraph.add_ge g ~from:Cgraph.origin ~to_:vi ~gap:0)
            v;
          let m = int_range 0 (3 * n) st in
          for _ = 1 to m do
            (* forward edges only: always feasible *)
            let i = int_range 0 (n - 2) st in
            let j = int_range (i + 1) (n - 1) st in
            Cgraph.add_ge g ~from:v.(i) ~to_:v.(j) ~gap:(int_range (-4) 12 st)
          done;
          g)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"worklist matches fixed-pass solver"
       gen_graph (fun g ->
         List.for_all
           (fun order ->
             let w = Bellman.solve ~order g in
             let f = Bellman.solve_fixed ~order g in
             w.Bellman.values = f.Bellman.values
             && w.Bellman.scans <= f.Bellman.scans)
           [ Bellman.Sorted_by_abscissa; Bellman.Insertion;
             Bellman.Reverse_sorted ]))

(* On arbitrary systems (back edges included, so some are infeasible)
   the two solvers agree on the least solution or both find a positive
   cycle, and every witness they raise really gains. *)
let prop_solvers_agree_or_both_infeasible =
  let gen_graph =
    QCheck.make
      QCheck.Gen.(
        fun st ->
          let n = int_range 2 12 st in
          let g = Cgraph.create () in
          let v =
            Array.init n (fun _ -> Cgraph.fresh_var g ~init:(int_range 0 50 st) ())
          in
          Array.iter
            (fun vi -> Cgraph.add_ge g ~from:Cgraph.origin ~to_:vi ~gap:0)
            v;
          for _ = 1 to int_range 0 (3 * n) st do
            let i = int_range 0 (n - 1) st and j = int_range 0 (n - 1) st in
            Cgraph.add_ge g ~from:v.(i) ~to_:v.(j) ~gap:(int_range (-8) 6 st)
          done;
          g)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"worklist and fixed-pass agree or both infeasible" gen_graph
       (fun g ->
         let outcome solve =
           match solve () with
           | r -> Ok r.Bellman.values
           | exception Bellman.Infeasible w -> Error (Bellman.cycle_gain w)
         in
         List.for_all
           (fun order ->
             match
               ( outcome (fun () -> Bellman.solve ~order g),
                 outcome (fun () -> Bellman.solve_fixed ~order g) )
             with
             | Ok w, Ok f -> w = f
             | Error gw, Error gf -> gw > 0 && gf > 0
             | _ -> false)
           [ Bellman.Sorted_by_abscissa; Bellman.Insertion;
             Bellman.Reverse_sorted ]))

(* The list-based worklist solver the flat one replaced, kept only as
   an oracle for its visiting order: on graphs full of tied abscissas
   (where the sort's tie order shows) both must report the same
   passes, relaxations and scans for every order. *)
let reference_solve order g =
  let edges = Array.of_list (Cgraph.constraints g) in
  let key (c : Cgraph.constr) = Cgraph.init_value g c.Cgraph.c_from in
  (match order with
  | Bellman.Insertion -> ()
  | Bellman.Sorted_by_abscissa ->
    Array.sort (fun a b -> Int.compare (key a) (key b)) edges
  | Bellman.Reverse_sorted ->
    Array.sort (fun a b -> Int.compare (key b) (key a)) edges);
  let n = Cgraph.n_vars g in
  let out = Array.make n [] in
  for i = Array.length edges - 1 downto 0 do
    let f = edges.(i).Cgraph.c_from in
    out.(f) <- i :: out.(f)
  done;
  let x = Array.make n min_int in
  x.(Cgraph.origin) <- 0;
  let passes = ref 0 and relaxations = ref 0 and scans = ref 0 in
  let frontier = ref [ Cgraph.origin ] in
  while !frontier <> [] && !passes <= n do
    incr passes;
    let next = ref [] in
    List.iter
      (fun i ->
        incr scans;
        let c = edges.(i) in
        let xf = x.(c.Cgraph.c_from) in
        if xf > min_int && xf + c.Cgraph.c_gap > x.(c.Cgraph.c_to) then begin
          x.(c.Cgraph.c_to) <- xf + c.Cgraph.c_gap;
          incr relaxations;
          if not (List.mem c.Cgraph.c_to !next) then next := c.Cgraph.c_to :: !next
        end)
      (List.sort_uniq Int.compare (List.concat_map (fun v -> out.(v)) !frontier));
    frontier := !next
  done;
  if !frontier <> [] then None else Some (x, !passes, !relaxations, !scans)

let prop_worklist_visits_reference_order =
  let gen_graph =
    QCheck.make
      QCheck.Gen.(
        fun st ->
          let n = int_range 2 16 st in
          let g = Cgraph.create () in
          let v = Array.init n (fun _ -> Cgraph.fresh_var g ~init:(int_range 0 3 st) ()) in
          Array.iter (fun vi -> Cgraph.add_ge g ~from:Cgraph.origin ~to_:vi ~gap:0) v;
          for _ = 1 to int_range 0 (4 * n) st do
            let i = int_range 0 (n - 1) st and j = int_range 0 (n - 1) st in
            Cgraph.add_ge g ~from:v.(i) ~to_:v.(j) ~gap:(int_range (-9) 5 st)
          done;
          g)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"worklist visits the reference order"
       gen_graph (fun g ->
         List.for_all
           (fun order ->
             match (Bellman.solve ~order g, reference_solve order g) with
             | r, Some (x, p, rl, sc) ->
               r.Bellman.values = x && r.Bellman.passes = p
               && r.Bellman.relaxations = rl && r.Bellman.scans = sc
             | _, None -> false
             | exception Bellman.Infeasible _ -> reference_solve order g = None)
           [ Bellman.Sorted_by_abscissa; Bellman.Insertion;
             Bellman.Reverse_sorted ]))

let test_sorted_edge_speedup () =
  (* Section 6.4.2: with edges sorted by initial abscissa, a long
     already-ordered chain relaxes in one effective pass. *)
  let build () =
    let g = Cgraph.create () in
    let n = 60 in
    let v = Array.init n (fun i -> Cgraph.fresh_var g ~init:(10 * i) ()) in
    Array.iter (fun vi -> Cgraph.add_ge g ~from:Cgraph.origin ~to_:vi ~gap:0) v;
    for i = 0 to n - 2 do
      Cgraph.add_ge g ~from:v.(i) ~to_:v.(i + 1) ~gap:4
    done;
    g
  in
  let sorted = Bellman.solve ~order:Bellman.Sorted_by_abscissa (build ()) in
  let reversed = Bellman.solve ~order:Bellman.Reverse_sorted (build ()) in
  Alcotest.(check bool) "sorted is few passes" true (sorted.Bellman.passes <= 3);
  Alcotest.(check bool) "reversed needs many" true
    (reversed.Bellman.passes > 10);
  Alcotest.(check (array int)) "same solution" sorted.Bellman.values
    reversed.Bellman.values

(* The balanced-set sweep the array sweep replaced, kept only as an
   oracle: nets, DRC and extraction depend on the order pairs are
   reported in, not just on the set. *)
let reference_sweep ~halo (boxes : Box.t array) =
  let module IS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let n = Array.length boxes in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = Int.compare boxes.(i).Box.xmin boxes.(j).Box.xmin in
      if c <> 0 then c else Int.compare i j)
    order;
  let active = ref IS.empty and exits = ref IS.empty and out = ref [] in
  Array.iter
    (fun i ->
      let b = boxes.(i) in
      let rec purge () =
        match IS.min_elt_opt !exits with
        | Some ((x, j) as e) when x < b.Box.xmin ->
          exits := IS.remove e !exits;
          active := IS.remove (boxes.(j).Box.ymin, j) !active;
          purge ()
        | _ -> ()
      in
      purge ();
      IS.iter
        (fun (ymin, j) ->
          if ymin <= b.Box.ymax + halo && boxes.(j).Box.ymax >= b.Box.ymin - halo
          then out := (j, i) :: !out)
        !active;
      active := IS.add (b.Box.ymin, i) !active;
      exits := IS.add (b.Box.xmax + halo, i) !exits)
    order;
  List.rev !out

(* Boxes around an origin that may sit at +-2^40, on a field dense
   (30) or sparse (300) for its count, with one box in ten thrown a
   further 2^40 away, so sort keys span far past the field. *)
let prop_sweep_matches_reference =
  let far = 1 lsl 40 in
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* halo = int_range (-2) 4 and* n = int_range 0 300 in
        let* field = oneofl [ 30; 300 ]
        and* origin = oneofl [ 0; -150; far; -far ] in
        let* boxes =
          list_size (return n)
            (let* x = int_range 0 field and* y = int_range 0 field in
             let* w = int_range 0 8 and* h = int_range 0 8 in
             let* throw = int_range 0 19 in
             let x =
               origin + x + (match throw with 0 -> far | 1 -> -far | _ -> 0)
             and y = origin + y in
             return (box x y (x + w) (y + h)))
        in
        return (halo, Array.of_list boxes))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"sweep reports the reference pairs in order"
       gen (fun (halo, boxes) ->
         let got = ref [] in
         Scanline.sweep_pairs ~halo boxes (fun j i -> got := (j, i) :: !got);
         List.rev !got = reference_sweep ~halo boxes))

(* [order_by] against a stable sort on the key alone.  Keys cover
   duplicates, negatives, spans right at and past the packing limit
   (max - min) * n + n - 1 <= max_int (the comparison fallback), and
   counts on both sides of the insertion-sort cutoff. *)
let prop_order_by_matches_stable_sort =
  let gen =
    QCheck.make
      ~print:QCheck.Print.(array int)
      QCheck.Gen.(
        let* n = int_range 0 300 in
        let limit = (max_int - (n - 1)) / max n 1 in
        let* key =
          oneofl
            [ int_range (-5) 5;
              int_range (-1_000_000) 1_000_000;
              oneofl [ 0; limit ];
              oneofl [ -1; limit ];
              oneofl [ min_int; -1; 0; max_int ] ]
        in
        array_size (return n) key)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"order_by is a stable sort by key" gen
       (fun keys ->
         let n = Array.length keys in
         Array.to_list (Scanline.order_by n (fun i -> keys.(i)))
         = List.stable_sort
             (fun i j -> Int.compare keys.(i) keys.(j))
             (List.init n Fun.id)))

(* ------------------------------------------------------------------ *)
(* Constraint generation                                              *)

let test_fragmented_bus () =
  (* Figure 6.5: an abutting 5-fragment diffusion bus.  The naive
     generator forces each fragment a full spacing from every other;
     the visibility generator lets the bus shrink to one fragment's
     width. *)
  let fragments =
    Array.init 5 (fun i -> item Layer.Diffusion (box (4 * i) 0 (4 * (i + 1)) 3))
  in
  let naive =
    Compactor.compact ~method_:Scanline.Naive Rules.default fragments
  in
  let vis =
    Compactor.compact ~method_:Scanline.Visibility Rules.default fragments
  in
  Alcotest.(check int) "width before" 20 naive.Compactor.width_before;
  (* naive: 5 fragments, each 4 wide, 3 apart: 5*4 + 4*3 *)
  Alcotest.(check int) "naive overconstrained" 32 naive.Compactor.width_after;
  Alcotest.(check int) "visibility collapses to min width" 4
    vis.Compactor.width_after

let test_spacing_compaction () =
  (* two separate metal wires drift together to minimum spacing *)
  let items =
    [| item Layer.Metal (box 0 0 3 10); item Layer.Metal (box 20 0 23 10) |]
  in
  let r = Compactor.compact Rules.default items in
  Alcotest.(check int) "compacted to min spacing" 9 r.Compactor.width_after;
  Alcotest.(check (list (of_pp Fmt.nop))) "no violations" []
    (Scanline.check Rules.default r.Compactor.items)

let test_device_frozen () =
  (* poly crossing diffusion is a transistor: relative geometry must
     survive compaction *)
  let items =
    [| item Layer.Diffusion (box 5 0 9 12); item Layer.Poly (box 2 4 12 6) |]
  in
  let r = Compactor.compact Rules.default items in
  let d = r.Compactor.items.(0).Scanline.box
  and p = r.Compactor.items.(1).Scanline.box in
  Alcotest.(check int) "gate offset preserved" 3 (d.Box.xmin - p.Box.xmin);
  Alcotest.(check int) "gate width preserved" 10 (Box.width p)

let test_contact_enclosure () =
  (* a contact cut inside metal keeps its enclosure margin *)
  let items =
    [| item Layer.Metal (box 0 0 8 8); item Layer.Contact_cut (box 3 3 5 5) |]
  in
  let r = Compactor.compact Rules.default items in
  let m = r.Compactor.items.(0).Scanline.box
  and c = r.Compactor.items.(1).Scanline.box in
  Alcotest.(check bool) "cut enclosed" true
    (c.Box.xmin - m.Box.xmin >= 1 && m.Box.xmax - c.Box.xmax >= 1)

let test_checker_finds_violations () =
  let bad =
    [| item Layer.Metal (box 0 0 3 10); item Layer.Metal (box 4 0 7 10) |]
  in
  Alcotest.(check int) "one violation" 1
    (List.length (Scanline.check Rules.default bad));
  let good =
    [| item Layer.Metal (box 0 0 3 10); item Layer.Metal (box 6 0 9 10) |]
  in
  Alcotest.(check int) "no violation" 0
    (List.length (Scanline.check Rules.default good))

let test_compaction_is_legal () =
  (* a small jumble of wires compacts to a violation-free layout *)
  let items =
    [| item Layer.Metal (box 0 0 3 20);
       item Layer.Metal (box 10 0 13 20);
       item Layer.Metal (box 20 5 23 15);
       item Layer.Poly (box 30 0 32 20);
       item Layer.Diffusion (box 40 2 44 18) |]
  in
  let r = Compactor.compact Rules.default items in
  Alcotest.(check bool) "narrower" true
    (r.Compactor.width_after < r.Compactor.width_before);
  Alcotest.(check (list (of_pp Fmt.nop))) "legal" []
    (Scanline.check Rules.default r.Compactor.items)

let test_stretchable_bus () =
  (* bus sizing: a stretchable box shrinks to the rule width *)
  let items = [| item Layer.Metal (box 0 0 12 10) |] in
  let r =
    Compactor.compact ~stretchable:(fun _ -> true) Rules.default items
  in
  Alcotest.(check int) "shrunk to min width" 3 r.Compactor.width_after

(* ------------------------------------------------------------------ *)
(* Slack distribution (fig 6.8)                                       *)

let jog_items () =
  [| item Layer.Metal (box 0 0 4 2);     (* obstacle *)
     item Layer.Metal (box 10 0 13 2);   (* wire segment A *)
     item Layer.Metal (box 10 2 13 4);   (* wire segment B *)
     item Layer.Metal (box 10 4 13 6) |] (* wire segment C *)

let test_leftmost_worsens_jog () =
  let r = Compactor.compact Rules.default (jog_items ()) in
  Alcotest.(check int) "input has no jogs" 0
    (Compactor.jog_metric (jog_items ()));
  Alcotest.(check bool) "leftmost packing creates jogs" true
    (Compactor.jog_metric r.Compactor.items > 0)

let test_slack_distribution_repairs_jog () =
  let packed = Compactor.compact Rules.default (jog_items ()) in
  let eased =
    Compactor.compact ~distribute_slack:true Rules.default (jog_items ())
  in
  Alcotest.(check bool) "same width" true
    (eased.Compactor.width_after = packed.Compactor.width_after);
  Alcotest.(check bool) "fewer jogs" true
    (Compactor.jog_metric eased.Compactor.items
    < Compactor.jog_metric packed.Compactor.items);
  Alcotest.(check (list (of_pp Fmt.nop))) "still legal" []
    (Scanline.check Rules.default eased.Compactor.items)

let test_jog_golden () =
  (* golden numbers for the Figure 6.8 example: leftmost packing
     reaches width 10 at 2 jogs; slack distribution keeps the width
     and repairs one of them *)
  let packed = Compactor.compact Rules.default (jog_items ()) in
  let eased =
    Compactor.compact ~distribute_slack:true Rules.default (jog_items ())
  in
  Alcotest.(check int) "leftmost width" 10 packed.Compactor.width_after;
  Alcotest.(check int) "leftmost jogs" 2
    (Compactor.jog_metric packed.Compactor.items);
  Alcotest.(check int) "eased width" 10 eased.Compactor.width_after;
  Alcotest.(check int) "eased jogs" 1
    (Compactor.jog_metric eased.Compactor.items)

(* slack distribution is a repair pass inside the achieved width: on
   any layout it may never widen the result and must keep it legal.
   (A universal "never worsens the jog metric" is NOT a theorem:
   centring a box that happens to be vertically adjacent to an aligned
   run introduces a counted misalignment — the jog repair claim is the
   deterministic Figure 6.8 tests' job.) *)
let prop_slack_never_worse =
  let gen_items =
    QCheck.make
      QCheck.Gen.(
        let gen_item =
          let* l = oneofl [ Layer.Metal; Layer.Poly; Layer.Diffusion ] in
          let* x = int_range 0 60 and* y = int_range 0 40 in
          let* w = int_range 2 10 and* h = int_range 2 10 in
          return (item l (box x y (x + w) (y + h)))
        in
        let* n = int_range 2 12 in
        let* l = list_size (return n) gen_item in
        return (Array.of_list l))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"slack distribution never widens and stays legal" gen_items
       (fun items ->
         match
           ( Compactor.compact Rules.default items,
             Compactor.compact ~distribute_slack:true Rules.default items )
         with
         | packed, eased ->
           eased.Compactor.width_after <= packed.Compactor.width_after
           && ((not (Scanline.check Rules.default items = []))
              || Scanline.check Rules.default eased.Compactor.items = [])
         | exception Bellman.Infeasible _ -> true))

let test_rightmost_bounds () =
  let items = jog_items () in
  let gen = Scanline.generate Rules.default Scanline.Visibility items in
  let lo = (Bellman.solve gen.Scanline.graph).Bellman.values in
  let w = Array.fold_left max 0 lo in
  let hi = Compactor.rightmost gen.Scanline.graph ~width:w in
  Alcotest.(check bool) "hi >= lo everywhere" true
    (Array.for_all2 (fun a b -> b >= a) lo hi);
  Alcotest.(check bool) "hi satisfies constraints" true
    (Cgraph.satisfied gen.Scanline.graph hi)

(* ------------------------------------------------------------------ *)
(* Simplex                                                            *)

let test_simplex_basic () =
  (* min x + y  s.t. x >= 2, y >= 3, x + y >= 7 *)
  let p =
    { Simplex.n_vars = 2;
      objective = [| 1.0; 1.0 |];
      constraints =
        [ ([| 1.0; 0.0 |], 2.0); ([| 0.0; 1.0 |], 3.0); ([| 1.0; 1.0 |], 7.0) ] }
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "objective" 7.0 objective
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_free_vars () =
  (* min x  s.t. x >= -5 : free variables go negative *)
  let p =
    { Simplex.n_vars = 1;
      objective = [| 1.0 |];
      constraints = [ ([| 1.0 |], -5.0) ] }
  in
  match Simplex.solve p with
  | Simplex.Optimal { z; _ } ->
    Alcotest.(check (float 1e-6)) "x = -5" (-5.0) z.(0)
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_infeasible () =
  let p =
    { Simplex.n_vars = 1;
      objective = [| 1.0 |];
      constraints = [ ([| 1.0 |], 4.0); ([| -1.0 |], -2.0) ] }
  in
  (* x >= 4 and x <= 2 *)
  Alcotest.(check bool) "infeasible" true
    (match Simplex.solve p with Simplex.Infeasible -> true | _ -> false)

let test_simplex_unbounded () =
  let p =
    { Simplex.n_vars = 1;
      objective = [| -1.0 |];
      constraints = [ ([| 1.0 |], 0.0) ] }
  in
  (* max x, x >= 0 *)
  Alcotest.(check bool) "unbounded" true
    (match Simplex.solve p with Simplex.Unbounded -> true | _ -> false)

let test_simplex_difference_constraints () =
  (* the shape leaf compaction emits: min l s.t. b - a >= 3,
     l - (b - a) >= 2, a = 0  => l = 5 *)
  let p =
    { Simplex.n_vars = 3;
      objective = [| 0.0; 0.0; 1.0 |];
      constraints =
        [ ([| -1.0; 1.0; 0.0 |], 3.0);
          ([| 1.0; -1.0; 1.0 |], 2.0);
          ([| 1.0; 0.0; 0.0 |], 0.0);
          ([| -1.0; 0.0; 0.0 |], 0.0) ] }
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "lambda = 5" 5.0 objective
  | _ -> Alcotest.fail "expected optimum"

(* ------------------------------------------------------------------ *)
(* Leaf-cell compaction                                               *)

let two_bar_cell () =
  let c = Rsg_layout.Cell.create "leafcell" in
  Rsg_layout.Cell.add_box c Layer.Metal (box 0 4 10 6);
  Rsg_layout.Cell.add_box c Layer.Metal (box 4 0 14 2);
  c

let test_leaf_pitch_shrinks () =
  let spec = { Leaf.p_index = 1; p_dx = 20; p_dy = 0; p_weight = 100 } in
  let r = Leaf.compact Rules.default (two_bar_cell ()) ~pitches:[ spec ] in
  Alcotest.(check int) "pitch before" 20 (List.assoc 1 r.Leaf.pitch_before);
  Alcotest.(check int) "pitch compacted" 13 (List.assoc 1 r.Leaf.pitches);
  Alcotest.(check bool) "strip is legal" true
    (Leaf.verify Rules.default r ~pitches:[ spec ]);
  (* the simplex agrees with the iterative pitch *)
  match r.Leaf.lp_pitches with
  | Some [ (1, lp) ] -> Alcotest.(check (float 0.01)) "lp pitch" 13.0 lp
  | _ -> Alcotest.fail "expected LP pitch"

let test_leaf_identical_instances () =
  (* all instances share one geometry by construction: tiling the
     compacted cell at the compacted pitch has no violations over a
     long strip *)
  let spec = { Leaf.p_index = 1; p_dx = 30; p_dy = 0; p_weight = 10 } in
  let cell = two_bar_cell () in
  let r = Leaf.compact Rules.default cell ~pitches:[ spec ] in
  let items = Scanline.items_of_cell r.Leaf.cell in
  let pitch = List.assoc 1 r.Leaf.pitches in
  let strip =
    Array.concat
      (List.init 6 (fun k ->
           Array.map
             (fun (it : Scanline.item) ->
               { it with
                 Scanline.box =
                   Box.translate (Vec.make (k * pitch) 0) it.Scanline.box })
             items))
  in
  Alcotest.(check (list (of_pp Fmt.nop))) "6-instance strip legal" []
    (Scanline.check Rules.default strip)

let test_leaf_vertical_via_transpose () =
  (* y-direction leaf compaction = x compaction of the transposed
     cell: the multiplier cell's vertical pitch (64) tightens too *)
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let basic =
    Rsg_layout.Db.find_exn sample.Rsg_core.Sample.db
      Rsg_mult.Sample_lib.basic_cell
  in
  let transposed =
    Rsg_layout.Reorient.cell Rsg_layout.Reorient.transpose basic
  in
  let specs =
    [ { Leaf.p_index = 1; p_dx = Rsg_mult.Sample_lib.cell_height; p_dy = 0;
        p_weight = 100 } ]
  in
  let r = Leaf.compact Rules.default transposed ~pitches:specs in
  let pitch = List.assoc 1 r.Leaf.pitches in
  (* the cell is drawn full-height (rails on both edges), so the
     vertical pitch is already minimal: the compactor must neither
     grow it nor break the strip *)
  Alcotest.(check int) "vertical pitch already minimal"
    Rsg_mult.Sample_lib.cell_height pitch;
  Alcotest.(check bool) "strip legal" true
    (Leaf.verify Rules.default r ~pitches:specs);
  (* under the tighter process the rail spacing relaxes and the pitch
     does shrink *)
  let r' = Leaf.compact Rules.tight transposed ~pitches:specs in
  Alcotest.(check bool) "tight process shrinks or holds" true
    (List.assoc 1 r'.Leaf.pitches <= pitch);
  Alcotest.(check bool) "tight strip legal" true
    (Leaf.verify Rules.tight r' ~pitches:specs)

let test_leaf_compacts_real_multiplier_cell () =
  (* the thesis's motivating case: transport the multiplier's actual
     basic cell to both rule sets, with legal strips at the new pitch *)
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let basic =
    Rsg_layout.Db.find_exn sample.Rsg_core.Sample.db
      Rsg_mult.Sample_lib.basic_cell
  in
  let specs =
    [ { Leaf.p_index = 1; p_dx = Rsg_mult.Sample_lib.cell_width; p_dy = 0;
        p_weight = 100 } ]
  in
  List.iter
    (fun rules ->
      let r = Leaf.compact rules basic ~pitches:specs in
      let pitch = List.assoc 1 r.Leaf.pitches in
      Alcotest.(check bool) "pitch shrank" true
        (pitch < Rsg_mult.Sample_lib.cell_width);
      Alcotest.(check bool) "strip legal" true
        (Leaf.verify rules r ~pitches:specs))
    [ Rules.default; Rules.tight ]

let tradeoff_cell () =
  (* T high bar and B low bar; the diagonal pitch wants B pushed
     right, the position cost wants it left *)
  let c = Rsg_layout.Cell.create "tradeoff" in
  Rsg_layout.Cell.add_box c Layer.Metal (box 8 6 12 8);  (* T *)
  Rsg_layout.Cell.add_box c Layer.Metal (box 0 0 4 2);   (* B *)
  c

let test_leaf_cost_function_tradeoff () =
  (* Figures 6.1/6.2: the optimal pitches depend on the replication
     weights.  A heavier weight on the diagonal pitch buys it down. *)
  let run w2 =
    let specs =
      [ { Leaf.p_index = 1; p_dx = 16; p_dy = 0; p_weight = 1 };
        { Leaf.p_index = 2; p_dx = 14; p_dy = 6; p_weight = w2 } ]
    in
    let r = Leaf.compact Rules.default (tradeoff_cell ()) ~pitches:specs in
    match r.Leaf.lp_pitches with
    | Some ps -> List.assoc 2 ps
    | None -> Alcotest.fail "no LP solution"
  in
  let light = run 1 and heavy = run 100 in
  Alcotest.(check bool)
    (Printf.sprintf "heavy weight shrinks pitch 2 (%.2f -> %.2f)" light heavy)
    true (heavy < light -. 0.5)

let test_leaf_vs_flat_cost () =
  (* compacting the leaf once generates far fewer constraints than
     compacting an assembled strip (section 6.1) *)
  let cell = two_bar_cell () in
  let spec = { Leaf.p_index = 1; p_dx = 20; p_dy = 0; p_weight = 1 } in
  let leaf = Leaf.compact Rules.default cell ~pitches:[ spec ] in
  let items = Scanline.items_of_cell cell in
  let flat n =
    Array.concat
      (List.init n (fun k ->
           Array.map
             (fun (it : Scanline.item) ->
               { it with
                 Scanline.box = Box.translate (Vec.make (k * 20) 0) it.Scanline.box })
             items))
  in
  let r50 = Compactor.compact Rules.default (flat 50) in
  Alcotest.(check bool) "flat constraints grow with replication" true
    (r50.Compactor.n_constraints > 10 * leaf.Leaf.n_constraints)

(* ------------------------------------------------------------------ *)
(* Contact expansion (fig 6.9)                                        *)

let test_contact_expansion_counts () =
  (* default rules: cut 2, spacing 2, overlap 1.  A w-wide contact
     fits 1 + (w - 2 - 2)/4 cuts per axis. *)
  let count w h =
    List.length (Expand_contact.cuts_for Rules.default (box 0 0 w h))
  in
  Alcotest.(check int) "4x4 -> 1 cut" 1 (count 4 4);
  Alcotest.(check int) "8x4 -> 2 cuts" 2 (count 8 4);
  Alcotest.(check int) "12x4 -> 3" 3 (count 12 4);
  Alcotest.(check int) "8x8 -> 4" 4 (count 8 8);
  Alcotest.(check int) "12x8 -> 6" 6 (count 12 8)

let test_contact_expansion_geometry () =
  let b = box 0 0 8 4 in
  let expanded = Expand_contact.expand_box Rules.default b in
  let metals = List.filter (fun (l, _) -> l = Layer.Metal) expanded in
  let cuts = List.filter (fun (l, _) -> l = Layer.Contact_cut) expanded in
  Alcotest.(check int) "one metal plate" 1 (List.length metals);
  List.iter
    (fun (_, cut) ->
      Alcotest.(check bool) "cut inside with margin" true
        (cut.Box.xmin >= 1 && cut.Box.xmax <= 7 && cut.Box.ymin >= 1
        && cut.Box.ymax <= 3))
    cuts;
  (* cuts respect mutual spacing *)
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter
    (fun ((_, a), (_, b)) ->
      Alcotest.(check bool) "cut spacing" true
        (b.Box.xmin - a.Box.xmax >= 2 || a.Box.xmin - b.Box.xmax >= 2
        || b.Box.ymin - a.Box.ymax >= 2 || a.Box.ymin - b.Box.ymax >= 2))
    (pairs cuts)

let test_contact_too_small () =
  Alcotest.(check bool) "tiny contact rejected" true
    (try ignore (Expand_contact.cuts_for Rules.default (box 0 0 3 3)); false
     with Invalid_argument _ -> true)

let test_expand_cell () =
  let c = Rsg_layout.Cell.create "withcontact" in
  Rsg_layout.Cell.add_box c Layer.Contact (box 0 0 8 8);
  Rsg_layout.Cell.add_box c Layer.Metal (box 20 0 23 3);
  let out = Expand_contact.expand_cell Rules.default c in
  let layers = List.map fst (Rsg_layout.Cell.boxes out) in
  Alcotest.(check bool) "no synthetic layer remains" true
    (not (List.mem Layer.Contact layers));
  Alcotest.(check int) "boxes" (1 + 2 + 4) (List.length layers)

(* ------------------------------------------------------------------ *)
(* Two-dimensional (alternating) compaction                           *)

let test_transpose_involution () =
  let items =
    [| item Layer.Metal (box 0 0 3 10); item Layer.Poly (box 5 (-2) 9 4) |]
  in
  let back = Scanline.transpose (Scanline.transpose items) in
  Alcotest.(check bool) "involution" true
    (Array.for_all2
       (fun (a : Scanline.item) (b : Scanline.item) ->
         a.Scanline.layer = b.Scanline.layer && Box.equal a.Scanline.box b.Scanline.box)
       items back);
  Alcotest.(check int) "width becomes height" (Scanline.width items)
    (Scanline.height (Scanline.transpose items))

let test_compact_xy () =
  let scattered =
    [| item Layer.Metal (box 0 0 3 10);
       item Layer.Metal (box 20 20 23 30);
       item Layer.Poly (box 10 40 14 44);
       item Layer.Diffusion (box 30 5 34 9) |]
  in
  let r = Compactor.compact_xy Rules.default scattered in
  Alcotest.(check bool) "area shrinks" true
    (r.Compactor.area_after < r.Compactor.area_before);
  Alcotest.(check (list (of_pp Fmt.nop))) "legal in x" []
    (Scanline.check Rules.default r.Compactor.items2);
  Alcotest.(check (list (of_pp Fmt.nop))) "legal in y" []
    (Scanline.check Rules.default (Scanline.transpose r.Compactor.items2));
  (* a second run finds nothing more (greedy fixpoint) *)
  let r2 = Compactor.compact_xy Rules.default r.Compactor.items2 in
  Alcotest.(check int) "idempotent" r.Compactor.area_after
    r2.Compactor.area_after

let test_compact_xy_beats_1d () =
  (* a staircase that 1-D x compaction barely helps but x+y collapses *)
  let stair =
    Array.init 4 (fun i -> item Layer.Metal (box (20 * i) (20 * i) ((20 * i) + 3) ((20 * i) + 10)))
  in
  let x_only = Compactor.compact Rules.default stair in
  let xy = Compactor.compact_xy Rules.default stair in
  let x_area =
    Scanline.width x_only.Compactor.items * Scanline.height x_only.Compactor.items
  in
  Alcotest.(check bool) "xy beats x alone" true
    (xy.Compactor.area_after < x_area)

let prop_compaction_legal_random =
  (* random box soups compact to legal layouts and never grow *)
  let gen_items =
    QCheck.make
      QCheck.Gen.(
        let gen_item =
          let* l = oneofl [ Layer.Metal; Layer.Poly; Layer.Diffusion ] in
          let* x = int_range 0 60 and* y = int_range 0 40 in
          let* w = int_range 2 10 and* h = int_range 2 10 in
          return (item l (box x y (x + w) (y + h)))
        in
        let* n = int_range 2 12 in
        let* l = list_size (return n) gen_item in
        return (Array.of_list l))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"random layouts compact legally"
       gen_items (fun items ->
         match Compactor.compact Rules.default items with
         | r ->
           let legal_in = Scanline.check Rules.default items = [] in
           Scanline.check Rules.default r.Compactor.items = []
           (* width never grows for legal inputs; an illegal input may
              legitimately widen while being legalised *)
           && ((not legal_in)
              || r.Compactor.width_after <= r.Compactor.width_before)
         | exception Bellman.Infeasible _ ->
           (* contradictory device-freeze + connectivity systems from
              pathological overlaps; rejecting is fine *)
           true))

(* ------------------------------------------------------------------ *)
(* Golden kernel digests                                              *)

(* The constraint sequences Scanline.generate emits, Bellman's outcome
   on them and the witnesses of planted positive cycles are pinned by
   digest: cached cgraphs, compacted layouts and search scores all
   rest on them, so a rewrite of Cgraph, Bellman, Rules or Scanline
   must reproduce every one bit for bit. *)

let graph_text g =
  let b = Buffer.create 4096 in
  Printf.bprintf b "n%d:" (Cgraph.n_vars g);
  for v = 0 to Cgraph.n_vars g - 1 do
    Printf.bprintf b "%d," (Cgraph.init_value g v)
  done;
  List.iter
    (fun (c : Cgraph.constr) ->
      Printf.bprintf b "%d>%d:%d;" c.Cgraph.c_from c.Cgraph.c_to c.Cgraph.c_gap)
    (Cgraph.constraints g);
  Buffer.contents b

let all_orders =
  [ Bellman.Insertion; Bellman.Sorted_by_abscissa; Bellman.Reverse_sorted ]

let both_solvers =
  [ (fun order g -> Bellman.solve ~order g);
    (fun order g -> Bellman.solve_fixed ~order g) ]

let outcome_text g =
  List.concat_map
    (fun solve ->
      List.map
        (fun order ->
          match solve order g with
          | r ->
            Printf.sprintf "p%d r%d s%d v%s" r.Bellman.passes
              r.Bellman.relaxations r.Bellman.scans
              (String.concat ","
                 (Array.to_list (Array.map string_of_int r.Bellman.values)))
          | exception Bellman.Infeasible w ->
            Format.asprintf "%a" Bellman.pp_witness w
          | exception Bellman.Unbounded v -> Printf.sprintf "unbounded %d" v)
        all_orders)
    both_solvers
  |> String.concat "|"

let hex_of texts = Digest.to_hex (Digest.string (String.concat "\n" texts))

(* every distinct prototype's x and transposed-y graphs *)
let proto_graphs cell =
  let protos = Rsg_layout.Flatten.prototypes cell in
  let order = Array.of_list (Rsg_layout.Flatten.protos_order protos) in
  let rep = Rsg_layout.Flatten.representatives protos in
  List.concat
    (List.filteri
       (fun i _ -> rep.(i) = i)
       (Array.to_list
          (Array.map
             (fun c ->
               let items =
                 Scanline.items_of_flat (Rsg_layout.Flatten.proto_flat protos c)
               in
               List.map
                 (fun its ->
                   (Scanline.generate Rules.default Scanline.Visibility its)
                     .Scanline.graph)
                 [ items; Scanline.transpose items ])
             order)))

(* a seeded soup over every layer, through both generators, with some
   boxes stretchable *)
let soup_graphs () =
  let st = Random.State.make [| 15 |] in
  let layers = Array.of_list Layer.all in
  let items =
    Array.init 90 (fun _ ->
        let x = Random.State.int st 160 and y = Random.State.int st 120 in
        item
          layers.(Random.State.int st (Array.length layers))
          (box x y (x + 1 + Random.State.int st 14) (y + 1 + Random.State.int st 14)))
  in
  List.concat_map
    (fun its ->
      List.map
        (fun m ->
          (Scanline.generate
             ~stretchable:(fun i -> i mod 3 = 0)
             Rules.default m its)
            .Scanline.graph)
        [ Scanline.Visibility; Scanline.Naive ])
    [ items; Scanline.transpose items ]

let kernel_families () =
  let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
  [ ("pla", proto_graphs (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell);
    ("decoder", proto_graphs (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
    ( "ram",
      proto_graphs
        (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell );
    ( "mult4",
      proto_graphs
        (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
          .Rsg_mult.Layout_gen.whole );
    ("soup", soup_graphs ()) ]

(* recorded before the flat-array rewrite of the kernels *)
let golden_kernels =
  [ ("pla", "58619fcf84cec74e0ac483418a7ca63f",
     "048f27a180d688388c19e8fa84d5d654");
    ("decoder", "ce5fd9b5677eed03aa4e95e5e2a18048",
     "64cd8c262951967e00465603f31b7a30");
    ("ram", "1251690957d75939e9c163a83421d2b8",
     "47c87b11924c4d2ce098d9f77f5b7705");
    ("mult4", "82ff962fc40cd16dbec77f86d1954091",
     "f402f6e5dbb825ee96f04d3061a9744e");
    ("soup", "d928ed68e6408bc341cecf1efb204c11",
     "ac89db12d3da6726e9d8929a68d0a539") ]

let test_golden_kernels () =
  List.iter2
    (fun (name, graphs) (name', gen_hex, solve_hex) ->
      Alcotest.(check string) "family" name' name;
      Alcotest.(check string)
        (name ^ " constraint sequences") gen_hex
        (hex_of (List.map graph_text graphs));
      Alcotest.(check string)
        (name ^ " solver outcomes") solve_hex
        (hex_of (List.map outcome_text graphs)))
    (kernel_families ()) golden_kernels

(* Positive cycles planted in seeded feasible systems, and in a real
   leaf graph (a box whose left edge must clear its own right edge). *)
let planted_graphs () =
  let random seed =
    let st = Random.State.make [| seed |] in
    let n = 12 in
    let g = Cgraph.create () in
    let v =
      Array.init n (fun i ->
          Cgraph.fresh_var g ~name:(Printf.sprintf "x%d" i)
            ~init:(Random.State.int st 100) ())
    in
    Array.iter (fun vi -> Cgraph.add_ge g ~from:Cgraph.origin ~to_:vi ~gap:0) v;
    for _ = 1 to 30 do
      let i = Random.State.int st (n - 1) in
      let j = i + 1 + Random.State.int st (n - 1 - i) in
      Cgraph.add_ge g ~from:v.(i) ~to_:v.(j) ~gap:(Random.State.int st 9 - 2)
    done;
    let a = Random.State.int st 4 and b = 4 + Random.State.int st 4 in
    let c = 8 + Random.State.int st 4 in
    Cgraph.add_ge g ~from:v.(a) ~to_:v.(b) ~gap:3;
    Cgraph.add_ge g ~from:v.(b) ~to_:v.(c) ~gap:2;
    Cgraph.add_ge g ~from:v.(c) ~to_:v.(a) ~gap:(-4);
    g
  in
  let leaf =
    let tt = Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ] in
    let cell = (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell in
    let protos = Rsg_layout.Flatten.prototypes cell in
    let c = List.hd (Rsg_layout.Flatten.protos_order protos) in
    let gen =
      Scanline.generate Rules.default Scanline.Visibility
        (Scanline.items_of_flat (Rsg_layout.Flatten.proto_flat protos c))
    in
    Cgraph.add_ge gen.Scanline.graph ~from:gen.Scanline.right.(0)
      ~to_:gen.Scanline.left.(0) ~gap:1;
    gen.Scanline.graph
  in
  [ random 1; random 2; random 3; leaf ]

let golden_witnesses =
  [ "9f9f723dd628b0b030f0801f316bf6b4"; "efb5e32e6a71654869bfaf8c748bdaa0";
    "66fd12087bf52ea6a9a36eef49b3a60c"; "4d3d558f8704a7824256c3bfb299d858" ]

let test_golden_witnesses () =
  List.iter2
    (fun g expected ->
      List.iter
        (fun solve ->
          List.iter
            (fun order ->
              match solve order g with
              | _ -> Alcotest.fail "planted cycle not detected"
              | exception Bellman.Infeasible w ->
                Alcotest.(check bool) "witness gains" true
                  (Bellman.cycle_gain w > 0))
            all_orders)
        both_solvers;
      Alcotest.(check string) "witnesses" expected (hex_of [ outcome_text g ]))
    (planted_graphs ()) golden_witnesses

(* Rules.spacing answers exactly the deck's listed pairs, symmetrically;
   the interaction horizon and the cache-key digest are pinned. *)
let test_rules_tables () =
  let check name rules listed max_s hex =
    Alcotest.(check int) "eight layers" 8 (List.length Layer.all);
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let expected =
              match List.assoc_opt (a, b) listed with
              | Some s -> Some s
              | None -> List.assoc_opt (b, a) listed
            in
            Alcotest.(check (option int))
              (Printf.sprintf "%s %s-%s" name (Layer.name a) (Layer.name b))
              expected (Rules.spacing rules a b))
          Layer.all)
      Layer.all;
    Alcotest.(check int) (name ^ " max_spacing") max_s (Rules.max_spacing rules);
    Alcotest.(check string) (name ^ " digest") hex
      (Digest.to_hex (Rules.digest rules))
  in
  let pairs m p d pd cut c b i =
    [ ((Layer.Metal, Layer.Metal), m); ((Layer.Poly, Layer.Poly), p);
      ((Layer.Diffusion, Layer.Diffusion), d);
      ((Layer.Diffusion, Layer.Poly), pd);
      ((Layer.Contact_cut, Layer.Contact_cut), cut);
      ((Layer.Contact, Layer.Contact), c); ((Layer.Buried, Layer.Buried), b);
      ((Layer.Implant, Layer.Implant), i) ]
  in
  check "default" Rules.default (pairs 3 2 3 1 2 2 2 2) 3
    "3c63cd60cd1739fbad2316ada421419d";
  check "tight" Rules.tight (pairs 2 1 2 1 1 1 1 1) 2
    "979c7a739c262cce72963f864c26edb0"

let () =
  Alcotest.run "rsg_compact"
    [ ("bellman",
       [ Alcotest.test_case "chain" `Quick test_bellman_chain;
         Alcotest.test_case "infeasible" `Quick test_bellman_infeasible;
         Alcotest.test_case "infeasible witness" `Quick
           test_infeasible_witness;
         Alcotest.test_case "unbounded" `Quick test_bellman_unbounded;
         Alcotest.test_case "negative weights" `Quick
           test_bellman_negative_weights;
         Alcotest.test_case "sorted edge speedup" `Quick
           test_sorted_edge_speedup;
         prop_worklist_matches_fixed;
         prop_solvers_agree_or_both_infeasible;
         prop_worklist_visits_reference_order ]);
      ("kernels",
       [ Alcotest.test_case "golden constraints and solutions" `Quick
           test_golden_kernels;
         Alcotest.test_case "golden infeasibility witnesses" `Quick
           test_golden_witnesses;
         Alcotest.test_case "rule tables" `Quick test_rules_tables ]);
      ("constraints",
       [ Alcotest.test_case "fragmented bus (fig 6.5)" `Quick
           test_fragmented_bus;
         Alcotest.test_case "spacing compaction" `Quick test_spacing_compaction;
         Alcotest.test_case "device frozen" `Quick test_device_frozen;
         Alcotest.test_case "contact enclosure" `Quick test_contact_enclosure;
         Alcotest.test_case "checker" `Quick test_checker_finds_violations;
         Alcotest.test_case "legal output" `Quick test_compaction_is_legal;
         Alcotest.test_case "stretchable bus" `Quick test_stretchable_bus;
         prop_order_by_matches_stable_sort;
         prop_sweep_matches_reference ]);
      ("slack",
       [ Alcotest.test_case "leftmost worsens jogs (fig 6.8)" `Quick
           test_leftmost_worsens_jog;
         Alcotest.test_case "distribution repairs jogs" `Quick
           test_slack_distribution_repairs_jog;
         Alcotest.test_case "fig 6.8 golden jogs" `Quick test_jog_golden;
         prop_slack_never_worse;
         Alcotest.test_case "rightmost bounds" `Quick test_rightmost_bounds ]);
      ("simplex",
       [ Alcotest.test_case "basic" `Quick test_simplex_basic;
         Alcotest.test_case "free variables" `Quick test_simplex_free_vars;
         Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
         Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
         Alcotest.test_case "difference constraints" `Quick
           test_simplex_difference_constraints ]);
      ("leaf",
       [ Alcotest.test_case "pitch shrinks" `Quick test_leaf_pitch_shrinks;
         Alcotest.test_case "identical instances" `Quick
           test_leaf_identical_instances;
         Alcotest.test_case "cost tradeoff (fig 6.1)" `Quick
           test_leaf_cost_function_tradeoff;
         Alcotest.test_case "leaf vs flat cost" `Quick test_leaf_vs_flat_cost;
         Alcotest.test_case "real multiplier cell transports" `Quick
           test_leaf_compacts_real_multiplier_cell;
         Alcotest.test_case "vertical pitch via transpose" `Quick
           test_leaf_vertical_via_transpose ]);
      ("contacts",
       [ Alcotest.test_case "cut counts (fig 6.9)" `Quick
           test_contact_expansion_counts;
         Alcotest.test_case "geometry" `Quick test_contact_expansion_geometry;
         Alcotest.test_case "too small" `Quick test_contact_too_small;
         Alcotest.test_case "expand cell" `Quick test_expand_cell ]);
      ("two-dimensional",
       [ Alcotest.test_case "transpose involution" `Quick
           test_transpose_involution;
         Alcotest.test_case "alternating passes" `Quick test_compact_xy;
         Alcotest.test_case "xy beats 1d" `Quick test_compact_xy_beats_1d;
         prop_compaction_legal_random ]) ]
