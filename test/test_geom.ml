(* Tests for the geometry substrate: vectors, boxes, the D4 orientation
   group of section 2.6 and full transforms. *)

open Rsg_geom

let vec = Alcotest.testable Vec.pp Vec.equal

let box = Alcotest.testable Box.pp Box.equal

let orient = Alcotest.testable Orient.pp Orient.equal

let transform = Alcotest.testable Transform.pp Transform.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)

let gen_orient = QCheck.map ~rev:Orient.to_index Orient.of_index (QCheck.int_range 0 7)

let gen_vec =
  QCheck.map
    ~rev:(fun (v : Vec.t) -> (v.Vec.x, v.Vec.y))
    (fun (x, y) -> Vec.make x y)
    (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50))

let gen_transform =
  QCheck.map
    (fun (o, v) -> Transform.{ orient = o; offset = v })
    (QCheck.pair gen_orient gen_vec)

let gen_box =
  QCheck.map
    (fun ((x, y), (w, h)) -> Box.of_size ~origin:(Vec.make x y) ~width:w ~height:h)
    (QCheck.pair
       (QCheck.pair (QCheck.int_range (-40) 40) (QCheck.int_range (-40) 40))
       (QCheck.pair (QCheck.int_range 0 30) (QCheck.int_range 0 30)))

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Vec unit tests                                                     *)

let test_vec_basics () =
  Alcotest.(check vec) "add" (Vec.make 3 5) (Vec.add (Vec.make 1 2) (Vec.make 2 3));
  Alcotest.(check vec) "sub" (Vec.make (-1) (-1))
    (Vec.sub (Vec.make 1 2) (Vec.make 2 3));
  Alcotest.(check vec) "neg" (Vec.make (-1) 2) (Vec.neg (Vec.make 1 (-2)));
  Alcotest.(check vec) "scale" (Vec.make 4 (-6)) (Vec.scale 2 (Vec.make 2 (-3)));
  Alcotest.(check int) "dot" 11 (Vec.dot (Vec.make 1 2) (Vec.make 3 4));
  Alcotest.(check int) "norm2" 25 (Vec.norm2 (Vec.make 3 4));
  Alcotest.(check int) "manhattan" 7 (Vec.manhattan (Vec.make (-3) 4))

(* ------------------------------------------------------------------ *)
(* Figure 2.5: coordinate mapping of the four basic rotations.        *)

let test_fig_2_5 () =
  let check o ex ey =
    Alcotest.(check vec)
      (Orient.name o)
      (Vec.make ex ey)
      (Orient.apply o (Vec.make 2 3))
  in
  (* With (x, y) = (2, 3):
     North -> ( x,  y); South -> (-x, -y);
     East  -> ( y, -x); West  -> (-y,  x).   [Figure 2.5] *)
  check Orient.north 2 3;
  check Orient.south (-2) (-3);
  check Orient.east 3 (-2);
  check Orient.west (-3) 2

let test_named_orients () =
  Alcotest.(check vec) "mirror_y flips x" (Vec.make (-2) 3)
    (Orient.apply Orient.mirror_y (Vec.make 2 3));
  Alcotest.(check vec) "mirror_x flips y" (Vec.make 2 (-3))
    (Orient.apply Orient.mirror_x (Vec.make 2 3));
  Alcotest.(check int) "eight orientations" 8 (List.length Orient.all);
  List.iter
    (fun o ->
      Alcotest.(check (option orient)) "name round trip" (Some o)
        (Orient.of_name (Orient.name o)))
    Orient.all

(* ------------------------------------------------------------------ *)
(* D4 group laws (property tests)                                     *)

let suite_group =
  [ prop "compose agrees with apply" (QCheck.triple gen_orient gen_orient gen_vec)
      (fun (o2, o1, v) ->
        Vec.equal
          (Orient.apply (Orient.compose o2 o1) v)
          (Orient.apply o2 (Orient.apply o1 v)));
    prop "identity is neutral" gen_orient (fun o ->
        Orient.equal (Orient.compose o Orient.identity) o
        && Orient.equal (Orient.compose Orient.identity o) o);
    prop "inverse cancels" gen_orient (fun o ->
        Orient.equal (Orient.compose o (Orient.invert o)) Orient.identity
        && Orient.equal (Orient.compose (Orient.invert o) o) Orient.identity);
    prop "associativity" (QCheck.triple gen_orient gen_orient gen_orient)
      (fun (a, b, c) ->
        Orient.equal
          (Orient.compose a (Orient.compose b c))
          (Orient.compose (Orient.compose a b) c));
    prop "reflections are involutions" gen_orient (fun o ->
        (not (Orient.is_reflection o)) || Orient.equal (Orient.invert o) o);
    prop "apply preserves norm" (QCheck.pair gen_orient gen_vec) (fun (o, v) ->
        Vec.norm2 (Orient.apply o v) = Vec.norm2 v);
    prop "index round trip" gen_orient (fun o ->
        Orient.equal (Orient.of_index (Orient.to_index o)) o) ]

(* ------------------------------------------------------------------ *)
(* Matrix representation isomorphism (section 2.6 ablation)           *)

let suite_matrix =
  [ prop "of_orient/to_orient round trip" gen_orient (fun o ->
        Orient.equal (Matrix_orient.to_orient (Matrix_orient.of_orient o)) o);
    prop "matrix compose is a homomorphism" (QCheck.pair gen_orient gen_orient)
      (fun (a, b) ->
        Matrix_orient.equal
          (Matrix_orient.of_orient (Orient.compose a b))
          (Matrix_orient.compose (Matrix_orient.of_orient a)
             (Matrix_orient.of_orient b)));
    prop "matrix invert agrees" gen_orient (fun o ->
        Matrix_orient.equal
          (Matrix_orient.of_orient (Orient.invert o))
          (Matrix_orient.invert (Matrix_orient.of_orient o)));
    prop "matrix apply agrees" (QCheck.pair gen_orient gen_vec) (fun (o, v) ->
        Vec.equal (Orient.apply o v) (Matrix_orient.apply (Matrix_orient.of_orient o) v)) ]

(* ------------------------------------------------------------------ *)
(* Boxes                                                              *)

let test_box_basics () =
  let b = Box.make ~xmin:5 ~ymin:7 ~xmax:1 ~ymax:2 in
  Alcotest.(check box) "normalised" (Box.make ~xmin:1 ~ymin:2 ~xmax:5 ~ymax:7) b;
  Alcotest.(check int) "width" 4 (Box.width b);
  Alcotest.(check int) "height" 5 (Box.height b);
  Alcotest.(check int) "area" 20 (Box.area b);
  Alcotest.(check bool) "contains corner" true (Box.contains b (Vec.make 1 2));
  Alcotest.(check bool) "contains outside" false (Box.contains b (Vec.make 0 2));
  let c = Box.make ~xmin:4 ~ymin:0 ~xmax:9 ~ymax:3 in
  Alcotest.(check (option box)) "intersect"
    (Some (Box.make ~xmin:4 ~ymin:2 ~xmax:5 ~ymax:3))
    (Box.intersect b c);
  Alcotest.(check box) "union" (Box.make ~xmin:1 ~ymin:0 ~xmax:9 ~ymax:7)
    (Box.union b c);
  (* Chebyshev separation: diagonal neighbours count the larger gap *)
  let d = Box.make ~xmin:8 ~ymin:10 ~xmax:12 ~ymax:14 in
  Alcotest.(check int) "distance diagonal" 3 (Box.distance b d);
  Alcotest.(check int) "distance overlapping" 0 (Box.distance b c);
  Alcotest.(check int) "distance touching" 0
    (Box.distance b (Box.make ~xmin:5 ~ymin:2 ~xmax:9 ~ymax:7))

let suite_box =
  [ prop "transform preserves area" (QCheck.pair gen_orient gen_box)
      (fun (o, b) -> Box.area (Box.transform o b) = Box.area b);
    prop "transform round trips via inverse" (QCheck.pair gen_orient gen_box)
      (fun (o, b) ->
        Box.equal (Box.transform (Orient.invert o) (Box.transform o b)) b);
    prop "transform maps contained points" (QCheck.triple gen_orient gen_box gen_vec)
      (fun (o, b, v) ->
        QCheck.assume (Box.contains b v);
        Box.contains (Box.transform o b) (Orient.apply o v));
    prop "union contains both" (QCheck.pair gen_box gen_box) (fun (a, b) ->
        let u = Box.union a b in
        Box.contains u (Vec.make a.Box.xmin a.Box.ymin)
        && Box.contains u (Vec.make b.Box.xmax b.Box.ymax));
    prop "intersect symmetric" (QCheck.pair gen_box gen_box) (fun (a, b) ->
        Box.intersect a b = Box.intersect b a);
    prop "overlaps iff intersect" (QCheck.pair gen_box gen_box) (fun (a, b) ->
        Box.overlaps a b = Option.is_some (Box.intersect a b));
    prop "intersect is contained in both" (QCheck.pair gen_box gen_box)
      (fun (a, b) ->
        match Box.intersect a b with
        | None -> true
        | Some i ->
          Box.equal (Box.union a i) a && Box.equal (Box.union b i) b);
    prop "intersect idempotent" gen_box (fun b ->
        Box.intersect b b = Some b);
    prop "distance symmetric" (QCheck.pair gen_box gen_box) (fun (a, b) ->
        Box.distance a b = Box.distance b a);
    prop "distance zero iff touching" (QCheck.pair gen_box gen_box)
      (fun (a, b) ->
        (Box.distance a b = 0) = Box.overlaps (Box.inflate 0 a) b);
    prop "subtract conserves area" (QCheck.pair gen_box gen_box)
      (fun (a, b) ->
        let removed =
          match Box.intersect a b with
          | Some c when Box.width c > 0 && Box.height c > 0 -> Box.area c
          | _ -> 0
        in
        List.fold_left (fun s p -> s + Box.area p) 0 (Box.subtract a b)
        = Box.area a - removed);
    prop "subtract pieces are disjoint and inside" (QCheck.pair gen_box gen_box)
      (fun (a, b) ->
        let pieces = Box.subtract a b in
        let proper p q =
          match Box.intersect p q with
          | Some c -> Box.width c > 0 && Box.height c > 0
          | None -> false
        in
        List.for_all
          (fun p -> Box.equal (Box.union a p) a && not (proper p b))
          pieces
        && List.for_all
             (fun p ->
               List.for_all (fun q -> p == q || not (proper p q)) pieces)
             pieces);
    prop "subtract covers every surviving point"
      (QCheck.triple gen_box gen_box gen_vec) (fun (a, b, v) ->
        QCheck.assume (Box.contains a v);
        let inside p =
          (* strictly interior, so box seams never double-count *)
          p.Box.xmin < v.Vec.x && v.Vec.x < p.Box.xmax && p.Box.ymin < v.Vec.y
          && v.Vec.y < p.Box.ymax
        in
        QCheck.assume (inside a);
        let pieces = Box.subtract a b in
        if
          v.Vec.x = b.Box.xmin || v.Vec.x = b.Box.xmax || v.Vec.y = b.Box.ymin
          || v.Vec.y = b.Box.ymax
        then
          (* pieces meet on the lines through b's edges: a point there
             may be interior to none, but it lies on some piece *)
          List.exists (fun p -> Box.contains p v) pieces
        else
          let n = List.length (List.filter inside pieces) in
          if inside b then n = 0 else n = 1);
    prop "edge touch removes nothing" (QCheck.pair gen_box gen_box)
      (fun (a, b) ->
        QCheck.assume
          (match Box.intersect a b with
          | Some c -> Box.width c = 0 || Box.height c = 0
          | None -> true);
        Box.subtract a b = [ a ]);
    prop "distance k iff inflate k overlaps"
      (QCheck.triple gen_box gen_box (QCheck.int_range 0 20))
      (fun (a, b, k) ->
        (Box.distance a b <= k) = Box.overlaps (Box.inflate k a) b);
    prop "inflate grows each side by k"
      (QCheck.pair gen_box (QCheck.int_range 0 20)) (fun (b, k) ->
        let i = Box.inflate k b in
        Box.width i = Box.width b + (2 * k)
        && Box.height i = Box.height b + (2 * k)
        && i.Box.xmin = b.Box.xmin - k
        && i.Box.ymin = b.Box.ymin - k);
    prop "inflate composes additively"
      (QCheck.triple gen_box (QCheck.int_range 0 10) (QCheck.int_range 0 10))
      (fun (b, j, k) ->
        Box.equal (Box.inflate j (Box.inflate k b)) (Box.inflate (j + k) b)) ]

(* ------------------------------------------------------------------ *)
(* Transforms                                                         *)

let suite_transform =
  [ prop "compose agrees with apply"
      (QCheck.triple gen_transform gen_transform gen_vec) (fun (t2, t1, v) ->
        Vec.equal
          (Transform.apply (Transform.compose t2 t1) v)
          (Transform.apply t2 (Transform.apply t1 v)));
    prop "invert cancels" (QCheck.pair gen_transform gen_vec) (fun (t, v) ->
        Vec.equal (Transform.apply (Transform.invert t) (Transform.apply t v)) v);
    prop "identity neutral" gen_transform (fun t ->
        Transform.equal (Transform.compose t Transform.identity) t
        && Transform.equal (Transform.compose Transform.identity t) t);
    prop "apply_box consistent with corners"
      (QCheck.pair gen_transform gen_box) (fun (t, b) ->
        let tb = Transform.apply_box t b in
        Box.equal tb
          (Box.of_corners
             (Transform.apply t (Vec.make b.Box.xmin b.Box.ymin))
             (Transform.apply t (Vec.make b.Box.xmax b.Box.ymax)))) ]

let test_transform_example () =
  (* Rotate east about origin then shift by (10, 0): the point (1, 0)
     must land at (10, -1) since east maps (x,y) -> (y,-x). *)
  let t = Transform.{ orient = Orient.east; offset = Vec.make 10 0 } in
  Alcotest.(check vec) "east+shift" (Vec.make 10 (-1))
    (Transform.apply t (Vec.make 1 0));
  Alcotest.(check transform) "invert . compose = id" Transform.identity
    (Transform.compose (Transform.invert t) t)

(* The full 8x8 Cayley table of D4, checked exactly against matrix
   multiplication — the section 2.6.2 composition rules, exhaustively. *)
let test_cayley_table () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let via_rules = Orient.compose a b in
          let via_matrices =
            Matrix_orient.to_orient
              (Matrix_orient.compose (Matrix_orient.of_orient a)
                 (Matrix_orient.of_orient b))
          in
          Alcotest.(check orient)
            (Orient.name a ^ " o " ^ Orient.name b)
            via_matrices via_rules)
        Orient.all)
    Orient.all

(* Exhaustive D4 group laws: every law checked over all 8x8 pairs
   (and all 8x8x8 triples for associativity), not just sampled. *)
let test_d4_laws () =
  let sample_vecs =
    [ Vec.make 0 0; Vec.make 1 0; Vec.make 0 1; Vec.make 2 3; Vec.make (-5) 7 ]
  in
  List.iter
    (fun a ->
      (* invert is a two-sided inverse *)
      Alcotest.(check orient)
        ("right inverse of " ^ Orient.name a)
        Orient.identity
        (Orient.compose a (Orient.invert a));
      Alcotest.(check orient)
        ("left inverse of " ^ Orient.name a)
        Orient.identity
        (Orient.compose (Orient.invert a) a);
      (* of_name round-trips *)
      Alcotest.(check (option orient))
        ("of_name (name " ^ Orient.name a ^ ")")
        (Some a)
        (Orient.of_name (Orient.name a));
      List.iter
        (fun b ->
          (* apply is a homomorphism: D4 acting on Z^2 *)
          List.iter
            (fun v ->
              Alcotest.(check vec)
                (Printf.sprintf "apply (%s o %s)" (Orient.name a) (Orient.name b))
                (Orient.apply a (Orient.apply b v))
                (Orient.apply (Orient.compose a b) v))
            sample_vecs;
          (* compose is associative, all 512 triples *)
          List.iter
            (fun c ->
              Alcotest.(check orient)
                (Printf.sprintf "(%s o %s) o %s" (Orient.name a) (Orient.name b)
                   (Orient.name c))
                (Orient.compose a (Orient.compose b c))
                (Orient.compose (Orient.compose a b) c))
            Orient.all)
        Orient.all)
    Orient.all

let test_group_structure () =
  (* D4 facts: 2 rotations of order 4, 5 involutions besides identity *)
  let order o =
    let rec go k acc =
      if Orient.equal acc Orient.identity then k
      else go (k + 1) (Orient.compose o acc)
    in
    go 1 o
  in
  let orders = List.map order Orient.all |> List.sort compare in
  Alcotest.(check (list int)) "element orders" [ 1; 2; 2; 2; 2; 2; 4; 4 ]
    orders

let () =
  Alcotest.run "rsg_geom"
    [ ("vec", [ Alcotest.test_case "basics" `Quick test_vec_basics ]);
      ("orient-fig2.5",
       [ Alcotest.test_case "rotation table" `Quick test_fig_2_5;
         Alcotest.test_case "named orientations" `Quick test_named_orients ]);
      ("orient-group",
       Alcotest.test_case "cayley table" `Quick test_cayley_table
       :: Alcotest.test_case "group structure" `Quick test_group_structure
       :: Alcotest.test_case "exhaustive D4 laws" `Quick test_d4_laws
       :: suite_group);
      ("orient-matrix", suite_matrix);
      ("box",
       Alcotest.test_case "basics" `Quick test_box_basics :: suite_box);
      ("transform",
       Alcotest.test_case "example" `Quick test_transform_example
       :: suite_transform) ]
