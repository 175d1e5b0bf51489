open Rsg_geom

exception Depth_exceeded of { cell : string; max_depth : int }

type flat = {
  flat_boxes : (Layer.t * Box.t) array;
  flat_labels : (string * Vec.t) array;
  flat_bbox : Box.t option;
}

let flat_bbox f = f.flat_bbox

(* Growable array; the first pushed element doubles as the fill value,
   so no dummy is ever observable. *)
module Gbuf = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push b x =
    let cap = Array.length b.data in
    if b.len = cap then begin
      let data = Array.make (max 16 (2 * cap)) x in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

let union_opt acc b =
  match acc with None -> Some b | Some a -> Some (Box.union a b)

(* Map keyed by physical cell identity with O(1) average lookup: a
   hashtable on the cell name holding the (rare) physically distinct
   cells that share it.  Plain [Hashtbl] on [Cell.t] would hash and
   compare whole object graphs; assoc lists would be quadratic on deep
   hierarchies. *)
module Idmap = struct
  type 'a t = (string, (Cell.t * 'a) list) Hashtbl.t

  let create () : 'a t = Hashtbl.create 64

  let find_opt (m : 'a t) (c : Cell.t) =
    match Hashtbl.find_opt m c.Cell.cname with
    | None -> None
    | Some l -> List.assq_opt c l

  let find m c =
    match find_opt m c with Some v -> v | None -> raise Not_found

  let mem m c = find_opt m c <> None

  let add (m : 'a t) (c : Cell.t) v =
    let l = Option.value ~default:[] (Hashtbl.find_opt m c.Cell.cname) in
    Hashtbl.replace m c.Cell.cname ((c, v) :: l)
end

(* Pre-order traversal with an explicit work stack, so hierarchy depth
   is bounded only by [max_depth], never by the OCaml call stack. *)
let fold_objects ~max_depth t0 (cell : Cell.t) ~box ~label ~inst acc =
  let rec go acc = function
    | [] -> acc
    | (_, _, []) :: stack -> go acc stack
    | (t, depth, obj :: rest) :: stack -> (
      let stack = (t, depth, rest) :: stack in
      match obj with
      | Cell.Obj_box (l, b) -> go (box acc l (Transform.apply_box t b)) stack
      | Cell.Obj_label l ->
        go (label acc l.Cell.text (Transform.apply t l.Cell.at)) stack
      | Cell.Obj_instance i ->
        if depth + 1 > max_depth then
          raise (Depth_exceeded { cell = i.Cell.def.Cell.cname; max_depth });
        let t' = Transform.compose t (Cell.transform_of_instance i) in
        let acc = inst acc i.Cell.def t' in
        go acc ((t', depth + 1, Cell.objects i.Cell.def) :: stack))
  in
  go acc [ (t0, 0, Cell.objects cell) ]

let flatten ?(max_depth = 64) cell =
  let boxes = Gbuf.create () and labels = Gbuf.create () in
  let bb = ref None in
  fold_objects ~max_depth Transform.identity cell
    ~box:(fun () l b ->
      Gbuf.push boxes (l, b);
      bb := union_opt !bb b)
    ~label:(fun () text at -> Gbuf.push labels (text, at))
    ~inst:(fun () _ _ -> ())
    ();
  { flat_boxes = Gbuf.contents boxes;
    flat_labels = Gbuf.contents labels;
    flat_bbox = !bb }

type stats = {
  n_boxes : int;
  n_instances : int;
  n_leaf_instances : int;
  by_cell : (string * int) list;
  box_area : int;
  bbox : Box.t option;
}

let is_leaf (c : Cell.t) = Cell.instances c = []

(* ------------------------------------------------------------------ *)
(* Prototype cache                                                    *)
(* ------------------------------------------------------------------ *)

(* The generator's outputs are massively regular: thousands of
   instances of a handful of distinct celltypes.  [prototypes] exploits
   that by flattening every distinct cell exactly once into local
   coordinates (children before parents, so a parent materialises by
   composing its children's already-flat arrays with each instance
   transform), memoizing the 8 D4 variants of each array on first use.
   Cells are identified physically ([==]): two different cells that
   happen to share a name never alias. *)

type summary = {
  s_boxes : int;
  s_area : int;
  s_instances : int;
  s_leaf_instances : int;
  s_bbox : Box.t option;
  s_by_cell : (string * int) list; (* sorted by name *)
}

type proto = {
  pid : int; (* postorder index, key for the variant cache *)
  p_boxes : (Layer.t * Box.t) array; (* full flat subtree, local coords *)
  p_labels : (string * Vec.t) array;
}

type protos = {
  pt_root : Cell.t;
  pt_order : Cell.t list; (* distinct cells, children before parents *)
  pt_pids : int Idmap.t; (* cell -> postorder index *)
  pt_summaries : summary Idmap.t;
  pt_variants : (int * Orient.t, (Layer.t * Box.t) array) Hashtbl.t;
  mutable pt_protos : proto Idmap.t option; (* memoized, filled on demand *)
  mutable pt_flat : flat option;
  mutable pt_hashes : string Idmap.t option; (* raw subtree digests *)
  pt_seeds :
    (string, (Layer.t * Box.t) array * (string * Vec.t) array) Hashtbl.t;
      (* subtree digest -> pre-flattened local arrays, consulted by
         [proto_of] so clean subtrees skip recomposition *)
}

(* Distinct cells reachable from [root], children before parents, each
   with its postorder index.  Iterative: the work stack holds (cell,
   depth, unvisited child defs).  Depth along first-discovery paths is
   checked against [max_depth], so instance cycles fail fast just like
   the naive traversal. *)
let walk ~max_depth root =
  let child_defs c =
    List.map (fun (i : Cell.instance) -> i.Cell.def) (Cell.instances c)
  in
  let index : int Idmap.t = Idmap.create () in
  let order = ref [] and count = ref 0 in
  let rec go = function
    | [] -> ()
    | (c, _, []) :: stack ->
      if not (Idmap.mem index c) then begin
        Idmap.add index c !count;
        incr count;
        order := c :: !order
      end;
      go stack
    | (c, depth, d :: rest) :: stack ->
      let stack = (c, depth, rest) :: stack in
      if Idmap.mem index d then go stack
      else begin
        if depth + 1 > max_depth then
          raise (Depth_exceeded { cell = d.Cell.cname; max_depth });
        go ((d, depth + 1, child_defs d) :: stack)
      end
  in
  go [ (root, 0, child_defs root) ];
  (List.rev !order, index)

let postorder root =
  let order, index = walk ~max_depth:64 root in
  (order, Idmap.find index)

(* Per-cell totals without materialising any geometry: a parent's
   summary is its own objects plus its children's summaries, one
   instance at a time — O(distinct cells + instances), independent of
   the flattened box count. *)
let summarize order =
  let summaries : summary Idmap.t = Idmap.create () in
  List.iter
    (fun (c : Cell.t) ->
      let boxes = ref 0 and area = ref 0 and bb = ref None in
      let instances = ref 0 and leaves = ref 0 in
      let census : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let bump name n =
        Hashtbl.replace census name
          (n + Option.value ~default:0 (Hashtbl.find_opt census name))
      in
      List.iter
        (fun obj ->
          match obj with
          | Cell.Obj_box (_, b) ->
            incr boxes;
            area := !area + Box.area b;
            bb := union_opt !bb b
          | Cell.Obj_label _ -> ()
          | Cell.Obj_instance i ->
            let s = Idmap.find summaries i.Cell.def in
            boxes := !boxes + s.s_boxes;
            area := !area + s.s_area;
            instances := !instances + 1 + s.s_instances;
            leaves :=
              !leaves
              + (if is_leaf i.Cell.def then 1 else 0)
              + s.s_leaf_instances;
            bump i.Cell.def.Cell.cname 1;
            List.iter (fun (n, k) -> bump n k) s.s_by_cell;
            (match s.s_bbox with
            | None -> ()
            | Some b ->
              bb :=
                union_opt !bb
                  (Transform.apply_box (Cell.transform_of_instance i) b)))
        (Cell.objects c);
      let by_cell =
        Hashtbl.fold (fun name n acc -> (name, n) :: acc) census []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Idmap.add summaries c
        { s_boxes = !boxes;
          s_area = !area;
          s_instances = !instances;
          s_leaf_instances = !leaves;
          s_bbox = !bb;
          s_by_cell = by_cell })
    order;
  summaries

let prototypes ?(max_depth = 64) cell =
  let order, pids = walk ~max_depth cell in
  { pt_root = cell;
    pt_order = order;
    pt_pids = pids;
    pt_summaries = summarize order;
    pt_variants = Hashtbl.create 16;
    pt_protos = None;
    pt_flat = None;
    pt_hashes = None;
    pt_seeds = Hashtbl.create 16 }

let distinct_cells p = List.length p.pt_order

let protos_order p = p.pt_order

let protos_root p = p.pt_root

(* ------------------------------------------------------------------ *)
(* Subtree content hashing                                            *)
(* ------------------------------------------------------------------ *)

(* Digest of a celltype's full geometric content: its own objects in
   object order, with every instance contributing its child's digest
   (chained postorder, so the hash covers the transitive subtree).
   The cell {e name} is deliberately excluded — renaming a cell, or
   two differently-named cells with identical content, hash alike, so
   cached per-prototype artifacts survive renames and are shared
   across congruent celltypes.  Coordinates are written in decimal
   with separators; tags keep object kinds from colliding. *)
let compute_hashes order =
  let hashes : string Idmap.t = Idmap.create () in
  List.iter
    (fun (c : Cell.t) ->
      let buf = Buffer.create 512 in
      let int v =
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ' '
      in
      List.iter
        (fun obj ->
          match obj with
          | Cell.Obj_box (l, b) ->
            Buffer.add_char buf 'B';
            int (Layer.to_index l);
            int b.Box.xmin;
            int b.Box.ymin;
            int b.Box.xmax;
            int b.Box.ymax
          | Cell.Obj_label l ->
            Buffer.add_char buf 'L';
            int (String.length l.Cell.text);
            Buffer.add_string buf l.Cell.text;
            int l.Cell.at.Vec.x;
            int l.Cell.at.Vec.y
          | Cell.Obj_instance i ->
            Buffer.add_char buf 'I';
            Buffer.add_string buf (Idmap.find hashes i.Cell.def);
            int (Orient.to_index i.Cell.orientation);
            int i.Cell.point_of_call.Vec.x;
            int i.Cell.point_of_call.Vec.y)
        (Cell.objects c);
      Idmap.add hashes c (Digest.string (Buffer.contents buf)))
    order;
  hashes

let hashes_of p =
  match p.pt_hashes with
  | Some h -> h
  | None ->
    let h = compute_hashes p.pt_order in
    p.pt_hashes <- Some h;
    h

let subtree_digest p c = Idmap.find (hashes_of p) c

let subtree_hex p c = Digest.to_hex (subtree_digest p c)

let subtree_hashes p =
  let h = hashes_of p in
  List.map (fun c -> (c, Digest.to_hex (Idmap.find h c))) p.pt_order

let seed_proto p ~hash ~boxes ~labels =
  if p.pt_protos <> None then
    invalid_arg "Flatten.seed_proto: prototype arrays already built";
  Hashtbl.replace p.pt_seeds hash (boxes, labels)

let variant p (child : proto) orient =
  if Orient.equal orient Orient.north then child.p_boxes
  else
    let key = (child.pid, orient) in
    match Hashtbl.find_opt p.pt_variants key with
    | Some a -> a
    | None ->
      let a =
        Array.map (fun (l, b) -> (l, Box.transform orient b)) child.p_boxes
      in
      Hashtbl.add p.pt_variants key a;
      a

(* Compose one celltype's prototype arrays, memoized.  Children
   compose first (recursively — depth is bounded by [max_depth]); a
   cell whose subtree digest was seeded adopts the seeded arrays
   without visiting its children at all.  Demand-driven on purpose:
   after an incremental edit the DRC only asks for the dirty spine
   plus its immediate children, and composing everything else —
   including the root's O(design) flat — would dominate the run. *)
let rec proto_of p (c : Cell.t) =
  let flats =
    match p.pt_protos with
    | Some m -> m
    | None ->
      let m : proto Idmap.t = Idmap.create () in
      p.pt_protos <- Some m;
      m
  in
  match Idmap.find_opt flats c with
  | Some pr -> pr
  | None ->
    let pid = Idmap.find p.pt_pids c in
    let seeded =
      if Hashtbl.length p.pt_seeds = 0 then None
      else Hashtbl.find_opt p.pt_seeds (Idmap.find (hashes_of p) c)
    in
    let pr =
      match seeded with
      | Some (boxes, labels) -> { pid; p_boxes = boxes; p_labels = labels }
      | None ->
        let boxes = Gbuf.create () and labels = Gbuf.create () in
        List.iter
          (fun obj ->
            match obj with
            | Cell.Obj_box (l, b) -> Gbuf.push boxes (l, b)
            | Cell.Obj_label l -> Gbuf.push labels (l.Cell.text, l.Cell.at)
            | Cell.Obj_instance i ->
              let child = proto_of p i.Cell.def in
              let ti = Cell.transform_of_instance i in
              let off = ti.Transform.offset in
              Array.iter
                (fun (l, b) -> Gbuf.push boxes (l, Box.translate off b))
                (variant p child i.Cell.orientation);
              Array.iter
                (fun (text, at) ->
                  Gbuf.push labels (text, Transform.apply ti at))
                child.p_labels)
          (Cell.objects c);
        { pid; p_boxes = Gbuf.contents boxes; p_labels = Gbuf.contents labels }
    in
    Idmap.add flats c pr;
    pr

let protos_flat p =
  match p.pt_flat with
  | Some f -> f
  | None ->
    let pr = proto_of p p.pt_root in
    let s = Idmap.find p.pt_summaries p.pt_root in
    let f =
      { flat_boxes = pr.p_boxes;
        flat_labels = pr.p_labels;
        flat_bbox = s.s_bbox }
    in
    p.pt_flat <- Some f;
    f

let proto_flat p c =
  let pr = proto_of p c in
  let s = Idmap.find p.pt_summaries c in
  { flat_boxes = pr.p_boxes;
    flat_labels = pr.p_labels;
    flat_bbox = s.s_bbox }

let cell_bbox p c = (Idmap.find p.pt_summaries c).s_bbox

let proto_index p c = Idmap.find p.pt_pids c

(* Parents follow children in postorder, so a downward sweep sees every
   parent's final count before distributing it. *)
let placements p =
  let order = Array.of_list p.pt_order in
  let n = Array.length order in
  let counts = Array.make n 0 in
  counts.(n - 1) <- 1;
  for i = n - 1 downto 0 do
    if counts.(i) > 0 then
      List.iter
        (fun (inst : Cell.instance) ->
          let j = proto_index p inst.Cell.def in
          counts.(j) <- counts.(j) + counts.(i))
        (Cell.instances order.(i))
  done;
  counts

let representatives p =
  let hashes = hashes_of p in
  let first = Hashtbl.create 64 in
  Array.mapi
    (fun i c ->
      let h = Idmap.find hashes c in
      match Hashtbl.find_opt first h with
      | Some j -> j
      | None ->
        Hashtbl.add first h i;
        i)
    (Array.of_list p.pt_order)

let cached_map ?domains ~cached ~prepare ~compute p =
  let order = Array.of_list p.pt_order in
  let rep = representatives p in
  let results =
    Array.mapi
      (fun i c ->
        if rep.(i) <> i then None
        else Option.map (fun r -> (r, true)) (cached (subtree_hex p c)))
      order
  in
  let misses =
    Array.of_list
      (List.filter
         (fun i -> rep.(i) = i && results.(i) = None)
         (List.init (Array.length order) Fun.id))
  in
  (* Lazy.force is not domain-safe: every lazy input a computation
     reads is forced here, before the fan-out *)
  Array.iter prepare misses;
  let computed = Rsg_par.Par.chunked_map ?domains ~chunk:1 compute misses in
  Array.iteri (fun k i -> results.(i) <- Some (computed.(k), false)) misses;
  Array.map (fun j -> Option.get results.(j)) rep

let protos_stats p =
  let s = Idmap.find p.pt_summaries p.pt_root in
  { n_boxes = s.s_boxes;
    n_instances = s.s_instances;
    n_leaf_instances = s.s_leaf_instances;
    by_cell = s.s_by_cell;
    box_area = s.s_area;
    bbox = s.s_bbox }

let stats ?max_depth cell = protos_stats (prototypes ?max_depth cell)

let instance_placements ?(max_depth = 64) cell =
  let acc =
    fold_objects ~max_depth Transform.identity cell
      ~box:(fun acc _ _ -> acc)
      ~label:(fun acc _ _ -> acc)
      ~inst:(fun acc def t -> (def.Cell.cname, t) :: acc)
      []
  in
  List.rev acc

(* Each distinct cell's list holds the offsets, in its own coordinates,
   of every instance named [name] below it: its own calls plus its
   children's lists moved by each call's transform. *)
let positions cell name =
  let order, _ = walk ~max_depth:64 cell in
  let below : Vec.t list Idmap.t = Idmap.create () in
  List.iter
    (fun c ->
      Idmap.add below c
        (List.concat_map
           (fun (i : Cell.instance) ->
             let t = Cell.transform_of_instance i in
             let inner =
               List.map (Transform.apply t) (Idmap.find below i.Cell.def)
             in
             if String.equal i.Cell.def.Cell.cname name then
               t.Transform.offset :: inner
             else inner)
           (Cell.instances c)))
    order;
  List.sort Vec.compare (Idmap.find below cell)
