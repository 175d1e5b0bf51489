open Rsg_geom

type read_result = { db : Db.t; top : Cell.t option }

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

(* Children-first ordering so every symbol is defined before use. *)
let ordered_cells root =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit (c : Cell.t) =
    if not (Hashtbl.mem seen c.Cell.cname) then begin
      Hashtbl.add seen c.Cell.cname ();
      List.iter (fun (i : Cell.instance) -> visit i.Cell.def) (Cell.instances c);
      order := c :: !order
    end
  in
  visit root;
  List.rev !order

let rot_direction rot =
  (* Image of (1, 0) under R^rot with East = (x,y) -> (y,-x). *)
  match rot land 3 with
  | 0 -> (1, 0)
  | 1 -> (0, -1)
  | 2 -> (-1, 0)
  | _ -> (0, 1)

(* One shared Buffer, no [Printf.sprintf] round trips: every command
   is appended as literals + decimal ints directly, so writing is one
   allocation-free pass per cell (modulo the buffer growing). *)
let add_int buf n = Buffer.add_string buf (string_of_int n)

let emit_cell buf ids (c : Cell.t) =
  let id = Hashtbl.find ids c.Cell.cname in
  Buffer.add_string buf "DS ";
  add_int buf id;
  Buffer.add_string buf " 1 1;\n9 ";
  Buffer.add_string buf c.Cell.cname;
  Buffer.add_string buf ";\n";
  let current_layer = ref None in
  List.iter
    (fun obj ->
      match obj with
      | Cell.Obj_box (layer, b) ->
        if !current_layer <> Some layer then begin
          current_layer := Some layer;
          Buffer.add_string buf "L ";
          Buffer.add_string buf (Layer.cif_name layer);
          Buffer.add_string buf ";\n"
        end;
        let c2 = Box.center2 b in
        Buffer.add_string buf "B ";
        add_int buf (2 * Box.width b);
        Buffer.add_char buf ' ';
        add_int buf (2 * Box.height b);
        Buffer.add_char buf ' ';
        add_int buf c2.Vec.x;
        Buffer.add_char buf ' ';
        add_int buf c2.Vec.y;
        Buffer.add_string buf ";\n"
      | Cell.Obj_label l ->
        Buffer.add_string buf "94 ";
        Buffer.add_string buf l.Cell.text;
        Buffer.add_char buf ' ';
        add_int buf (2 * l.Cell.at.Vec.x);
        Buffer.add_char buf ' ';
        add_int buf (2 * l.Cell.at.Vec.y);
        Buffer.add_string buf ";\n"
      | Cell.Obj_instance i ->
        Buffer.add_string buf "C ";
        add_int buf (Hashtbl.find ids i.Cell.def.Cell.cname);
        if Orient.is_reflection i.Cell.orientation then
          Buffer.add_string buf " MX";
        let dx, dy = rot_direction i.Cell.orientation.Orient.rot in
        if (dx, dy) <> (1, 0) then begin
          Buffer.add_string buf " R ";
          add_int buf dx;
          Buffer.add_char buf ' ';
          add_int buf dy
        end;
        let p = i.Cell.point_of_call in
        if not (Vec.equal p Vec.zero) then begin
          Buffer.add_string buf " T ";
          add_int buf (2 * p.Vec.x);
          Buffer.add_char buf ' ';
          add_int buf (2 * p.Vec.y)
        end;
        Buffer.add_string buf ";\n")
    (Cell.objects c);
  Buffer.add_string buf "DF;\n"

let to_string root =
  let cells = ordered_cells root in
  let ids = Hashtbl.create 16 in
  List.iteri (fun i (c : Cell.t) -> Hashtbl.add ids c.Cell.cname (i + 1)) cells;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "(CIF written by rsg; 1 lambda = 2 units);\n";
  List.iter (emit_cell buf ids) cells;
  Buffer.add_string buf "C ";
  add_int buf (Hashtbl.find ids root.Cell.cname);
  Buffer.add_string buf ";\nE\n";
  Buffer.contents buf

let write_file path cell =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string cell))

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

type token = Tint of int | Tword of string | Tsemi

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ';' then begin
      toks := Tsemi :: !toks;
      incr i
    end
    else if c = '(' then begin
      (* comment: skip to matching close paren *)
      let depth = ref 0 in
      let continue = ref true in
      while !continue && !i < n do
        (match s.[!i] with
        | '(' -> incr depth
        | ')' -> decr depth; if !depth = 0 then continue := false
        | _ -> ());
        incr i
      done
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else begin
      let start = !i in
      while
        !i < n
        && (match s.[!i] with
           | ';' | ' ' | '\t' | '\n' | '\r' | '(' -> false
           | _ -> true)
      do
        incr i
      done;
      let w = String.sub s start (!i - start) in
      match int_of_string_opt w with
      | Some v -> toks := Tint v :: !toks
      | None -> toks := Tword w :: !toks
    end
  done;
  List.rev !toks

let halve what v =
  if v land 1 <> 0 then failwith ("Cif: odd coordinate in " ^ what) else v asr 1

(* Convert a CIF transformation list (applied in order) back to an
   instance (orientation, point of call).  We only accept sequences
   whose combined linear part is one of the eight orientations, which
   is everything the writer emits and everything rectilinear CIF
   uses. *)
let transform_of_ops ops =
  List.fold_left
    (fun t op ->
      let t' =
        match op with
        | `T v -> Transform.make v
        | `MX -> Transform.of_orient Orient.mirror_y
        | `MY -> Transform.of_orient Orient.mirror_x
        | `R (dx, dy) ->
          let rot =
            match (compare dx 0, compare dy 0) with
            | 1, 0 -> 0
            | 0, -1 -> 1
            | -1, 0 -> 2
            | 0, 1 -> 3
            | _ -> failwith "Cif: non-rectilinear rotation"
          in
          Transform.of_orient (Orient.make ~rot ~refl:false)
      in
      Transform.compose t' t)
    Transform.identity ops

let of_string s =
  let db = Db.create () in
  let by_id : (int, Cell.t) Hashtbl.t = Hashtbl.create 16 in
  let top = Cell.create "(top)" in
  let top_used = ref false in
  let toks = ref (tokenize s) in
  let fail msg = failwith ("Cif parse error: " ^ msg) in
  let next () =
    match !toks with
    | [] -> fail "unexpected end of input"
    | t :: rest ->
      toks := rest;
      t
  in
  let expect_int what =
    match next () with Tint v -> v | _ -> fail ("expected integer for " ^ what)
  in
  let expect_semi () = match next () with Tsemi -> () | _ -> fail "expected ;" in
  let skip_to_semi () =
    let rec go () = match next () with Tsemi -> () | _ -> go () in
    go ()
  in
  let parse_call () =
    let id = expect_int "call id" in
    let ops = ref [] in
    let rec loop () =
      match next () with
      | Tsemi -> ()
      | Tword "T" ->
        let x = expect_int "T x" and y = expect_int "T y" in
        ops := `T (Vec.make (halve "T" x) (halve "T" y)) :: !ops;
        loop ()
      | Tword "MX" -> ops := `MX :: !ops; loop ()
      | Tword "MY" -> ops := `MY :: !ops; loop ()
      | Tword "R" ->
        let dx = expect_int "R dx" and dy = expect_int "R dy" in
        ops := `R (dx, dy) :: !ops;
        loop ()
      | _ -> fail "bad call transformation"
    in
    loop ();
    let def =
      match Hashtbl.find_opt by_id id with
      | Some c -> c
      | None -> fail (Printf.sprintf "call of undefined symbol %d" id)
    in
    let t = transform_of_ops (List.rev !ops) in
    Cell.instance ~orient:t.Transform.orient ~at:t.Transform.offset def
  in
  let current : Cell.t option ref = ref None in
  let current_id = ref 0 in
  let layer = ref Layer.Metal in
  let finished = ref false in
  while not !finished do
    match !toks with
    | [] -> finished := true
    | _ -> (
      match next () with
      | Tword "E" -> finished := true
      | Tword "DS" ->
        let id = expect_int "DS id" in
        let _a = expect_int "DS a" and _b = expect_int "DS b" in
        expect_semi ();
        if !current <> None then fail "nested DS";
        current := Some (Cell.create (Printf.sprintf "symbol-%d" id));
        current_id := id
      | Tword "DF" ->
        expect_semi ();
        (match !current with
        | None -> fail "DF without DS"
        | Some c ->
          Hashtbl.replace by_id !current_id c;
          Db.add db c;
          current := None)
      | Tint 9 -> (
        match next () with
        | Tword name ->
          expect_semi ();
          (match !current with
          | None -> fail "9 outside DS"
          | Some c ->
            let renamed = Cell.create name in
            renamed.Cell.objects <- c.Cell.objects;
            current := Some renamed)
        | _ -> fail "bad symbol name")
      | Tword "L" -> (
        match next () with
        | Tword lname ->
          expect_semi ();
          (match Layer.of_cif_name lname with
          | Some l -> layer := l
          | None -> fail ("unknown layer " ^ lname))
        | _ -> fail "bad layer name")
      | Tword "B" ->
        let w = expect_int "B w" and h = expect_int "B h" in
        let cx = expect_int "B cx" and cy = expect_int "B cy" in
        expect_semi ();
        (* In writer units: w = 2*width, cx = xmin + xmax (in lambda),
           so 2*xmin = cx - w/2 * ... ; concretely lambda xmin =
           (cx - width) / 2 with width = w/2. *)
        let w = halve "B" w and h = halve "B" h in
        if (cx - w) mod 2 <> 0 || (cy - h) mod 2 <> 0 then
          fail "B center off grid";
        let xmin = (cx - w) / 2 and ymin = (cy - h) / 2 in
        let b = Box.of_size ~origin:(Vec.make xmin ymin) ~width:w ~height:h in
        (match !current with
        | None -> fail "B outside DS"
        | Some c -> Cell.add_box c !layer b)
      | Tint 94 ->
        let text =
          match next () with
          | Tword text -> text
          | Tint n -> string_of_int n
          | Tsemi -> fail "bad label"
        in
        let x = expect_int "94 x" and y = expect_int "94 y" in
        expect_semi ();
        let at = Vec.make (halve "94" x) (halve "94" y) in
        (match !current with
        | None -> fail "94 outside DS"
        | Some c -> Cell.add_label c text at)
      | Tword "C" ->
        let inst = parse_call () in
        (match !current with
        | Some c -> Cell.add_instance_obj c inst
        | None ->
          top_used := true;
          Cell.add_instance_obj top inst)
      | Tint _ ->
        (* unknown numeric extension command: skip *)
        skip_to_semi ()
      | Tsemi -> ()
      | Tword w -> fail ("unknown command " ^ w))
  done;
  { db; top = (if !top_used then Some top else None) }

(* read to end of file rather than by length, so pipes work too *)
let read_file path = of_string (In_channel.with_open_text path In_channel.input_all)

let roundtrip_equal a b =
  let fa = Flatten.flatten a and fb = Flatten.flatten b in
  let norm f =
    let keyed =
      Array.map
        (fun ((l : Layer.t), (b : Box.t)) -> (Layer.to_index l, b))
        f.Flatten.flat_boxes
    in
    Array.sort compare keyed;
    keyed
  in
  let labels f =
    let ls = Array.copy f.Flatten.flat_labels in
    Array.sort compare ls;
    ls
  in
  norm fa = norm fb && labels fa = labels fb
