open Rsg_geom

type read_result = { db : Db.t; top : Cell.t option }

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

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

(* Symbol ids are postorder positions plus one, so every symbol is
   defined before its first call. *)
let emit_cell buf index name (c : Cell.t) =
  Buffer.add_string buf "DS ";
  add_int buf (index c + 1);
  Buffer.add_string buf " 1 1;\n9 ";
  Buffer.add_string buf name;
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
        add_int buf (index i.Cell.def + 1);
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
  let cells, index = Flatten.postorder root in
  let names = Db.unique_names cells in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "(CIF written by rsg; 1 lambda = 2 units);\n";
  List.iteri (fun i c -> emit_cell buf index names.(i) c) cells;
  Buffer.add_string buf "C ";
  add_int buf (index root + 1);
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

exception Parse_error of { line : int; message : string }

type token = Tint of int | Tword of string | Tsemi

(* A token as an error message quotes it: escaped, so hostile bytes
   never reach a terminal, and cut to about 40 bytes. *)
let excerpt s =
  let e = String.escaped s in
  if String.length e <= 40 then e else String.sub e 0 40 ^ "..."

let show = function
  | Tint v -> string_of_int v
  | Tword w -> excerpt w
  | Tsemi -> ";"

(* Tokens paired with the line they start on. *)
let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 and line = ref 1 in
  let step () =
    if s.[!i] = '\n' then incr line;
    incr i
  in
  while !i < n do
    let c = s.[!i] in
    if c = ';' then begin
      toks := (Tsemi, !line) :: !toks;
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
        step ()
      done
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then step ()
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
      | Some v -> toks := (Tint v, !line) :: !toks
      | None -> toks := (Tword w, !line) :: !toks
    end
  done;
  List.rev !toks

let of_string s =
  let db = Db.create () in
  let by_id : (int, Cell.t) Hashtbl.t = Hashtbl.create 16 in
  let top = Cell.create "(top)" in
  let top_used = ref false in
  let toks = ref (tokenize s) in
  let line = ref 1 in
  let fail message = raise (Parse_error { line = !line; message }) in
  let next () =
    match !toks with
    | [] -> fail "unexpected end of input"
    | (t, l) :: rest ->
      toks := rest;
      line := l;
      t
  in
  let expect_int what =
    match next () with
    | Tint v -> v
    | t -> fail ("expected integer for " ^ what ^ ", found " ^ show t)
  in
  let expect_semi () =
    match next () with Tsemi -> () | t -> fail ("expected ;, found " ^ show t)
  in
  let skip_to_semi () =
    let rec go () = match next () with Tsemi -> () | _ -> go () in
    go ()
  in
  let halve what v =
    if v land 1 <> 0 then fail ("odd coordinate in " ^ what) else v asr 1
  in
  (* A CIF transformation list (applied in order) as an instance
     (orientation, point of call).  Only sequences whose combined
     linear part is one of the eight orientations are accepted, which
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
              | _ -> fail "non-rectilinear rotation"
            in
            Transform.of_orient (Orient.make ~rot ~refl:false)
        in
        Transform.compose t' t)
      Transform.identity ops
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
      | t -> fail ("bad call transformation " ^ show t)
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
          (try Db.add db c
           with Db.Duplicate_cell name ->
             fail ("second symbol named " ^ excerpt name));
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
        | t -> fail ("bad symbol name " ^ show t))
      | Tword "L" -> (
        match next () with
        | Tword lname ->
          expect_semi ();
          (match Layer.of_cif_name lname with
          | Some l -> layer := l
          | None -> fail ("unknown layer " ^ excerpt lname))
        | t -> fail ("bad layer name " ^ show t))
      | Tword "B" ->
        let w = expect_int "B w" and h = expect_int "B h" in
        let cx = expect_int "B cx" and cy = expect_int "B cy" in
        expect_semi ();
        (* In writer units: w = 2*width, cx = xmin + xmax (in lambda),
           so 2*xmin = cx - w/2 * ... ; concretely lambda xmin =
           (cx - width) / 2 with width = w/2. *)
        let w = halve "B" w and h = halve "B" h in
        if w < 0 || h < 0 then fail "negative box size";
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
      | Tword w -> fail ("unknown command " ^ excerpt w))
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
