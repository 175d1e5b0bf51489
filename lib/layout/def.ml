open Rsg_geom

type read_result = { db : Db.t; top : Cell.t option }

exception Parse_error of { line : int; message : string }

let check_name what name =
  if name = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\t') name
  then failwith (Printf.sprintf "Def: %s name %S not writable" what name)

let to_string root =
  let cells, index = Flatten.postorder root in
  let names = Db.unique_names cells in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "; rsg def 1\n";
  List.iteri
    (fun k (c : Cell.t) ->
      check_name "cell" names.(k);
      Buffer.add_string buf (Printf.sprintf "cell %s\n" names.(k));
      List.iter
        (fun obj ->
          match obj with
          | Cell.Obj_box (layer, b) ->
            Buffer.add_string buf
              (Printf.sprintf "b %s %d %d %d %d\n" (Layer.name layer)
                 b.Box.xmin b.Box.ymin b.Box.xmax b.Box.ymax)
          | Cell.Obj_label l ->
            check_name "label" l.Cell.text;
            Buffer.add_string buf
              (Printf.sprintf "l %s %d %d\n" l.Cell.text l.Cell.at.Vec.x
                 l.Cell.at.Vec.y)
          | Cell.Obj_instance i ->
            Buffer.add_string buf
              (Printf.sprintf "c %s %d %d %s\n" names.(index i.Cell.def)
                 i.Cell.point_of_call.Vec.x i.Cell.point_of_call.Vec.y
                 (Orient.name i.Cell.orientation)))
        (Cell.objects c);
      Buffer.add_string buf "end\n")
    cells;
  Buffer.add_string buf (Printf.sprintf "top %s\n" names.(index root));
  Buffer.contents buf

let write_file path cell =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string cell))

let of_string src =
  let db = Db.create () in
  let top = ref None in
  let current : Cell.t option ref = ref None and opened = ref 0 in
  let fail line fmt =
    Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt
  in
  let excerpt s =
    let e = String.escaped s in
    if String.length e <= 40 then e else String.sub e 0 40 ^ "..."
  in
  let int_of line what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail line "bad integer for %s: %s" what (excerpt s)
  in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let s = String.trim raw in
      if s = "" || s.[0] = ';' then ()
      else
        match String.split_on_char ' ' s |> List.filter (( <> ) "") with
        | [ "cell"; name ] ->
          if !current <> None then fail line "nested cell";
          current := Some (Cell.create name);
          opened := line
        | [ "end" ] -> (
          match !current with
          | Some c ->
            (try Db.add db c
             with Db.Duplicate_cell name ->
               fail line "second cell named %s" (excerpt name));
            current := None
          | None -> fail line "end without cell")
        | [ "b"; layer; x0; y0; x1; y1 ] -> (
          match (!current, Layer.of_name layer) with
          | Some c, Some l ->
            Cell.add_box c l
              (Box.make ~xmin:(int_of line "xmin" x0)
                 ~ymin:(int_of line "ymin" y0) ~xmax:(int_of line "xmax" x1)
                 ~ymax:(int_of line "ymax" y1))
          | None, _ -> fail line "box outside cell"
          | _, None -> fail line "unknown layer %s" (excerpt layer))
        | [ "l"; text; x; y ] -> (
          match !current with
          | Some c ->
            Cell.add_label c text
              (Vec.make (int_of line "x" x) (int_of line "y" y))
          | None -> fail line "label outside cell")
        | [ "c"; name; x; y; orient ] -> (
          match !current with
          | None -> fail line "call outside cell"
          | Some c -> (
            match (Db.find db name, Orient.of_name orient) with
            | Some def, Some o ->
              ignore
                (Cell.add_instance c ~orient:o
                   ~at:(Vec.make (int_of line "x" x) (int_of line "y" y))
                   def)
            | None, _ -> fail line "call of undefined cell %s" (excerpt name)
            | _, None -> fail line "bad orientation %s" (excerpt orient)))
        | [ "top"; name ] -> (
          match Db.find db name with
          | Some c -> top := Some c
          | None -> fail line "top names undefined cell %s" (excerpt name))
        | _ -> fail line "unrecognised line %s" (excerpt s))
    (String.split_on_char '\n' src);
  if !current <> None then fail !opened "unterminated cell";
  { db; top = !top }

(* read to end of file rather than by length, so pipes work too *)
let read_file path = of_string (In_channel.with_open_text path In_channel.input_all)
