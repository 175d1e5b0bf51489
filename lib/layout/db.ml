type t = (string, Cell.t) Hashtbl.t

exception Duplicate_cell of string

let create ?(size = 64) () = Hashtbl.create size

let add db (c : Cell.t) =
  match Hashtbl.find_opt db c.cname with
  | Some existing when existing == c -> ()
  | Some _ -> raise (Duplicate_cell c.cname)
  | None -> Hashtbl.add db c.cname c

let find db name = Hashtbl.find_opt db name

let find_exn db name = Hashtbl.find db name

let mem db name = Hashtbl.mem db name

let names db =
  Hashtbl.fold (fun name _ acc -> name :: acc) db []
  |> List.sort String.compare

let cells db = List.map (Hashtbl.find db) (names db)

let length db = Hashtbl.length db

let fresh_name db base =
  if not (mem db base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s-%d" base i in
      if mem db candidate then go (i + 1) else candidate
    in
    go 2

let unique_names cells =
  let taken = create () in
  Array.of_list
    (List.map
       (fun (c : Cell.t) ->
         let name = fresh_name taken c.cname in
         Hashtbl.add taken name c;
         name)
       cells)
