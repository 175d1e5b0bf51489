let create_global () =
  Value.{ frame = Hashtbl.create 64; parent = None; env_name = "(global)" }

let create_frame ?(size = 8) ~name parent =
  Value.{ frame = Hashtbl.create (max 1 size); parent = Some parent; env_name = name }

let rec find (env : Value.env) name =
  match Hashtbl.find_opt env.Value.frame name with
  | Some v -> Some v
  | None -> (
    match env.Value.parent with None -> None | Some p -> find p name)

let define (env : Value.env) name v = Hashtbl.replace env.Value.frame name v

let rec set (env : Value.env) name v =
  if Hashtbl.mem env.Value.frame name then Hashtbl.replace env.Value.frame name v
  else
    match env.Value.parent with
    | Some p -> set p name v
    | None -> Hashtbl.replace env.Value.frame name v
