(* Instrumentation state.  A span is aggregated by name under its
   parent, so instrumenting a hot loop does not grow the tree; the
   mutable records are internal and frozen into span_node on read-out.
   Each domain keeps its own tree, so recording takes no lock. *)

type node = {
  name : string;
  mutable total : float;
  mutable count : int;
  mutable children : node list; (* reverse first-entry order *)
}

let enabled = ref false

let mk_root () = { name = "<root>"; total = 0.; count = 0; children = [] }

(* a domain's tree and its open spans, innermost first; the root is
   never on the stack *)
type state = { mutable root : node; mutable stack : node list }

let state = Domain.DLS.new_key (fun () -> { root = mk_root (); stack = [] })

let table : (string, int) Hashtbl.t = Hashtbl.create 64

(* Counters are bumped from every domain, so the counter table gets
   its own lock.  Uncontended Mutex.lock is a couple of atomic
   operations — noise next to a Hashtbl.replace — and counting is a
   no-op while disabled anyway. *)
let table_mutex = Mutex.create ()

let locked f =
  Mutex.lock table_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_mutex) f

let enable () = enabled := true

let disable () = enabled := false

let is_enabled () = !enabled

let reset () =
  let st = Domain.DLS.get state in
  st.root <- mk_root ();
  st.stack <- [];
  locked (fun () -> Hashtbl.reset table)

let count ?(n = 1) name =
  if !enabled then
    locked (fun () ->
        Hashtbl.replace table name
          (n + Option.value ~default:0 (Hashtbl.find_opt table name)))

let child_named parent name =
  match List.find_opt (fun c -> String.equal c.name name) parent.children with
  | Some c -> c
  | None ->
    let c = { name; total = 0.; count = 0; children = [] } in
    parent.children <- c :: parent.children;
    c

type branch = node

let branch name =
  let st = Domain.DLS.get state in
  child_named (match st.stack with [] -> st.root | p :: _ -> p) name

let within node f =
  let st = Domain.DLS.get state in
  let saved = st.stack in
  node.count <- node.count + 1;
  st.stack <- node :: saved;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      node.total <- node.total +. (Unix.gettimeofday () -. t0);
      match st.stack with
      | top :: _ when top == node -> st.stack <- saved
      | _ -> () (* a reset inside the span dropped the stack *))
    f

let span name f = if not !enabled then f () else within (branch name) f

let counters () =
  locked (fun () -> Hashtbl.fold (fun name n acc -> (name, n) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type span_node = {
  sp_name : string;
  sp_total : float;
  sp_count : int;
  sp_children : span_node list;
}

let rec freeze n =
  { sp_name = n.name;
    sp_total = n.total;
    sp_count = n.count;
    sp_children = List.rev_map freeze n.children }

let spans () = (freeze (Domain.DLS.get state).root).sp_children

(* ---- rendering ----------------------------------------------------- *)

let pp ppf () =
  let tops = spans () in
  if tops <> [] then begin
    Format.fprintf ppf "-- phases ------------------------------------------@.";
    (* one shared pad buffer grown/truncated around recursion, instead
       of a fresh ever-longer indent string per level *)
    let pad = Buffer.create 32 in
    let rec walk enclosing s =
      let pct =
        if enclosing > 0. then 100. *. s.sp_total /. enclosing else 100.
      in
      Format.fprintf ppf "%s%-*s %9.4fs %5.1f%% %8dx@." (Buffer.contents pad)
        (max 1 (32 - Buffer.length pad))
        s.sp_name s.sp_total pct s.sp_count;
      let depth = Buffer.length pad in
      Buffer.add_string pad "  ";
      List.iter (walk s.sp_total) s.sp_children;
      Buffer.truncate pad depth
    in
    let whole = List.fold_left (fun a s -> a +. s.sp_total) 0. tops in
    List.iter (walk whole) tops
  end;
  let cs = counters () in
  if cs <> [] then begin
    Format.fprintf ppf "-- counters ----------------------------------------@.";
    List.iter (fun (name, n) -> Format.fprintf ppf "%-36s %12d@." name n) cs
  end;
  if tops = [] && cs = [] then Format.fprintf ppf "(no observations recorded)@."

let dump ?(oc = stderr) () =
  let ppf = Format.formatter_of_out_channel oc in
  pp ppf ();
  Format.pp_print_flush ppf ()

(* ---- JSON ---------------------------------------------------------- *)

let to_json () =
  let rec span s =
    Json.Obj
      [ ("name", Json.String s.sp_name);
        (* to the microsecond; finer digits are timer noise *)
        ("seconds", Json.Float (Float.round (s.sp_total *. 1e6) /. 1e6));
        ("count", Json.Int s.sp_count);
        ("children", Json.List (List.map span s.sp_children)) ]
  in
  Json.Obj
    [ ("spans", Json.List (List.map span (spans ())));
      ( "counters",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) (counters ()))
      ) ]
