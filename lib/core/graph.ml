open Rsg_geom
open Rsg_layout

type node = {
  id : int;
  def : Cell.t;
  mutable placement : Transform.t option;
  mutable edges : edge list;
}

and edge = { dir : direction; index : int; peer : node }

and direction = Emanating | Terminating

(* Atomic so graphs may be built from parallel domains (rsg batch
   fans generator jobs across the Par pool): concurrent draws still
   hand out unique ids. *)
type generator = { next : int Atomic.t }

let generator ?(first = 1) () = { next = Atomic.make first }

(* The shared generator behind plain [mk_instance] calls.  Every graph
   built without an explicit generator draws from it, which keeps ids
   unique across all such graphs in the process. *)
let default_generator = generator ()

let fresh_id g = Atomic.fetch_and_add g.next 1

let mk_instance ?(gen = default_generator) def =
  { id = fresh_id gen; def; placement = None; edges = [] }

let connect a b index =
  if a == b then
    invalid_arg
      (Printf.sprintf "Graph.connect: self-loop on an instance of %s"
         a.def.Cell.cname);
  a.edges <- { dir = Emanating; index; peer = b } :: a.edges;
  b.edges <- { dir = Terminating; index; peer = a } :: b.edges

let edges n = List.rev n.edges

let reachable root =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let order = ref [] in
  Hashtbl.add seen root.id ();
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    order := n :: !order;
    List.iter
      (fun e ->
        if not (Hashtbl.mem seen e.peer.id) then begin
          Hashtbl.add seen e.peer.id ();
          Queue.add e.peer queue
        end)
      (edges n)
  done;
  List.rev !order

(* Nodes and distinct edges of the component in one traversal.  Each
   edge is stored twice (once per endpoint), so only Emanating entries
   are counted. *)
let component_size root =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let nodes = ref 0 and emanating = ref 0 in
  Hashtbl.add seen root.id ();
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    incr nodes;
    List.iter
      (fun e ->
        if e.dir = Emanating then incr emanating;
        if not (Hashtbl.mem seen e.peer.id) then begin
          Hashtbl.add seen e.peer.id ();
          Queue.add e.peer queue
        end)
      n.edges
  done;
  (!nodes, !emanating)

let edge_count root = snd (component_size root)

let is_spanning_tree root =
  let nodes, edges = component_size root in
  edges = nodes - 1
