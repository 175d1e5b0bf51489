open Rsg_geom
open Rsg_core
module Obs = Rsg_obs.Obs

(* A logical edge, normalized to its emanating side: every [connect a
   b i] produces one Emanating entry on [a] and one Terminating entry
   on [b]; [(a.id, b.id, i)] identifies it uniquely — unless the same
   connect was issued twice, which is exactly the L206 duplicate. *)
let esig (n : Graph.node) (e : Graph.edge) =
  match e.Graph.dir with
  | Graph.Emanating -> (n.Graph.id, e.Graph.peer.Graph.id, e.Graph.index)
  | Graph.Terminating -> (e.Graph.peer.Graph.id, n.Graph.id, e.Graph.index)

let cellname (n : Graph.node) = n.Graph.def.Rsg_layout.Cell.cname

let check ?root ?(source = "graph") tbl (nodes : Graph.node list) =
  Obs.span "lint.graph" @@ fun () ->
  match nodes with
  | [] -> Diag.report ~source ~checked:0 []
  | first :: _ ->
    let root = Option.value root ~default:first in
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let component = Graph.reachable root in
    let in_component = Hashtbl.create 64 in
    List.iter
      (fun (n : Graph.node) -> Hashtbl.replace in_component n.Graph.id ())
      component;
    List.iter
      (fun (n : Graph.node) ->
        if not (Hashtbl.mem in_component n.Graph.id) then
          add
            (Diag.make "L201" "node #%d (%s) is unreachable from root #%d (%s)"
               n.Graph.id (cellname n) root.Graph.id (cellname root)))
      nodes;
    (* Spanning-tree placement derivation (breadth-first, like Expand
       but re-implemented so the agreement property cross-checks). *)
    let derived : (int, Transform.t) Hashtbl.t = Hashtbl.create 64 in
    let tree_sigs = Hashtbl.create 64 in
    let missing_seen = Hashtbl.create 16 in
    let missing_key (n : Graph.node) (e : Graph.edge) =
      (* unordered celltype pair + index, as Expand dedups Missing *)
      let a = cellname n and b = cellname e.Graph.peer in
      if String.compare a b <= 0 then (a, b, e.Graph.index)
      else (b, a, e.Graph.index)
    in
    let report_missing (n : Graph.node) (e : Graph.edge) =
      let key = missing_key n e in
      if not (Hashtbl.mem missing_seen key) then begin
        Hashtbl.replace missing_seen key ();
        add
          (Diag.make "L204" "no interface %d declared between %s and %s"
             e.Graph.index (cellname n) (cellname e.Graph.peer))
      end
    in
    let edges_walked = ref 0 in
    Hashtbl.replace derived root.Graph.id Transform.identity;
    let queue = Queue.create () in
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      let t = Hashtbl.find derived n.Graph.id in
      List.iter
        (fun (e : Graph.edge) ->
          incr edges_walked;
          if not (Hashtbl.mem derived e.Graph.peer.Graph.id) then
            match Expand.interface_for tbl ~placed:n ~edge:e with
            | None -> report_missing n e
            | Some iface ->
              Hashtbl.replace derived e.Graph.peer.Graph.id
                (Interface.place ~a:t iface);
              Hashtbl.replace tree_sigs (esig n e) ();
              Queue.add e.Graph.peer queue)
        (Graph.edges n)
    done;
    (* Non-tree and duplicate edges: walk each logical edge once, from
       its emanating record. *)
    let sig_seen = Hashtbl.create 64 in
    let ambiguity_seen = Hashtbl.create 16 in
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun (e : Graph.edge) ->
            if e.Graph.dir = Graph.Emanating then begin
              let s = esig n e in
              let copies =
                match Hashtbl.find_opt sig_seen s with
                | Some c -> c + 1
                | None -> 1
              in
              Hashtbl.replace sig_seen s copies;
              if copies > 1 then
                add
                  (Diag.make "L206"
                     "duplicate edge #%d (%s) -> #%d (%s) interface %d"
                     n.Graph.id (cellname n) e.Graph.peer.Graph.id
                     (cellname e.Graph.peer) e.Graph.index)
              else if not (Hashtbl.mem tree_sigs s) then begin
                (* a fundamental cycle: check that composing the edge's
                   interface onto the tree placement of [n] reproduces
                   the tree placement of the peer *)
                match
                  ( Hashtbl.find_opt derived n.Graph.id,
                    Hashtbl.find_opt derived e.Graph.peer.Graph.id )
                with
                | Some tn, Some tp -> (
                  match Expand.interface_for tbl ~placed:n ~edge:e with
                  | None -> report_missing n e
                  | Some iface ->
                    let implied = Interface.place ~a:tn iface in
                    if Transform.equal implied tp then
                      add
                        (Diag.make "L202"
                           "redundant edge #%d (%s) -> #%d (%s) interface %d: \
                            consistent with the spanning tree"
                           n.Graph.id (cellname n) e.Graph.peer.Graph.id
                           (cellname e.Graph.peer) e.Graph.index)
                    else
                      add
                        (Diag.make "L205"
                           "over-constrained cycle: edge #%d (%s) -> #%d (%s) \
                            interface %d implies %a but the spanning tree \
                            places the node at %a"
                           n.Graph.id (cellname n) e.Graph.peer.Graph.id
                           (cellname e.Graph.peer) e.Graph.index Transform.pp
                           implied Transform.pp tp))
                | _ ->
                  (* an endpoint could not be derived: its blocking
                     missing interface is already reported *)
                  ()
              end;
              (* Same-celltype direction sensitivity (Figs 3.5-3.7):
                 the two readings differ iff I°aa is not self-inverse. *)
              let from = cellname n and into = cellname e.Graph.peer in
              if String.equal from into then
                match
                  Interface_table.find tbl ~from ~into ~index:e.Graph.index
                with
                | Some i
                  when not (Interface.equal i (Interface.invert i))
                       && not (Hashtbl.mem ambiguity_seen (from, e.Graph.index))
                  ->
                  Hashtbl.replace ambiguity_seen (from, e.Graph.index) ();
                  add
                    (Diag.make "L203"
                       "interface %d of %s is direction-sensitive: the two \
                        readings of an undirected edge would place \
                        differently; edge direction selects one"
                       e.Graph.index from)
                | _ -> ()
            end)
          (Graph.edges n))
      component;
    (* Dead interfaces: declared in the table but referenced by no
       edge of the graph (in either direction — declarations are
       bilateral, so each unordered pair is judged once, on its
       canonical key).  A dead declaration is not wrong, but it is
       exactly the "example without a use" a reviewer should see:
       either the sample drew an interface the connectivity never
       exercises, or an edge meant to use it names another index. *)
    let referenced = Hashtbl.create 64 in
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun (e : Graph.edge) ->
            if e.Graph.dir = Graph.Emanating then begin
              let a = cellname n and b = cellname e.Graph.peer in
              let key =
                if String.compare a b <= 0 then (a, b, e.Graph.index)
                else (b, a, e.Graph.index)
              in
              Hashtbl.replace referenced key ()
            end)
          (Graph.edges n))
      nodes;
    let dead =
      Interface_table.fold
        (fun ~from ~into ~index _iface acc ->
          if String.compare from into <= 0
             && not (Hashtbl.mem referenced (from, into, index))
          then (from, into, index) :: acc
          else acc)
        tbl []
    in
    List.iter
      (fun (from, into, index) ->
        add
          (Diag.make "L208"
             "interface %d between %s and %s is declared but never used by \
              any edge"
             index from into))
      (List.sort compare dead);
    Obs.count ~n:!edges_walked "lint.graph.edges";
    Diag.report ~source ~checked:!edges_walked !diags
