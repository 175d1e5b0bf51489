(* The benchmark's own span recorder.

   Spans are opened from the benchmark's code around each call into a
   layer's public function; nothing inside the program is instrumented
   and Rsg_obs is never enabled by it.  Context travels explicitly
   ([ctx]: op id, parent span, whether this op is traced), so a span
   opened on a pool domain — the wrapped [evaluate] of a search problem
   — still knows its parent.  Each domain appends finished spans to its
   own buffer (Domain.DLS); a buffer is locked only against other
   systhreads of the same domain, as in the serve workload's client
   threads.  Buffers are merged once, when the run ends. *)

type ctx = { op : int; parent : int; on : bool }

type span = {
  id : int;
  parent : int;  (** 0 for an op's root span *)
  op : int;
  name : string;
  domain : int;
  thread : int;
  t0 : float;
  t1 : float;
  cpu : float;
      (** process CPU seconds over the span (every domain); [nan] for
          spans that do not run on the calling domain alone *)
  alloc : float;  (** words allocated over the span; [nan] likewise *)
}

let root ~on op = { op; parent = 0; on }

type buffer = { mu : Mutex.t; mutable spans : span list }

let registry_mu = Mutex.create ()

let registry : buffer list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { mu = Mutex.create (); spans = [] } in
      Mutex.protect registry_mu (fun () -> registry := b :: !registry);
      b)

let next_id = Atomic.make 1

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Gc.quick_stat counts every domain's allocation, live or joined, to
   within one minor heap *)
let alloc_now () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [local] spans run on the calling domain with nothing else in flight,
   so the process-wide CPU and allocation deltas are theirs *)
let span ?(local = true) ctx name f =
  if not ctx.on then f ctx
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let c0 = if local then cpu_now () else nan in
    let a0 = if local then alloc_now () else nan in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let s =
        {
          id;
          parent = ctx.parent;
          op = ctx.op;
          name;
          domain = (Domain.self () :> int);
          thread = Thread.id (Thread.self ());
          t0;
          t1;
          cpu = (if local then cpu_now () -. c0 else nan);
          alloc = (if local then alloc_now () -. a0 else nan);
        }
      in
      let b = Domain.DLS.get buffer_key in
      Mutex.protect b.mu (fun () -> b.spans <- s :: b.spans)
    in
    Fun.protect ~finally:finish (fun () -> f { ctx with parent = id })
  end

let spans () =
  Mutex.protect registry_mu (fun () ->
      List.concat_map (fun b -> Mutex.protect b.mu (fun () -> b.spans)) !registry)
  |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))

(* ---- self time ------------------------------------------------------ *)

type self = {
  s_span : span;
  s_time : float;  (** duration minus the part its children cover *)
  s_cpu : float;  (** [nan] unless the span is local *)
  s_alloc : float;
  s_gaps : (string * string * float) list;
      (** uncovered intervals, each named by the child spans (or
          ["start"]/["end"]) on either side *)
}

(* children's intervals clipped to the parent, sorted by start *)
let clipped parent kids =
  List.filter_map
    (fun k ->
      let a = Float.max parent.t0 k.t0 and b = Float.min parent.t1 k.t1 in
      if b > a then Some (a, b, k.name) else None)
    kids
  |> List.sort compare

let gaps parent kids =
  let rec go cursor prev acc = function
    | [] ->
      if parent.t1 > cursor then (prev, "end", parent.t1 -. cursor) :: acc
      else acc
    | (a, b, name) :: rest ->
      let acc = if a > cursor then (prev, name, a -. cursor) :: acc else acc in
      if b > cursor then go b name acc rest else go cursor prev acc rest
  in
  go parent.t0 "start" [] (clipped parent kids)

let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ks = Hashtbl.find_all kids s.id in
      let g = gaps s ks in
      let uncovered = List.fold_left (fun acc (_, _, d) -> acc +. d) 0. g in
      let minus field v =
        List.fold_left
          (fun acc k ->
            let x = field k in
            if Float.is_nan x then acc else acc -. x)
          v ks
      in
      {
        s_span = s;
        s_time = uncovered;
        s_cpu = (if Float.is_nan s.cpu then nan else minus (fun k -> k.cpu) s.cpu);
        s_alloc =
          (if Float.is_nan s.alloc then nan else minus (fun k -> k.alloc) s.alloc);
        s_gaps = g;
      })
    spans

(* ---- Chrome trace-event export -------------------------------------- *)

let write_chrome path spans =
  let module J = Rsg_serve.Json in
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let us t = J.Float (Float.round ((t -. base) *. 1e6)) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", us s.t0);
        ("dur", J.Float (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", J.Int 1);
        (* one lane per domain, and per systhread within a domain *)
        ("tid", J.Int ((s.domain * 1000) + s.thread));
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("op", J.Int s.op);
              ("domain", J.Int s.domain);
            ] );
      ]
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.List (List.map event spans));
        ("displayTimeUnit", J.String "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string doc);
      Out_channel.output_char oc '\n')
