open Rsg_layout
module Json = Rsg_obs.Json
module Obs = Rsg_obs.Obs
module Par = Rsg_par.Par
module Store = Rsg_store.Store
module Codec = Rsg_store.Codec
module Batch = Rsg_store.Batch
module Drc = Rsg_drc.Drc

type config = {
  socket_path : string;
  workers : int;
  queue_depth : int;
  mem_budget : int;
  store_dir : string option;
  job_domains : int;
  max_request : int;
  handle_signals : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_depth = 16;
    mem_budget = 64 * 1024 * 1024;
    store_dir = None;
    job_domains = 1;
    max_request = 1 lsl 20;
    handle_signals = false;
  }

(* ---- connections ---------------------------------------------------- *)

(* The write side of a connection is shared between its reader thread
   (inline responses) and worker domains (job responses), so writes go
   through [c_wmutex] — whole response lines never interleave.  The fd
   is closed by whichever side finishes last: the reader marks
   [c_done] at EOF, responders decrement [c_outstanding], and the
   close happens when both say so — never while a worker might still
   write. *)
type conn = {
  c_fd : Unix.file_descr;
  c_wmutex : Mutex.t;
  mutable c_alive : bool;  (* write side still usable *)
  mutable c_outstanding : int;  (* dispatched jobs not yet answered *)
  mutable c_done : bool;  (* reader finished *)
  mutable c_closed : bool;
}

let mk_conn fd =
  {
    c_fd = fd;
    c_wmutex = Mutex.create ();
    c_alive = true;
    c_outstanding = 0;
    c_done = false;
    c_closed = false;
  }

let locked m f =
  Mutex.lock m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock m)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let close_if_finished_locked conn =
  if conn.c_done && conn.c_outstanding = 0 && not conn.c_closed then begin
    conn.c_closed <- true;
    conn.c_alive <- false;
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end

let send conn line =
  locked conn.c_wmutex @@ fun () ->
  if conn.c_alive && not conn.c_closed then
    try write_all conn.c_fd (line ^ "\n")
    with Unix.Unix_error _ ->
      (* client went away (EPIPE with SIGPIPE ignored, or reset):
         drop this and all further responses, keep the daemon up *)
      conn.c_alive <- false

(* bracket a dispatched job's response slot *)
let response_begun conn =
  locked conn.c_wmutex @@ fun () -> conn.c_outstanding <- conn.c_outstanding + 1

let response_finished conn =
  locked conn.c_wmutex @@ fun () ->
  conn.c_outstanding <- conn.c_outstanding - 1;
  close_if_finished_locked conn

let reader_finished conn =
  locked conn.c_wmutex @@ fun () ->
  conn.c_done <- true;
  close_if_finished_locked conn

(* ---- server state --------------------------------------------------- *)

type waiter = {
  w_conn : conn;
  w_id : Json.t;
  w_arrival : float;
  w_deadline_ms : int option;
  w_drc : bool;
  w_cif : bool;
  w_out : string option;
}

(* one in-flight generate computation; later identical keys attach *)
type inflight = { mutable i_waiters : waiter list }

type t = {
  cfg : config;
  pool : Par.Pool.t;
  mem : Mcache.t;
  store : Store.t option;
  mu : Mutex.t;  (* guards coalesce, conns, threads *)
  coalesce : (string, inflight) Hashtbl.t;
  mutable conns : conn list;
  mutable threads : Thread.t list;
  mutable draining : bool;
  inflight_jobs : int Atomic.t;
  requests : int Atomic.t;
  stop : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  started : float;
}

let request_stop srv =
  if not (Atomic.exchange srv.stop true) then
    try ignore (Unix.write_substring srv.stop_w "x" 0 1)
    with Unix.Unix_error _ -> ()

let expired w now =
  match w.w_deadline_ms with
  | None -> false
  | Some ms -> (now -. w.w_arrival) *. 1000. >= float_of_int ms

let send_error w err =
  Obs.count ("serve." ^ Protocol.error_code err);
  send w.w_conn (Protocol.error_response ~id:w.w_id err)

let send_ok w result = send w.w_conn (Protocol.ok_response ~id:w.w_id result)

(* ---- job bodies (run on worker domains) ----------------------------- *)

let drc_json r =
  Json.Obj
    [
      ("clean", Json.Bool (Drc.clean r));
      ("violations", Json.Int (List.length r.Drc.r_violations));
      ("boxes", Json.Int r.Drc.r_boxes);
      ("deck", Json.String r.Drc.r_deck);
    ]

(* store -> cold generation (which saves the hierarchy), then one
   prototype pass for the box count and, when [drc], a check of a flat
   that is dropped with the pass *)
let build_entry srv (job : Batch.job) ~drc =
  let cell, protos, source =
    match Option.map (fun s -> Store.find s job.Batch.j_key) srv.store with
    | Some (Store.Hit e) ->
      (e.Codec.e_cell, Flatten.prototypes e.Codec.e_cell, "store")
    | Some (Store.Miss | Store.Corrupt _) | None ->
      let cell = job.Batch.j_gen () in
      let protos = Flatten.prototypes cell in
      Option.iter
        (fun s ->
          Store.save s job.Batch.j_key
            ~stem:(job.Batch.j_kind ^ ":" ^ job.Batch.j_name)
            ~label:job.Batch.j_label ~protos:(Codec.proto_table protos) cell)
        srv.store;
      (cell, protos, "generated")
  in
  let entry =
    {
      Mcache.me_cif = Cif.to_string cell;
      me_boxes = (Flatten.protos_stats protos).Flatten.n_boxes;
      me_drc =
        (if drc then
           Some
             (drc_json
                (Drc.check_flat ~domains:srv.cfg.job_domains
                   (Flatten.protos_flat protos)))
         else None);
    }
  in
  Mcache.add srv.mem (Store.key_hex job.Batch.j_key) entry;
  (entry, source)

(* memory first; an entry answers unless [drc] asks for a summary it
   lacks *)
let generate_entry srv (job : Batch.job) ~drc =
  match Mcache.find srv.mem ~drc (Store.key_hex job.Batch.j_key) with
  | Some e -> (e, "memory")
  | None -> build_entry srv job ~drc

(* render one waiter's view of a shared generate result *)
let render_generate (job : Batch.job) (entry : Mcache.entry) source w =
  let base =
    [
      ("name", Json.String job.Batch.j_name);
      ("label", Json.String job.Batch.j_label);
      ("key", Json.String (Store.key_hex job.Batch.j_key));
      ("source", Json.String source);
      ("boxes", Json.Int entry.Mcache.me_boxes);
      ("cif_sha", Json.String (Digest.to_hex (Digest.string entry.Mcache.me_cif)));
    ]
  in
  let with_drc =
    match entry.Mcache.me_drc with
    | Some d when w.w_drc -> [ ("drc", d) ]
    | _ -> []
  in
  let with_cif =
    if w.w_cif then [ ("cif", Json.String entry.Mcache.me_cif) ] else []
  in
  match w.w_out with
  | None -> Ok (Json.Obj (base @ with_drc @ with_cif))
  | Some path -> (
    match
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc entry.Mcache.me_cif)
    with
    | () ->
      Ok (Json.Obj (base @ with_drc @ with_cif @ [ ("out", Json.String path) ]))
    | exception Sys_error msg -> Error (Protocol.Job_failed msg))

let respond w = function
  | Ok result -> send_ok w result
  | Error err -> send_error w err

(* the generate leader: start-time deadline sweep, shared computation,
   then a per-waiter rendering of the one result *)
let run_generate srv key_hex (job : Batch.job) =
  let now = Unix.gettimeofday () in
  (* responses are blocking writes, so they happen outside srv.mu *)
  let live, dead =
    locked srv.mu @@ fun () ->
    match Hashtbl.find_opt srv.coalesce key_hex with
    | None -> ([], [])
    | Some inf ->
      let live, dead = List.partition (fun w -> not (expired w now)) inf.i_waiters in
      if live = [] then begin
        (* everyone missed the deadline: drop the slot now so a late
           identical request becomes a fresh leader, not an orphan *)
        Hashtbl.remove srv.coalesce key_hex;
        Atomic.decr srv.inflight_jobs
      end
      else inf.i_waiters <- live;
      (live, dead)
  in
  List.iter
    (fun w ->
      send_error w Protocol.Deadline_expired;
      response_finished w.w_conn)
    dead;
  if live <> [] then begin
    let wants_drc = List.exists (fun w -> w.w_drc) in
    let attempt f =
      try Ok (f ()) with e -> Error (Protocol.Job_failed (Printexc.to_string e))
    in
    let outcome = attempt (fun () -> generate_entry srv job ~drc:(wants_drc live)) in
    let waiters =
      locked srv.mu @@ fun () ->
      let ws =
        match Hashtbl.find_opt srv.coalesce key_hex with
        | Some inf -> inf.i_waiters
        | None -> []
      in
      Hashtbl.remove srv.coalesce key_hex;
      Atomic.decr srv.inflight_jobs;
      ws
    in
    (* a waiter that attached during the build may want a summary the
       entry lacks: rebuild once, with it *)
    let with_drc =
      match outcome with
      | Ok (e, _) when e.Mcache.me_drc = None && wants_drc waiters ->
        attempt (fun () -> build_entry srv job ~drc:true)
      | o -> o
    in
    Obs.count "serve.job";
    List.iter
      (fun w ->
        (match if w.w_drc then with_drc else outcome with
        | Ok (entry, source) -> respond w (render_generate job entry source w)
        | Error err -> send_error w err);
        response_finished w.w_conn)
      waiters
  end

let dispatch_generate srv w spec =
  match Jobspec.parse_line 1 spec with
  | Error msg ->
    send_error w (Protocol.Bad_request msg);
    response_finished w.w_conn
  | Ok None ->
    send_error w (Protocol.Bad_request "empty generate spec");
    response_finished w.w_conn
  | Ok (Some job) ->
    let key_hex = Store.key_hex job.Batch.j_key in
    let verdict =
      locked srv.mu @@ fun () ->
      match Hashtbl.find_opt srv.coalesce key_hex with
      | Some inf ->
        inf.i_waiters <- w :: inf.i_waiters;
        Obs.count "serve.coalesced";
        `Attached
      | None ->
        let inf = { i_waiters = [ w ] } in
        Hashtbl.add srv.coalesce key_hex inf;
        Atomic.incr srv.inflight_jobs;
        if Par.Pool.try_submit srv.pool (fun () -> run_generate srv key_hex job)
        then `Submitted
        else begin
          (* answer everyone who attached between add and reject *)
          let ws = inf.i_waiters in
          Hashtbl.remove srv.coalesce key_hex;
          Atomic.decr srv.inflight_jobs;
          `Rejected ws
        end
    in
    (match verdict with
    | `Attached | `Submitted -> ()
    | `Rejected ws ->
      List.iter
        (fun w ->
          send_error w Protocol.Queue_full;
          response_finished w.w_conn)
        ws)

(* uncoalesced jobs: one waiter, one closure computing its response *)
let dispatch_direct srv w work =
  Atomic.incr srv.inflight_jobs;
  let task () =
    (if expired w (Unix.gettimeofday ()) then
       send_error w Protocol.Deadline_expired
     else begin
       let r =
         try work ()
         with e -> Error (Protocol.Job_failed (Printexc.to_string e))
       in
       Obs.count "serve.job";
       respond w r
     end);
    Atomic.decr srv.inflight_jobs;
    response_finished w.w_conn
  in
  if not (Par.Pool.try_submit srv.pool task) then begin
    Atomic.decr srv.inflight_jobs;
    send_error w Protocol.Queue_full;
    response_finished w.w_conn
  end

let flat_of_cell cell = Flatten.protos_flat (Flatten.prototypes cell)

let drc_work srv spec () =
  match Jobspec.target_cell spec with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok cell ->
    Ok (drc_json (Drc.check_flat ~domains:srv.cfg.job_domains (flat_of_cell cell)))

(* static electrical check of a builtin or CIF target: hierarchical
   verdicts, summarised like drc_work (clean + censuses + the
   per-code diagnostic counts, not the full diagnostic list) *)
let erc_work srv spec () =
  match Jobspec.target_cell spec with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok cell ->
    let module Erc = Rsg_erc.Erc in
    let r = Erc.check_cell ~domains:srv.cfg.job_domains cell in
    let d = Erc.to_diags r in
    Ok
      (Json.Obj
         [
           ("clean", Json.Bool (Erc.clean r));
           ("nets", Json.Int r.Erc.r_nets);
           ("devices", Json.Int r.Erc.r_devices);
           ("rails", Json.Int r.Erc.r_rails);
           ("levels", Json.Int (List.length r.Erc.r_levels));
           ("cached", Json.Int r.Erc.r_cached);
           ("diagnostics", Json.Int (List.length d.Rsg_lint.Diag.r_diags));
         ])

(* hierarchical compaction of a builtin or batch-spec target; the
   witness of an infeasible system is the job error, not a crash *)
let compact_work spec () =
  match Jobspec.target_cell spec with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok cell -> (
    match
      Rsg_compact.Hcompact.hier Rsg_compact.Rules.default cell
    with
    | r ->
      let s = r.Rsg_compact.Hcompact.hr_stats in
      Ok
        (Json.Obj
           [
             ("protos", Json.Int s.Rsg_compact.Hcompact.hs_protos);
             ( "stitch_constraints",
               Json.Int s.Rsg_compact.Hcompact.hs_stitch_constraints );
             ("elements", Json.Int s.Rsg_compact.Hcompact.hs_elements);
             ("rounds", Json.Int s.Rsg_compact.Hcompact.hs_rounds);
             ("area_before", Json.Int s.Rsg_compact.Hcompact.hs_area_before);
             ("area_after", Json.Int s.Rsg_compact.Hcompact.hs_area_after);
           ])
    | exception Rsg_compact.Bellman.Infeasible cycle ->
      Error
        (Protocol.Job_failed
           (Format.asprintf "compaction infeasible: %a"
              Rsg_compact.Bellman.pp_witness cycle)))

let place_work srv spec ~blocks ~seed ~iters ~chains () =
  match Jobspec.target_cell spec with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok cell -> (
    let module Anneal = Rsg_search.Anneal in
    let module Place_opt = Rsg_search.Place_opt in
    match
      Anneal.run ~domains:srv.cfg.job_domains ~chains ~iters ~seed
        Place_opt.problem
        (Place_opt.make (List.init blocks (fun _ -> cell)))
    with
    | r ->
      Ok (Place_opt.summary_json ~target:spec ~strategy:"anneal" ~seed r)
    | exception Invalid_argument msg -> Error (Protocol.Bad_request msg))

let extract_work srv spec () =
  match Jobspec.target_cell spec with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok cell ->
    let flat = flat_of_cell cell in
    let items = Rsg_compact.Scanline.items_of_flat flat in
    let labels = Array.to_list flat.Flatten.flat_labels in
    let n =
      Rsg_extract.Extract.of_items ~domains:srv.cfg.job_domains items labels
    in
    Ok
      (Json.Obj
         [
           ("nets", Json.Int n.Rsg_extract.Extract.n_nets);
           ("devices", Json.Int (Rsg_extract.Extract.n_devices n));
         ])

let lint_work spec () =
  let module Design_lint = Rsg_lint.Design_lint in
  match
    match Jobspec.lint_builtin spec with
    | None when Sys.file_exists spec ->
      Some
        ( spec,
          Design_lint.default_config,
          In_channel.with_open_bin spec In_channel.input_all )
    | builtin -> builtin
  with
  | None ->
    Error
      (Protocol.Bad_request
         (spec ^ " is neither a file nor a builtin (mult, pla)"))
  | Some (file, cfg, text) ->
    let r = Design_lint.check_string ~file cfg text in
    Ok
      (Json.Obj
         [
           ("clean", Json.Bool (Rsg_lint.Diag.clean r));
           ("errors", Json.Int (List.length (Rsg_lint.Diag.errors r)));
           ("warnings", Json.Int (List.length (Rsg_lint.Diag.warnings r)));
           ("checked", Json.Int r.Rsg_lint.Diag.r_checked);
         ])

let batch_work srv spec () =
  match Jobspec.parse_manifest spec with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok jobs ->
    Ok
      (Batch.to_json
         (Batch.run ~domains:srv.cfg.job_domains ?store:srv.store jobs))

let sleep_work ms () =
  Unix.sleepf (float_of_int ms /. 1000.);
  Ok (Json.Obj [ ("slept_ms", Json.Int ms) ])

(* ---- inline control ops --------------------------------------------- *)

let stats_json srv =
  let mem_entries, mem_bytes = Mcache.stats srv.mem in
  Json.Obj
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. srv.started));
      ("pid", Json.Int (Unix.getpid ()));
      ("requests", Json.Int (Atomic.get srv.requests));
      ("inflight", Json.Int (Atomic.get srv.inflight_jobs));
      ("pending", Json.Int (Par.Pool.pending srv.pool));
      ("workers", Json.Int (Par.Pool.size srv.pool));
      ("queue_depth", Json.Int srv.cfg.queue_depth);
      ("draining", Json.Bool srv.draining);
      ( "mem",
        Json.Obj
          [
            ("entries", Json.Int mem_entries);
            ("bytes", Json.Int mem_bytes);
            ("budget", Json.Int srv.cfg.mem_budget);
          ] );
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.counters ())) );
    ]

let health_json srv =
  Json.Obj
    [
      ("status", Json.String (if srv.draining then "draining" else "ok"));
      ("pid", Json.Int (Unix.getpid ()));
    ]

(* ---- request dispatch ----------------------------------------------- *)

let dispatch srv conn (req : Protocol.request) =
  let id = req.Protocol.rq_id in
  match req.Protocol.rq_op with
  | Protocol.Stats -> send conn (Protocol.ok_response ~id (stats_json srv))
  | Protocol.Health -> send conn (Protocol.ok_response ~id (health_json srv))
  | Protocol.Shutdown ->
    send conn
      (Protocol.ok_response ~id (Json.Obj [ ("stopping", Json.Bool true) ]));
    request_stop srv
  | op ->
    let w =
      {
        w_conn = conn;
        w_id = id;
        w_arrival = Unix.gettimeofday ();
        w_deadline_ms = req.Protocol.rq_deadline_ms;
        w_drc = false;
        w_cif = false;
        w_out = None;
      }
    in
    if srv.draining then send_error w Protocol.Draining
    else if expired w w.w_arrival then
      (* a non-positive deadline is expired on arrival: deterministic,
         so tests can exercise the deadline path without racing *)
      send_error w Protocol.Deadline_expired
    else begin
      response_begun conn;
      (* an exception here would leak the response slot and hang the
         client waiting on this id — answer [job_failed] instead *)
      try
        match op with
        | Protocol.Generate { spec; drc; cif; out } ->
          dispatch_generate srv
            { w with w_drc = drc; w_cif = cif; w_out = out }
            spec
        | Protocol.Drc { spec } -> dispatch_direct srv w (drc_work srv spec)
        | Protocol.Erc { spec } -> dispatch_direct srv w (erc_work srv spec)
        | Protocol.Compact { spec } ->
          dispatch_direct srv w (compact_work spec)
        | Protocol.Place { spec; blocks; seed; iters; chains } ->
          dispatch_direct srv w
            (place_work srv spec ~blocks ~seed ~iters ~chains)
        | Protocol.Extract { spec } ->
          dispatch_direct srv w (extract_work srv spec)
        | Protocol.Lint { spec } -> dispatch_direct srv w (lint_work spec)
        | Protocol.Batch { spec } -> dispatch_direct srv w (batch_work srv spec)
        | Protocol.Sleep { ms } -> dispatch_direct srv w (sleep_work ms)
        | Protocol.Stats | Protocol.Health | Protocol.Shutdown -> assert false
      with e ->
        send_error w (Protocol.Job_failed (Printexc.to_string e));
        response_finished conn
    end

let handle_line srv conn line =
  Atomic.incr srv.requests;
  Obs.count "serve.request";
  match Protocol.parse_request line with
  | Error (id, err) ->
    Obs.count ("serve." ^ Protocol.error_code err);
    send conn (Protocol.error_response ~id err)
  | Ok req -> dispatch srv conn req

(* ---- connection reader ---------------------------------------------- *)

(* Newline framing over a byte cap.  An over-cap line without a
   newline gets a [too_large] response and closes the connection: the
   stream may be arbitrarily far from the next frame boundary, so
   resynchronising silently would misparse whatever follows. *)
let conn_loop srv conn () =
  let cap = srv.cfg.max_request in
  let chunk = Bytes.create 65536 in
  let acc = Buffer.create 4096 in
  let overflow = ref false in
  let refuse_too_large () =
    Obs.count "serve.too_large";
    send conn
      (Protocol.error_response ~id:Json.Null (Protocol.Too_large { limit = cap }));
    overflow := true
  in
  let rec drain_lines () =
    let s = Buffer.contents acc in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear acc;
      Buffer.add_substring acc s (i + 1) (String.length s - i - 1);
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      (* the cap bounds what we are willing to parse at all, so an
         over-cap line is refused even when it framed — otherwise the
         verdict would depend on how the bytes happened to arrive *)
      if String.length line > cap then refuse_too_large ()
      else begin
        if String.trim line <> "" then handle_line srv conn line;
        drain_lines ()
      end
    | None -> if String.length s > cap then refuse_too_large ()
  in
  let rec read_loop () =
    if not !overflow then
      match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        (* EOF; a final unterminated line still gets served (clients
           that shut down their write side after the last request) *)
        if Buffer.length acc > 0 then begin
          let line = String.trim (Buffer.contents acc) in
          Buffer.clear acc;
          if line <> "" then handle_line srv conn line
        end
      | n ->
        Buffer.add_subbytes acc chunk 0 n;
        drain_lines ();
        read_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_loop ()
      | exception Unix.Unix_error _ -> ()
  in
  (try read_loop () with _ -> ());
  reader_finished conn;
  locked srv.mu (fun () ->
      srv.conns <- List.filter (fun c -> c != conn) srv.conns)

(* ---- accept loop and lifecycle -------------------------------------- *)

let accept_loop srv listener =
  let rec loop () =
    if not (Atomic.get srv.stop) then begin
      match Unix.select [ listener; srv.stop_r ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
        if List.mem srv.stop_r ready then ()
        else begin
          (match Unix.accept listener with
          | fd, _ ->
            let conn = mk_conn fd in
            let th = Thread.create (conn_loop srv conn) () in
            locked srv.mu (fun () ->
                srv.conns <- conn :: srv.conns;
                srv.threads <- th :: srv.threads)
          | exception Unix.Unix_error _ -> ());
          loop ()
        end
    end
  in
  loop ()

let run ?(on_ready = fun () -> ()) cfg =
  Obs.enable ();
  (* a client closing mid-response must surface as EPIPE on write, not
     kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop_r, stop_w = Unix.pipe () in
  let srv =
    {
      cfg;
      pool =
        Par.Pool.create
          ~max_pending:(max 0 cfg.queue_depth)
          ~domains:(max 1 cfg.workers) ();
      mem = Mcache.create ~budget_bytes:cfg.mem_budget;
      store = Option.map Store.open_ cfg.store_dir;
      mu = Mutex.create ();
      coalesce = Hashtbl.create 16;
      conns = [];
      threads = [];
      draining = false;
      inflight_jobs = Atomic.make 0;
      requests = Atomic.make 0;
      stop = Atomic.make false;
      stop_r;
      stop_w;
      started = Unix.gettimeofday ();
    }
  in
  if cfg.handle_signals then begin
    let h = Sys.Signal_handle (fun _ -> request_stop srv) in
    (try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ());
    try Sys.set_signal Sys.sigint h with Invalid_argument _ -> ()
  end;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      (try Unix.close stop_r with Unix.Unix_error _ -> ());
      try Unix.close stop_w with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen listener 64;
      on_ready ();
      accept_loop srv listener;
      (* ---- drain: new work refused, admitted work completes ---- *)
      locked srv.mu (fun () -> srv.draining <- true);
      (* wake readers idle in [read]; they see EOF and finish once
         their outstanding responses are written *)
      let conns = locked srv.mu (fun () -> srv.conns) in
      List.iter
        (fun c ->
          locked c.c_wmutex (fun () ->
              if not c.c_closed then
                try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
                with Unix.Unix_error _ -> ()))
        conns;
      (* workers finish every queued task before exiting *)
      Par.Pool.shutdown srv.pool;
      let threads = locked srv.mu (fun () -> srv.threads) in
      List.iter Thread.join threads)
