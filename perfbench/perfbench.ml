(* The repository benchmark: one seeded workload per run, in-process,
   timed op by op, every output checked by an oracle after the timed
   window.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--corrupt-reference]

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 half the ops are traced by the span recorder and the
   line carries the per-layer metrics.  The exit code is 0 only when
   every op succeeded and every output matched. *)

open Common

let workloads =
  [ Cold_verify.workload; Edit_loop.workload; Anneal_wl.workload; Serve_mix.workload ]

(* spans opened around each layer's public function; the [true] ones
   run on the calling domain with nothing else in flight, so they also
   carry CPU and allocation *)
let layers =
  [ ("lint", true); ("lang", true); ("gen", true); ("layout.flatten", true);
    ("layout.flat", true); ("layout.cif", true); ("drc", true); ("erc", true);
    ("store.find", true); ("store.harvest", true); ("store.save", true);
    ("codec.table", true); ("search", true); ("search.evaluate", false);
    ("serve.generate", false); ("serve.drc", false); ("serve.erc", false);
    ("serve.extract", false) ]

(* every run holds at least ten ops beyond p90 unless the time cap
   hits; peak memory is read when this many ops have completed, so it
   measures the same work however fast the run goes (the heap grows
   with the number of ops run) *)
let min_ops = 100

(* set-up runs this many times from scratch; the median is reported *)
let setup_reps = 9

(* ---- statistics ----------------------------------------------------- *)

(* nearest-rank percentile; 0 on an empty sample *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let median xs = percentile 0.5 xs

let ratio a b = if b > 0. then a /. b else 0.

(* ---- the timed window ----------------------------------------------- *)

type sample = { lat : float; outcome : outcome; traced : bool }

type window = {
  samples : sample list;
  errors : (int * string) list;
  attempted : int;
  wall : float;
  cpu : float;
  steal : float;
  minor : int;
  major : int;
  record_wall : float;  (** the oracle's record steps, taken out of [wall] *)
  rss : float;  (** VmHWM when op [min_ops] completed (or at the end) *)
  rss_end : float;  (** VmHWM at the end of the window *)
}

(* the resources one step used; the process-wide figures are the
   step's own only while nothing else runs *)
type usage = { u_wall : float; u_cpu : float; u_minor : int; u_major : int }

let measure f =
  let w0 = Unix.gettimeofday () and c0 = Host.cpu_s () and g0 = Gc.quick_stat () in
  f ();
  let g1 = Gc.quick_stat () in
  { u_wall = Unix.gettimeofday () -. w0;
    u_cpu = Host.cpu_s () -. c0;
    u_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    u_major = g1.Gc.major_collections - g0.Gc.major_collections }

let run_window inst ~seconds ~trace =
  let cap = Float.min (4. *. seconds) 150. in
  let next = Atomic.make 0 and finished = Atomic.make 0 in
  let mu = Mutex.create () in
  let samples = ref [] and errors = ref [] in
  let rss = ref nan in
  (* the record steps, summed; with one op at a time they are taken out
     of the window's wall, CPU and GC counts, so those hold the
     program's work alone *)
  let serial = inst.concurrency <= 1 in
  let recorded = ref { u_wall = 0.; u_cpu = 0.; u_minor = 0; u_major = 0 } in
  let steal0 = Host.steal_s () and cpu0 = Host.cpu_s () in
  let gc0 = Gc.quick_stat () in
  let t_start = Unix.gettimeofday () in
  let go () =
    let e = Unix.gettimeofday () -. t_start in
    e < seconds || (Atomic.get finished < min_ops && e < cap)
  in
  let worker slot =
    while go () do
      let i = Atomic.fetch_and_add next 1 in
      (* half the ops, picked by a hash of the op id: a pattern in [i]
         could line up with a workload's cycle of op kinds, and the
         traced and untraced ops must do the same mix of work *)
      let traced = trace && Hashtbl.hash i land 1 = 1 in
      let ctx = Trace.root ~on:traced i in
      let t0 = Unix.gettimeofday () in
      let r =
        match Trace.span ~local:serial ctx "op" (fun ctx -> inst.op ~slot ctx i) with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e)
      in
      let lat = Unix.gettimeofday () -. t0 in
      let r =
        match r with
        | Error _ as e -> e
        | Ok (outcome, record) -> (
          match measure record with
          | u ->
            if serial then
              recorded :=
                { u_wall = !recorded.u_wall +. u.u_wall;
                  u_cpu = !recorded.u_cpu +. u.u_cpu;
                  u_minor = !recorded.u_minor + u.u_minor;
                  u_major = !recorded.u_major + u.u_major };
            Ok outcome
          | exception e -> Error ("recording the output: " ^ Printexc.to_string e))
      in
      Mutex.protect mu (fun () ->
          match r with
          | Ok outcome -> samples := { lat; outcome; traced } :: !samples
          | Error m -> errors := (i, m) :: !errors);
      if Atomic.fetch_and_add finished 1 = min_ops - 1 then rss := Host.peak_rss_mb ()
    done
  in
  if serial then worker 0
  else
    List.iter Thread.join
      (List.init inst.concurrency (fun slot -> Thread.create worker slot));
  let wall = Unix.gettimeofday () -. t_start in
  let gc1 = Gc.quick_stat () in
  let r = !recorded in
  {
    samples = !samples;
    errors = !errors;
    attempted = Atomic.get finished;
    wall = wall -. r.u_wall;
    cpu = Host.cpu_s () -. cpu0 -. r.u_cpu;
    steal = Host.steal_s () -. steal0;
    minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections - r.u_minor;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections - r.u_major;
    record_wall = r.u_wall;
    rss = (if Float.is_nan !rss then Host.peak_rss_mb () else !rss);
    rss_end = Host.peak_rss_mb ();
  }

(* ---- metrics -------------------------------------------------------- *)

let lats ?(traced = false) ?outcome w =
  List.filter_map
    (fun s ->
      if s.traced = traced && (outcome = None || outcome = Some s.outcome) then Some s.lat
      else None)
    w.samples

let end_to_end ~setup_s w =
  let ops = float_of_int (List.length w.samples) in
  [ ("setup_s", setup_s, "s");
    ("op_p50_s", median (lats w), "s");
    ("op_p90_s", percentile 0.9 (lats w), "s");
    ("ops_per_s", ratio ops w.wall, "1/s");
    ("cpu_s_per_op", ratio w.cpu ops, "s");
    ("peak_rss_mb", w.rss, "MB");
    ("miss_p50_s", median (lats ~outcome:Miss w), "s") ]

type layer_sum = {
  mutable calls : int;
  mutable self_s : float;
  mutable cpu_s : float;
  mutable alloc_w : float;
  mutable wall_s : float;
  mutable raw_cpu_s : float;
}

let per_layer ~best_area ~failed w selfs =
  let tbl = Hashtbl.create 32 in
  let sum name =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
      let s =
        { calls = 0; self_s = 0.; cpu_s = 0.; alloc_w = 0.; wall_s = 0.; raw_cpu_s = 0. }
      in
      Hashtbl.replace tbl name s;
      s
  in
  let add x y = if Float.is_nan y then x else x +. y in
  List.iter
    (fun (s : Trace.self) ->
      let a = sum s.Trace.s_span.Trace.name in
      a.calls <- a.calls + 1;
      a.self_s <- a.self_s +. s.Trace.s_time;
      a.cpu_s <- add a.cpu_s s.Trace.s_cpu;
      a.alloc_w <- add a.alloc_w s.Trace.s_alloc;
      a.wall_s <- a.wall_s +. (s.Trace.s_span.Trace.t1 -. s.Trace.s_span.Trace.t0);
      a.raw_cpu_s <- add a.raw_cpu_s s.Trace.s_span.Trace.cpu)
    selfs;
  let traced_ops = float_of_int (sum "op").calls in
  let per_op x = ratio x traced_ops in
  let spans =
    List.concat_map
      (fun (name, local) ->
        let a = sum name in
        [ (name ^ ".calls", per_op (float_of_int a.calls), "calls/op");
          (name ^ ".self_s", per_op a.self_s, "s/op") ]
        @
        if local then
          [ (name ^ ".cpu_s", per_op a.cpu_s, "s/op");
            (name ^ ".alloc_mw", per_op (a.alloc_w /. 1e6), "Mw/op") ]
        else [])
      layers
  in
  let util name =
    let a = sum name in
    ( Printf.sprintf "par.util.%s" name,
      ratio a.raw_cpu_s (a.wall_s *. float_of_int domains),
      "ratio" )
  in
  let ops = float_of_int (List.length w.samples + List.length w.errors) in
  let t = tally_get in
  let op_self = (sum "op").self_s and op_wall = (sum "op").wall_s in
  let untraced_p50 = median (lats w) and traced_p50 = median (lats ~traced:true w) in
  spans
  @ [ util "drc"; util "erc"; util "search";
      ("drc.replay_ratio", ratio (t "drc.replayed") (t "drc.levels"), "ratio");
      ("store.hit_ratio", ratio (t "store.find_hit") (t "store.find"), "ratio");
      ("store.reuse_ratio", ratio (t "store.reused") (t "store.protos"), "ratio");
      ("store.bytes_written", ratio (t "store.bytes_written") ops, "B/op");
      ("store.bytes_read", ratio (t "store.bytes_read") ops, "B/op");
      ( "search.cached_ratio",
        (if t "search.iters" > 0. then
           1. -. ratio (t "search.computed") (t "search.iters")
         else 0.),
        "ratio" );
      ("search.accept_ratio", ratio (t "search.accepted") (t "search.iters"), "ratio");
      ("search.evals_per_s", ratio (t "search.computed") (t "search.wall_s"), "1/s");
      ( "serve.mem_hit_ratio",
        ratio (t "serve.mem_hit") (t "serve.mem_hit" +. t "serve.mem_miss"),
        "ratio" );
      ("serve.coalesced", t "serve.coalesced", "count");
      ("gc.minor", ratio (float_of_int w.minor) ops, "1/op");
      ("gc.major", ratio (float_of_int w.major) ops, "1/op");
      ("hit_p50_s", median (lats ~outcome:Hit w), "s");
      ("best_area", float_of_int (Option.value ~default:0 best_area), "dbu2");
      ("fail_ratio", ratio (float_of_int failed) (float_of_int w.attempted), "ratio");
      ( "trace.coverage",
        (if op_wall > 0. then 1. -. (op_self /. op_wall) else 0.),
        "ratio" );
      ( "trace.overhead",
        (if untraced_p50 > 0. then (traced_p50 /. untraced_p50) -. 1. else 0.),
        "ratio" ) ]

(* the uncovered parts of traced ops, largest first, named by the spans
   on either side *)
let coverage_gaps selfs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.self) ->
      if s.Trace.s_span.Trace.name = "op" then
        List.iter
          (fun (a, b, d) ->
            let k = a ^ " -> " ^ b in
            Hashtbl.replace tbl k (d +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
          s.Trace.s_gaps)
    selfs;
  Hashtbl.fold (fun k d acc -> (k, d) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* ---- the command ---------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (cold-verify|edit-loop|anneal|serve-mix) --seed N \
     --seconds S --trace 0|1 [--corrupt-reference]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let corrupt = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--corrupt-reference" :: rest -> corrupt := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let out = Filename.concat "perfbench" "_out" in
  let env =
    { seed = !seed;
      dir = Filename.concat out (Printf.sprintf "%s-%d" wl.name (Unix.getpid ())) }
  in
  rm_rf env.dir;
  mkdir_p env.dir;
  (* set-up runs several times from scratch, each instance torn down as
     soon as it is timed; the median is reported and the last instance
     is the one measured *)
  let rec setups rep times =
    let t0 = Unix.gettimeofday () in
    let inst = wl.setup env ~rep in
    let times = (Unix.gettimeofday () -. t0) :: times in
    if rep = setup_reps - 1 then (inst, median times)
    else begin
      inst.teardown ();
      setups (rep + 1) times
    end
  in
  let inst, setup_s = setups 0 [] in
  let w = run_window inst ~seconds:!seconds ~trace:!trace in
  inst.after_window ();
  let obs_leak =
    if wl.name <> "serve-mix" && Rsg_obs.Obs.is_enabled () then
      [ (-1, "Rsg_obs was enabled") ]
    else []
  in
  let mismatches = inst.check ~corrupt:!corrupt in
  let best_area = inst.best_area () in
  inst.teardown ();
  rm_rf env.dir;
  let failed_ops =
    List.sort_uniq compare (List.map fst (w.errors @ mismatches @ obs_leak))
  in
  let failed = List.length failed_ops in
  let attempted = w.attempted in
  let selfs = if !trace then Trace.self_times (Trace.spans ()) else [] in
  let metrics =
    if !trace then per_layer ~best_area ~failed w selfs
    else end_to_end ~setup_s w
  in
  let coverage =
    match List.find_opt (fun (n, _, _) -> n = "trace.coverage") metrics with
    | Some (_, c, _) -> c
    | None -> 1.
  in
  let coverage_ok = (not !trace) || coverage >= 0.9 in
  let correct = failed = 0 && coverage_ok in
  (* ---- report ---- *)
  let n = List.length w.samples in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" wl.name !seed !seconds
    (if !trace then 1 else 0);
  Printf.printf "host nproc=%d domains=%d steal_s=%.2f\n"
    (Domain.recommended_domain_count ()) domains w.steal;
  if inst.concurrency <= 1 then
    Printf.printf "oracle record steps: %.3f s, taken out of the window\n" w.record_wall
  else print_endline "oracle record steps: beside concurrent ops, left in the window";
  Printf.printf "memory peak_rss_mb after %d ops %.1f, at the end of the window %.1f\n"
    min_ops w.rss w.rss_end;
  Printf.printf "ops=%d beyond_p90=%d wall_s=%.3f attempted=%d failed=%d fail_ratio=%g\n" n
    (n - int_of_float (Float.ceil (0.9 *. float_of_int n)))
    w.wall attempted failed (ratio (float_of_int failed) (float_of_int attempted));
  (match best_area with Some a -> Printf.printf "best_area=%d\n" a | None -> ());
  List.iter (fun (i, m) -> Printf.printf "FAIL op %d: %s\n" i m)
    (List.filteri (fun k _ -> k < 20) (w.errors @ mismatches @ obs_leak));
  if !trace then begin
    let path =
      Filename.concat out (Printf.sprintf "trace-%s-%d.json" wl.name !seed)
    in
    Trace.write_chrome path (Trace.spans ());
    Printf.printf "trace: %s (%d spans)\n" path (List.length selfs);
    Printf.printf "tracing overhead: op p50 %.6f s traced vs %.6f s untraced\n"
      (median (lats ~traced:true w)) (median (lats w));
    Printf.printf "span coverage: %.3f of traced op wall time%s\n" coverage
      (if coverage_ok then "" else " (below 0.9)");
    List.iteri
      (fun k (gap, d) ->
        if k < 3 then
          Printf.printf "  uncovered %s: %.6f s/op\n" gap
            (ratio d (float_of_int (List.length (lats ~traced:true w)))))
      (coverage_gaps selfs)
  end;
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-28s %.6g %s\n" name v unit)
    metrics;
  let module J = Rsg_serve.Json in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                   metrics) ) ]));
  exit (if correct then 0 else 1)
