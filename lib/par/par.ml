module Obs = Rsg_obs.Obs

let recommended () = Domain.recommended_domain_count ()

let default_domains () =
  match Sys.getenv_opt "RSG_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> recommended ())
  | None -> recommended ()

(* A resident pool: worker domains stay alive and feed off one locked
   queue, so a process that fans out thousands of small jobs pays no
   spawn/join and no domain churn per job.  The queue bound is the
   admission-control surface the serve layer builds on; the fan-outs
   below run on a crew of one-worker pools. *)
module Pool = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;  (* signalled on submit and on shutdown *)
    idle : Condition.t;      (* signalled when a worker finishes a task *)
    queue : (unit -> unit) Queue.t;
    max_pending : int;
    mutable running : int;   (* tasks currently executing *)
    mutable stopping : bool;
    workers : unit Domain.t array Lazy.t;
    mutable joined : bool;
  }

  let worker_loop t () =
    let rec next () =
      Mutex.lock t.mutex;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.nonempty t.mutex
      done;
      if Queue.is_empty t.queue then begin
        (* stopping and drained *)
        Mutex.unlock t.mutex;
        ()
      end
      else begin
        let task = Queue.pop t.queue in
        t.running <- t.running + 1;
        Mutex.unlock t.mutex;
        (* a raising task must not take the worker down with it: the
           submitter owns error reporting, the pool only owns threads *)
        (try task () with _ -> ());
        Mutex.lock t.mutex;
        t.running <- t.running - 1;
        Condition.broadcast t.idle;
        Mutex.unlock t.mutex;
        next ()
      end
    in
    next ()

  let create ?(max_pending = 0) ~domains () =
    let d = max 1 domains in
    let rec t =
      { mutex = Mutex.create ();
        nonempty = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        max_pending;
        running = 0;
        stopping = false;
        workers = lazy (Array.init d (fun _ -> Domain.spawn (worker_loop t)));
        joined = false }
    in
    ignore (Lazy.force t.workers);
    t

  let size t = Array.length (Lazy.force t.workers)

  let try_submit t task =
    Mutex.lock t.mutex;
    let accepted =
      (not t.stopping)
      && (t.max_pending <= 0 || Queue.length t.queue < t.max_pending)
    in
    if accepted then begin
      Queue.push task t.queue;
      Condition.signal t.nonempty
    end;
    Mutex.unlock t.mutex;
    accepted

  let pending t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n

  (* block until the queue is empty and no task is executing *)
  let wait_idle t =
    Mutex.lock t.mutex;
    while not (Queue.is_empty t.queue && t.running = 0) do
      Condition.wait t.idle t.mutex
    done;
    Mutex.unlock t.mutex

  let shutdown t =
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if not t.joined then begin
      t.joined <- true;
      Array.iter Domain.join (Lazy.force t.workers)
    end
end

(* The process-wide crew: helper [k] is a one-worker pool, so a fan-out
   on [d] domains always lands on helpers [0 .. d - 2].  It is created
   by the first fan-out that needs it, never at initialisation (the
   Thread library cannot start once a second domain exists), and grows
   to the largest request.  [held] admits one fan-out at a time and
   guards [crew]; a fan-out that finds it taken, nested in a task or
   submitted from another domain, runs inline. *)
let crew : Pool.t array ref = ref [||]

let held = Atomic.make false

(* Run [body i] for every [i < n] on up to [d] participants (the caller
   plus [d - 1] helpers), chunk self-scheduling off one atomic counter.
   Every participant finishes before anything is raised. *)
let run_chunks ~domains:d ~chunk n body =
  let next = Atomic.make 0 in
  let share () =
    let rec loop () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        for i = start to stop - 1 do
          body i
        done;
        loop ()
      end
    in
    match loop () with () -> None | exception e -> Some e
  in
  let failures =
    if not (Atomic.compare_and_set held false true) then [| share () |]
    else
      Fun.protect ~finally:(fun () -> Atomic.set held false) @@ fun () ->
      while Array.length !crew < d - 1 do
        crew := Array.append !crew [| Pool.create ~domains:1 () |]
      done;
      (* participant [k] records its share under its own node, made
         here before the fan-out and touched by no one else until the
         join *)
      let share =
        if not (Obs.is_enabled ()) then fun _ -> share ()
        else
          let nodes =
            Array.init d (fun k -> Obs.branch (Printf.sprintf "par.domain%d" k))
          in
          fun k -> Obs.within nodes.(k) share
      in
      let failures = Array.make d None in
      (* crew pools are unbounded and never shut down; a helper that
         started late finds the chunks claimed and returns at once *)
      for k = 1 to d - 1 do
        ignore
          (Pool.try_submit !crew.(k - 1) (fun () -> failures.(k) <- share k))
      done;
      failures.(0) <- share 0;
      for k = 1 to d - 1 do
        Pool.wait_idle !crew.(k - 1)
      done;
      failures
  in
  Array.iter (Option.iter raise) failures

let map_in ~domains:d ~chunk span_name f xs =
  let n = Array.length xs in
  let d = max 1 (min d n) in
  if d = 1 then Array.map f xs
  else
    Obs.span span_name @@ fun () ->
    let out = Array.make n None in
    run_chunks ~domains:d ~chunk n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out

let map ?domains f xs =
  let d = match domains with Some d -> d | None -> default_domains () in
  (* contiguous chunks a few per domain: cheap scheduling for roughly
     uniform elements, still some balancing slack *)
  let chunk = max 1 (Array.length xs / (max 1 d * 4)) in
  map_in ~domains:d ~chunk "par.map" f xs

let chunked_map ?domains ?(chunk = 1) f xs =
  let d = match domains with Some d -> d | None -> default_domains () in
  map_in ~domains:d ~chunk:(max 1 chunk) "par.chunked_map" f xs
