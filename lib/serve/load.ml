module Json = Rsg_obs.Json

type result = {
  l_sent : int;
  l_ok : int;
  l_errors : (string * int) list;
  l_latencies : float array;
  l_seconds : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

type thread_out = {
  mutable t_ok : int;
  mutable t_errors : (string * int) list;
  mutable t_lat : float list;
  mutable t_fail : string option;  (* transport failure, aborts the thread *)
}

let with_id v id =
  match v with
  | Json.Obj fields ->
    Json.Obj (("id", Json.String id) :: List.remove_assoc "id" fields)
  | other -> other

let bump out code =
  let n = try List.assoc code out.t_errors with Not_found -> 0 in
  out.t_errors <- (code, n + 1) :: List.remove_assoc code out.t_errors

let replay_thread ~socket ~repeat ~offset reqs out =
  match Client.connect ~attempts:20 socket with
  | Error msg -> out.t_fail <- Some msg
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let reqs = Array.of_list reqs in
        let n = Array.length reqs in
        let k = ref 0 in
        (try
           for round = 0 to repeat - 1 do
             for i = 0 to n - 1 do
               let req = reqs.((offset + (round * n) + i) mod n) in
               let id = Printf.sprintf "t%d-%d" offset !k in
               incr k;
               let t0 = Unix.gettimeofday () in
               match Client.request c (with_id req id) with
               | Error msg ->
                 out.t_fail <- Some msg;
                 raise Exit
               | Ok resp ->
                 out.t_lat <- (Unix.gettimeofday () -. t0) :: out.t_lat;
                 if Client.response_ok resp then out.t_ok <- out.t_ok + 1
                 else
                   bump out
                     (Option.value ~default:"unknown"
                        (Json.mem_string "error" resp))
             done
           done
         with Exit -> ()))

let run ~socket ~concurrency ~repeat reqs =
  let concurrency = max 1 concurrency in
  let outs =
    Array.init concurrency (fun _ ->
        { t_ok = 0; t_errors = []; t_lat = []; t_fail = None })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.mapi
      (fun i out ->
        Thread.create
          (fun () -> replay_thread ~socket ~repeat ~offset:i reqs out)
          ())
      outs
  in
  Array.iter Thread.join threads;
  let seconds = Unix.gettimeofday () -. t0 in
  match
    Array.fold_left
      (fun acc o -> match acc with Some _ -> acc | None -> o.t_fail)
      None outs
  with
  | Some msg -> Error msg
  | None ->
    let lat =
      Array.of_list (Array.fold_left (fun l o -> o.t_lat @ l) [] outs)
    in
    Array.sort compare lat;
    let errors =
      Array.fold_left
        (fun acc o ->
          List.fold_left
            (fun acc (code, n) ->
              let m = try List.assoc code acc with Not_found -> 0 in
              (code, m + n) :: List.remove_assoc code acc)
            acc o.t_errors)
        [] outs
      |> List.sort compare
    in
    Ok
      {
        l_sent = Array.length lat;
        l_ok = Array.fold_left (fun a o -> a + o.t_ok) 0 outs;
        l_errors = errors;
        l_latencies = lat;
        l_seconds = seconds;
      }
