module Json = Rsg_obs.Json

type t = {
  fd : Unix.file_descr;
  acc : Buffer.t;  (* bytes read past the last returned line *)
  chunk : Bytes.t;
}

let connect ?(attempts = 1) path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; acc = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if n > 1 then begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
      else
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
  in
  go (max 1 attempts)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t s =
  let line = s ^ "\n" in
  let n = String.length line in
  let off = ref 0 in
  match
    while !off < n do
      off := !off + Unix.write_substring t.fd line !off (n - !off)
    done
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error ("write failed: " ^ Unix.error_message e)

let send t v = send_line t (Json.to_string v)

let recv t =
  let rec take_line () =
    let s = Buffer.contents t.acc in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear t.acc;
      Buffer.add_substring t.acc s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
    | None -> (
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes t.acc t.chunk 0 n;
        take_line ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> take_line ()
      | exception Unix.Unix_error _ -> None)
  in
  match take_line () with
  | None -> Error "connection closed by daemon"
  | Some line -> (
    match Json.parse line with
    | Ok v -> Ok v
    | Error msg -> Error ("unparseable response: " ^ msg))

let request t v = Result.bind (send t v) (fun () -> recv t)

let pipeline t reqs =
  let rec send_all = function
    | [] -> Ok ()
    | r :: rest -> Result.bind (send t r) (fun () -> send_all rest)
  in
  Result.bind (send_all reqs) (fun () ->
      let rec recv_n acc n =
        if n = 0 then Ok (List.rev acc)
        else Result.bind (recv t) (fun v -> recv_n (v :: acc) (n - 1))
      in
      recv_n [] (List.length reqs))

let response_ok v = Json.mem_bool "ok" v = Some true
