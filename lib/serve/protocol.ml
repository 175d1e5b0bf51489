module Json = Rsg_obs.Json

type error =
  | Bad_request of string
  | Too_large of { limit : int }
  | Queue_full
  | Deadline_expired
  | Job_failed of string
  | Draining

let error_code = function
  | Bad_request _ -> "bad_request"
  | Too_large _ -> "too_large"
  | Queue_full -> "queue_full"
  | Deadline_expired -> "deadline_expired"
  | Job_failed _ -> "job_failed"
  | Draining -> "draining"

let error_message = function
  | Bad_request m -> m
  | Too_large { limit } ->
    Printf.sprintf "request line exceeds %d bytes" limit
  | Queue_full -> "admission queue full; retry later"
  | Deadline_expired -> "job did not start before its deadline"
  | Job_failed m -> m
  | Draining -> "daemon is draining; no new jobs admitted"

type op =
  | Generate of { spec : string; drc : bool; cif : bool; out : string option }
  | Drc of { spec : string }
  | Erc of { spec : string }
  | Compact of { spec : string }
  | Place of { spec : string; blocks : int; seed : int; iters : int;
               chains : int }
  | Extract of { spec : string }
  | Lint of { spec : string }
  | Batch of { spec : string }
  | Sleep of { ms : int }
  | Stats
  | Health
  | Shutdown

type request = { rq_id : Json.t; rq_op : op; rq_deadline_ms : int option }

let spec_of v =
  match Json.mem_string "spec" v with
  | Some s when String.trim s <> "" -> Ok s
  | Some _ -> Error "empty \"spec\""
  | None -> Error "missing \"spec\" field"

let op_of v =
  match Json.mem_string "op" v with
  | None -> Error "missing \"op\" field"
  | Some "generate" ->
    Result.map
      (fun spec ->
        Generate
          {
            spec;
            drc = Option.value ~default:false (Json.mem_bool "drc" v);
            cif = Option.value ~default:false (Json.mem_bool "cif" v);
            out = Json.mem_string "out" v;
          })
      (spec_of v)
  | Some "drc" -> Result.map (fun spec -> Drc { spec }) (spec_of v)
  | Some "erc" -> Result.map (fun spec -> Erc { spec }) (spec_of v)
  | Some "compact" -> Result.map (fun spec -> Compact { spec }) (spec_of v)
  | Some "place" ->
    let field name default =
      Option.value ~default (Json.mem_int name v)
    in
    Result.bind (spec_of v) (fun spec ->
        let blocks = field "blocks" 3
        and seed = field "seed" 1
        and iters = field "iters" 32
        and chains = field "chains" 2 in
        (* a started job is never preempted, so these bound what one
           request can cost: blocks x blocks slots, iters x chains
           evaluations *)
        if blocks < 1 || blocks > 16 || iters < 0 || iters > 256 || chains < 1
           || chains > 4
        then
          Error "place needs blocks in 1..16, iters in 0..256, chains in 1..4"
        else Ok (Place { spec; blocks; seed; iters; chains }))
  | Some "extract" -> Result.map (fun spec -> Extract { spec }) (spec_of v)
  | Some "lint" -> Result.map (fun spec -> Lint { spec }) (spec_of v)
  | Some "batch" -> Result.map (fun spec -> Batch { spec }) (spec_of v)
  | Some "sleep" -> (
    match Json.mem_int "ms" v with
    | Some ms when ms >= 0 -> Ok (Sleep { ms })
    | Some _ -> Error "\"ms\" must be non-negative"
    | None -> Error "sleep needs an integer \"ms\" field")
  | Some "stats" -> Ok Stats
  | Some "health" -> Ok Health
  | Some "shutdown" -> Ok Shutdown
  | Some other -> Error (Printf.sprintf "unknown op %S" other)

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Json.Null, Bad_request ("malformed JSON: " ^ msg))
  | Ok v -> (
    let id = Option.value ~default:Json.Null (Json.member "id" v) in
    match v with
    | Json.Obj _ -> (
      match op_of v with
      | Error msg -> Error (id, Bad_request msg)
      | Ok op ->
        let deadline =
          match Json.member "deadline_ms" v with
          | None | Some Json.Null -> None
          | Some d -> (
            match Json.to_int_opt d with
            | Some ms -> Some ms
            | None -> Some 0 (* non-integer deadline: expired on arrival *))
        in
        Ok { rq_id = id; rq_op = op; rq_deadline_ms = deadline })
    | _ -> Error (id, Bad_request "request must be a JSON object"))

let ok_response ~id result =
  Json.to_string (Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ])

let error_response ~id err =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ("error", Json.String (error_code err));
         ("message", Json.String (error_message err));
       ])
