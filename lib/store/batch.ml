open Rsg_layout
module Obs = Rsg_obs.Obs
module Par = Rsg_par.Par

type job = {
  j_name : string;
  j_kind : string;
  j_key : Store.key;
  j_label : string;
  j_gen : unit -> Cell.t;
}

type outcome =
  | Hit
  | Generated
  | Regenerated of Codec.error
  | Failed of string

type result = {
  r_job : job;
  r_outcome : outcome;
  r_seconds : float;
  r_cell : Cell.t option;
  r_boxes : int;
}

let generate store job =
  let cell = job.j_gen () in
  (match store with
  | Some st -> Store.save st job.j_key ~label:job.j_label cell
  | None -> ());
  cell

let run_one store job =
  Obs.span ("batch." ^ job.j_name) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let outcome, cell, boxes =
    match
      let outcome, cell =
        match store with
        | None -> (Generated, generate None job)
        | Some st -> (
            match Store.find st job.j_key with
            | Store.Hit e -> (Hit, e.Codec.e_cell)
            | Store.Miss -> (Generated, generate store job)
            | Store.Corrupt err -> (Regenerated err, generate store job))
      in
      (outcome, cell, (Flatten.stats cell).Flatten.n_boxes)
    with
    | outcome, cell, boxes -> (outcome, Some cell, boxes)
    | exception exn -> (Failed (Printexc.to_string exn), None, 0)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  Obs.count
    (match outcome with
    | Hit -> "batch.hit"
    | Generated -> "batch.miss"
    | Regenerated _ -> "batch.corrupt"
    | Failed _ -> "batch.failed");
  {
    r_job = job;
    r_outcome = outcome;
    r_seconds = seconds;
    r_cell = cell;
    r_boxes = boxes;
  }

let run ?domains ?store jobs =
  Array.to_list
    (Par.chunked_map ?domains ~chunk:1 (run_one store) (Array.of_list jobs))

let outcome_name = function
  | Hit -> "hit"
  | Generated -> "generated"
  | Regenerated _ -> "regenerated"
  | Failed _ -> "failed"

let to_json results =
  let module Json = Rsg_obs.Json in
  let count p = Json.Int (List.length (List.filter p results)) in
  let job r =
    Json.Obj
      [ ("name", Json.String r.r_job.j_name);
        ("kind", Json.String r.r_job.j_kind);
        ("outcome", Json.String (outcome_name r.r_outcome));
        ("boxes", Json.Int r.r_boxes);
        ("key", Json.String (Store.key_hex r.r_job.j_key)) ]
  in
  Json.Obj
    [ ("jobs", Json.List (List.map job results));
      ("total", Json.Int (List.length results));
      ("hits", count (fun r -> r.r_outcome = Hit));
      ( "failed",
        count (fun r -> match r.r_outcome with Failed _ -> true | _ -> false) )
    ]
