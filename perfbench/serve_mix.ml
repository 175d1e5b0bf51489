(* serve-mix: Serve.run in-process with 2 workers, a fresh store and
   default settings otherwise, driven by the benchmark's own client in a
   closed loop over 2 connections (each caller waits for its reply).
   The replayed mix, per cycle of ten requests in seeded order: three
   [generate] of a spec not seen before, three [generate] repeating an
   earlier spec, and four [drc] / [erc] / [extract] on builtins; every
   [generate] asks for [drc:true]. *)

open Rsg_layout
open Common
module Json = Rsg_serve.Json
module Client = Rsg_serve.Client
module Serve = Rsg_serve.Serve

type request =
  | Generate of string  (** job spec *)
  | Target of string * string  (** op, builtin *)

let builtins = [| "pla"; "ram"; "multiplier"; "decoder" |]

let pla_sizes = [| (4, 3, 6); (6, 4, 10); (8, 5, 14); (10, 6, 18) |]

(* The request script: request [i] is the [i]th request.  Generated on
   demand, a cycle of ten at a time, but a pure function of the seed and
   [i]; the two client threads share it, hence the lock. *)
let script seed =
  let st = rng seed 4 in
  let fresh = ref 0 in
  let specs = ref [||] in
  let new_spec () =
    let inputs, outputs, terms = pla_sizes.(!fresh mod Array.length pla_sizes) in
    incr fresh;
    let tt = truth_table st ~inputs ~outputs ~terms ~density:0.6 in
    let spec = Printf.sprintf "g%d pla rows=%s" !fresh (table_rows tt) in
    specs := Array.append !specs [| spec |];
    Generate spec
  in
  let cycle =
    [| `New; `New; `New; `Repeat; `Repeat; `Repeat; `Target; `Target; `Target; `Target |]
  in
  let ops = [| "drc"; "erc"; "extract" |] in
  let requests = ref [||] and c = ref 0 in
  let grow () =
    (* the four target requests of a cycle hit every builtin once and
       every op at least once *)
    let targets =
      Array.map2
        (fun op b -> Target (op, b))
        (shuffle st [| "drc"; "erc"; "extract"; ops.(!c mod 3) |])
        (shuffle st builtins)
    in
    incr c;
    let t = ref 0 in
    let next =
      Array.map
        (function
          | `New -> new_spec ()
          | `Repeat ->
            if !specs = [||] then new_spec ()
            else Generate !specs.(Random.State.int st (Array.length !specs))
          | `Target ->
            incr t;
            targets.(!t - 1))
        (shuffle st cycle)
    in
    requests := Array.append !requests next
  in
  let mu = Mutex.create () in
  fun i ->
    Mutex.protect mu (fun () ->
        while i >= Array.length !requests do
          grow ()
        done;
        !requests.(i))

let control id op = Json.Obj [ ("id", Json.Int id); ("op", Json.String op) ]

let json_of id = function
  | Generate spec ->
    Json.Obj
      [ ("id", Json.Int id); ("op", Json.String "generate"); ("spec", Json.String spec);
        ("drc", Json.Bool true) ]
  | Target (op, b) ->
    Json.Obj [ ("id", Json.Int id); ("op", Json.String op); ("spec", Json.String b) ]

(* the fields of a reply the oracle compares *)
let summary = function
  | Generate _, r ->
    let drc = Json.member "drc" r in
    ( [ Json.mem_string "cif_sha" r |> Option.value ~default:"?" ],
      [ Json.mem_int "boxes" r;
        Option.bind drc (Json.mem_int "violations") ] )
  | Target ("drc", _), r -> ([], [ Json.mem_int "violations" r; Json.mem_int "boxes" r ])
  | Target (_, _), r -> ([], [ Json.mem_int "nets" r; Json.mem_int "devices" r ])

(* the same answers from direct in-process calls at one domain *)
let direct = function
  | Generate spec -> (
    match Rsg_serve.Jobspec.parse_line 1 spec with
    | Ok (Some job) ->
      let cell = job.Rsg_store.Batch.j_gen () in
      let flat = Flatten.protos_flat (Flatten.prototypes cell) in
      let drc = Rsg_drc.Drc.check_flat ~domains:1 flat in
      ( [ Digest.to_hex (Digest.string (Cif.to_string cell)) ],
        [ Some (Array.length flat.Flatten.flat_boxes);
          Some (List.length drc.Rsg_drc.Drc.r_violations) ] )
    | _ -> failwith ("unparseable spec " ^ spec))
  | Target (op, b) -> (
    let cell =
      match Rsg_serve.Jobspec.target_cell b with Ok c -> c | Error m -> failwith m
    in
    let flat = Flatten.protos_flat (Flatten.prototypes cell) in
    match op with
    | "drc" ->
      let r = Rsg_drc.Drc.check_flat ~domains:1 flat in
      ([], [ Some (List.length r.Rsg_drc.Drc.r_violations); Some r.Rsg_drc.Drc.r_boxes ])
    | "erc" ->
      let r = Rsg_erc.Erc.check_cell ~domains:1 cell in
      ([], [ Some r.Rsg_erc.Erc.r_nets; Some r.Rsg_erc.Erc.r_devices ])
    | _ ->
      let n =
        Rsg_extract.Extract.of_items ~domains:1
          (Rsg_compact.Scanline.items_of_flat flat)
          (Array.to_list flat.Flatten.flat_labels)
      in
      ( [],
        [ Some n.Rsg_extract.Extract.n_nets; Some (Rsg_extract.Extract.n_devices n) ] ))

let start cfg =
  let ready = Atomic.make false in
  let th =
    Thread.create (fun () -> Serve.run ~on_ready:(fun () -> Atomic.set ready true) cfg) ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.001
  done;
  th

let connect sock =
  match Client.connect ~attempts:20 sock with Ok c -> c | Error m -> failwith m

let setup env ~rep =
  let request = script env.seed in
  (* the first requests are made here: input generation is set-up work *)
  ignore (request 99);
  let store_dir = Filename.concat env.dir (Printf.sprintf "serve-store-%d" rep) in
  let sock = Filename.concat env.dir (Printf.sprintf "s%d.sock" rep) in
  rm_rf store_dir;
  let cfg =
    { (Serve.default_config ~socket_path:sock) with
      Serve.workers = 2;
      store_dir = Some store_dir }
  in
  let server = start cfg in
  let clients = Array.init 2 (fun _ -> connect sock) in
  let replies = Mutex.create () in
  let answers : (int, string list * int option list) Hashtbl.t = Hashtbl.create 1024 in
  let op ~slot ctx i =
    let req = request i in
    let name = match req with Generate _ -> "generate" | Target (op, _) -> op in
    let reply =
      Trace.span ~local:false ctx ("serve." ^ name) @@ fun _ ->
      Client.request clients.(slot) (json_of i req)
    in
    let result =
      match reply with
      | Ok r when Client.response_ok r ->
        Option.value ~default:Json.Null (Json.member "result" r)
      | Ok r ->
        failwith
          (Printf.sprintf "%s: %s" name
             (Option.value ~default:"error reply" (Json.mem_string "error" r)))
      | Error m -> failwith m
    in
    let outcome =
      match (req, Json.mem_string "source" result) with
      | Generate _, Some ("memory" | "store") -> Hit
      | Generate _, _ -> Miss
      | Target _, _ -> Plain
    in
    ( outcome,
      fun () ->
        let s = summary (req, result) in
        Mutex.protect replies (fun () -> Hashtbl.replace answers i s) )
  in
  let after_window () =
    match Client.request clients.(0) (control (-1) "stats") with
    | Ok r ->
      let counters =
        Option.bind (Json.member "result" r) (Json.member "counters")
      in
      List.iter
        (fun k ->
          let v = Option.bind counters (Json.mem_int ("serve." ^ k)) in
          tally ("serve." ^ k) ~n:(float_of_int (Option.value ~default:0 v)))
        [ "mem_hit"; "mem_miss"; "coalesced" ]
    | Error m -> failwith ("stats: " ^ m)
  in
  let check ~corrupt =
    let expected = Hashtbl.create 256 in
    Hashtbl.fold (fun i _ acc -> request i :: acc) answers []
    |> List.sort_uniq compare
    |> par_concat_map (fun req -> [ (req, direct req) ])
    |> List.iter (fun (req, w) -> Hashtbl.replace expected req w);
    Hashtbl.fold (fun i a acc -> (i, a) :: acc) answers []
    |> List.sort compare
    |> List.filter_map (fun (i, got) ->
           let want = Hashtbl.find expected (request i) in
           let want =
             if corrupt && i = 0 then
               (List.map flip (fst want), List.map (Option.map succ) (snd want))
             else want
           in
           if got = want then None else Some (i, "reply differs from the direct call"))
  in
  let teardown () =
    ignore
      (Client.request clients.(0) (control (-2) "shutdown"));
    Array.iter Client.close clients;
    Thread.join server;
    rm_rf store_dir
  in
  { concurrency = 2; op; after_window; check; best_area = (fun () -> None); teardown }

let workload = { name = "serve-mix"; setup }
