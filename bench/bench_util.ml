(* Shared helpers for the experiment harness. *)

open Bechamel

(* Estimated nanoseconds per run for every element of a Bechamel test,
   via OLS over monotonic-clock samples. *)
let ns_per_run ?(quota = 0.25) (test : Test.t) : (string * float) list =
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    Hashtbl.fold
      (fun name b acc ->
        let est =
          match Analyze.OLS.estimates (Analyze.one ols instance b) with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, est) :: acc)
      raw []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) results

let time_once f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* Median-of-3 wall-clock seconds, for operations too slow for
   Bechamel's sampling. *)
let seconds f =
  let run () = fst (time_once f) in
  let samples = List.sort compare [ run (); run (); run () ] in
  List.nth samples 1

let section id title =
  Format.printf "@.==== %s — %s ====@." id title

let note fmt = Format.printf "  paper: " ; Format.printf (fmt ^^ "@.")

let row fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* ---- machine-readable results (--json) ---------------------------- *)

(* When the harness runs with [--json], sections record named values
   with [json_num]/[json_int]/[json_bool]/[json_str] and the driver
   writes [BENCH_E<id>.json] after each section — a flat object whose
   keys the CI trend job greps.  Disabled (the default), every
   recorder is a no-op, so instrumentation costs the human-readable
   run nothing. *)

let json_enabled = ref false

let json_fields : (string * Rsg_obs.Json.t) list ref = ref []

let json_put key v =
  if !json_enabled then json_fields := (key, v) :: !json_fields

let json_num key v =
  json_put key (Rsg_obs.Json.Float (float_of_string (Printf.sprintf "%.6g" v)))

let json_int key v = json_put key (Rsg_obs.Json.Int v)

let json_bool key v = json_put key (Rsg_obs.Json.Bool v)

let json_str key v = json_put key (Rsg_obs.Json.String v)

(* Write BENCH_<id>.json into the current directory if the finished
   section recorded anything; always reset the collector so one
   section's fields never bleed into the next. *)
let flush_json id =
  let fields = List.rev !json_fields in
  json_fields := [];
  if !json_enabled && fields <> [] then begin
    let file = Printf.sprintf "BENCH_%s.json" id in
    Out_channel.with_open_bin file (fun oc ->
        output_string oc (Rsg_obs.Json.to_string (Rsg_obs.Json.Obj fields));
        output_char oc '\n');
    Format.printf "  [json: %s]@." file
  end
