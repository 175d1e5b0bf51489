(* cold-verify: a stream of structures from the paper's four families,
   each through the uncached --lint --drc --erc flow of the CLI:
   Design_lint.check_string (design-file jobs) -> generate ->
   Flatten.prototypes -> Drc.check_protos -> Erc.check_protos ->
   Flatten.protos_flat -> Cif.to_string.  No store, search or serve
   code runs. *)

open Rsg_layout
open Common
module Drc = Rsg_drc.Drc
module Erc = Rsg_erc.Erc
module Tt = Rsg_pla.Truth_table

type job =
  | Mult of { x : int; y : int; design_file : bool }
  | Pla of { tt : Tt.t; design_file : bool }
  | Decoder of int
  | Ram of { words : int; bits : int }

(* One cycle of the stream holds every slot once, in seeded order.  A
   slot walks its size list from a seeded offset, one step per cycle.
   Every list is five long, so each five cycles visit every size once
   and a run of any length does nearly the same work at every seed:
   runs differ in order and in PLA personalities. *)
type slot =
  | S_mult of bool * (int * int) array
  | S_pla of bool * (int * int * int) array
  | S_decoder of int array
  | S_ram of (int * int) array

let period = 5

let slots =
  [|
    S_mult (false, [| (4, 6); (5, 7); (6, 8); (7, 5); (8, 6) |]);
    S_mult (false, [| (5, 5); (7, 7); (4, 8); (8, 4); (6, 6) |]);
    S_mult (true, [| (5, 5); (6, 7); (7, 6); (4, 7); (8, 5) |]);
    S_pla (false, [| (6, 4, 10); (8, 5, 14); (10, 6, 18); (7, 3, 12); (9, 4, 16) |]);
    S_pla (false, [| (5, 3, 8); (9, 4, 16); (11, 5, 20); (7, 4, 12); (8, 3, 14) |]);
    S_pla (true, [| (5, 3, 8); (7, 4, 12); (9, 5, 16); (6, 3, 10); (8, 4, 14) |]);
    S_pla (true, [| (6, 2, 10); (8, 6, 14); (10, 3, 18); (7, 5, 12); (9, 2, 16) |]);
    S_decoder [| 3; 4; 5; 6; 4 |];
    S_ram [| (8, 4); (16, 4); (8, 8); (32, 4); (16, 8) |];
    S_ram [| (4, 4); (16, 2); (32, 2); (8, 6); (4, 8) |];
  |]

let job_of st cycle offsets k =
  let pick a = a.((cycle + offsets.(k)) mod Array.length a) in
  match slots.(k) with
  | S_mult (design_file, sizes) ->
    let x, y = pick sizes in
    Mult { x; y; design_file }
  | S_pla (design_file, sizes) ->
    let inputs, outputs, terms = pick sizes in
    Pla { tt = truth_table st ~inputs ~outputs ~terms ~density:0.6; design_file }
  | S_decoder sizes -> Decoder (pick sizes)
  | S_ram sizes ->
    let words, bits = pick sizes in
    Ram { words; bits }

(* The job stream: op [i] is the [i]th job.  Generated on demand but a
   pure function of the seed and [i]. *)
let stream seed =
  let st = rng seed 1 in
  let offsets = Array.init (Array.length slots) (fun _ -> Random.State.int st period) in
  let jobs = ref [||] in
  let cycle = ref 0 in
  let grow () =
    let order = shuffle st (Array.init (Array.length slots) Fun.id) in
    let next = Array.map (fun k -> job_of st !cycle offsets k) order in
    incr cycle;
    jobs := Array.append !jobs next
  in
  fun i ->
    while i >= Array.length !jobs do
      grow ()
    done;
    !jobs.(i)

(* ---- lint configurations, as the CLI builds them -------------------- *)

let mult_lint_config ~x ~y =
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let params = Rsg_lang.Param.parse (Rsg_mult.Sample_lib.param_file ~xsize:x ~ysize:y) in
  Rsg_lint.Design_lint.config_of_params
    ~cells:(Db.names sample.Rsg_core.Sample.db) params

let pla_lint_config (tt : Tt.t) =
  let sample, _ = Rsg_pla.Pla_cells.build () in
  let params =
    Rsg_lang.Param.parse
      (Rsg_pla.Pla_design_file.param_file ~ninputs:tt.Tt.n_inputs
         ~noutputs:tt.Tt.n_outputs
         ~nterms:(List.length tt.Tt.terms) ~name:"pla")
  in
  let cfg =
    Rsg_lint.Design_lint.config_of_params
      ~cells:(Db.names sample.Rsg_core.Sample.db) params
  in
  (* the encoding tables are host-installed globals (delayed binding) *)
  { cfg with
    Rsg_lint.Design_lint.globals = "lits" :: "outs" :: cfg.Rsg_lint.Design_lint.globals
  }

let lint ctx source cfg text =
  Trace.span ctx "lint" @@ fun _ ->
  let r = Rsg_lint.Design_lint.check_string ~file:source (cfg ()) text in
  if not (Rsg_lint.Diag.clean r) then failwith ("lint errors in " ^ source)

(* the generator the op times; design-file jobs are linted first *)
let generate ctx = function
  | Mult { x; y; design_file = false } ->
    Trace.span ctx "gen" @@ fun _ ->
    (Rsg_mult.Layout_gen.generate ~xsize:x ~ysize:y ()).Rsg_mult.Layout_gen.whole
  | Mult { x; y; design_file = true } ->
    lint ctx "mult.def" (fun () -> mult_lint_config ~x ~y) Rsg_mult.Design_file.text;
    Trace.span ctx "lang" @@ fun _ ->
    snd (Rsg_mult.Design_file.generate ~xsize:x ~ysize:y ())
  | Pla { tt; design_file = false } ->
    Trace.span ctx "gen" @@ fun _ -> (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell
  | Pla { tt; design_file = true } ->
    lint ctx "pla.def" (fun () -> pla_lint_config tt) Rsg_pla.Pla_design_file.text;
    Trace.span ctx "lang" @@ fun _ -> snd (Rsg_pla.Pla_design_file.generate tt)
  | Decoder n ->
    Trace.span ctx "gen" @@ fun _ -> (Rsg_pla.Gen.generate_decoder n).Rsg_pla.Gen.cell
  | Ram { words; bits } ->
    Trace.span ctx "gen" @@ fun _ ->
    (Rsg_ram.Ram_gen.generate ~words ~bits ()).Rsg_ram.Ram_gen.cell

(* for a design-file job, the same structure from the native
   generator: the oracle's reference *)
let native = function
  | Mult { x; y; design_file = true } ->
    Some (Rsg_mult.Layout_gen.generate ~xsize:x ~ysize:y ()).Rsg_mult.Layout_gen.whole
  | Pla { tt; design_file = true } -> Some (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell
  | _ -> None

(* what an op leaves for the oracle *)
type record = {
  r_flat : string;
  r_drc : string;
  r_erc : string;
  r_cif : string;
}

let drc_fingerprint (r : Drc.hier_report) = digest_value r

let erc_fingerprint (r : Erc.report) = digest_value r

let setup env ~rep:_ =
  let job = stream env.seed in
  (* materialise the first cycles: input generation is set-up work *)
  ignore (job (50 * Array.length slots));
  let records : (int, record) Hashtbl.t = Hashtbl.create 512 in
  let op ~slot:_ ctx i =
    let cell = generate ctx (job i) in
    let protos = Trace.span ctx "layout.flatten" @@ fun _ -> Flatten.prototypes cell in
    let drc =
      Trace.span ctx "drc" @@ fun _ ->
      Drc.check_protos ~domains ~cached:(fun _ -> None) protos
    in
    if not (Drc.hier_clean drc) then failwith "drc violations";
    let erc =
      Trace.span ctx "erc" @@ fun _ ->
      Erc.check_protos ~domains ~cached:(fun _ -> None) protos
    in
    if not (Erc.clean erc) then failwith "erc errors";
    let flat = Trace.span ctx "layout.flat" @@ fun _ -> Flatten.protos_flat protos in
    let cif = Trace.span ctx "layout.cif" @@ fun _ -> Cif.to_string cell in
    ( Miss,
      fun () ->
        Hashtbl.replace records i
          {
            r_flat = digest_flat flat;
            r_drc = drc_fingerprint drc;
            r_erc = erc_fingerprint erc;
            r_cif = Digest.to_hex (Digest.string cif);
          } )
  in
  (* every op output against a path other than the one timed: the naive
     flatten walk, the checkers at one domain, the native generator *)
  let check ~corrupt =
    Hashtbl.fold (fun i r acc -> (i, job i, r) :: acc) records []
    |> List.sort compare
    |> par_concat_map (fun (i, j, r) ->
           let r = if corrupt && i = 0 then { r with r_flat = flip r.r_flat } else r in
           let cell = generate (Trace.root ~on:false i) j in
           let protos = Flatten.prototypes cell in
           let fails = ref [] in
           let expect what ok = if not ok then fails := (i, what) :: !fails in
           expect "prototype flat differs from the naive walk"
             (digest_flat (Flatten.flatten cell) = r.r_flat);
           expect "drc report differs at one domain"
             (drc_fingerprint
                (Drc.check_protos ~domains:1 ~cached:(fun _ -> None) protos)
             = r.r_drc);
           expect "erc report differs at one domain"
             (erc_fingerprint
                (Erc.check_protos ~domains:1 ~cached:(fun _ -> None) protos)
             = r.r_erc);
           expect "cif differs on regeneration"
             (Digest.to_hex (Digest.string (Cif.to_string cell)) = r.r_cif);
           (match native j with
           | Some n ->
             expect "design file differs from the native generator"
               (Cif.roundtrip_equal n cell)
           | None -> ());
           !fails)
  in
  {
    concurrency = 1;
    op;
    after_window = ignore;
    check;
    best_area = (fun () -> None);
    teardown = ignore;
  }

let workload = { name = "cold-verify"; setup }
