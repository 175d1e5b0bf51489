(* The rsg command line: layout generation from design + parameter +
   sample files (the Figure 1.1 flow), plus built-in generators and
   layout utilities.

     rsg generate -d mult.def -p mult.par -s sample.cif -o out.cif
     rsg multiplier --size 8 -o mult.cif
     rsg pla -t table.txt -o pla.cif
     rsg decoder -n 4 -o dec.cif
     rsg stats layout.cif
     rsg compact layout.cif -o smaller.cif --slack
     rsg drc layout.cif               # design-rule check (or: pla|ram|...)
     rsg erc layout.cif               # electrical rule check (same targets)
     rsg lint design.def -p file.par  # static analysis (or: mult|pla)
     rsg doctor                       # expansion diagnostics demo

   Generator commands accept --obs / --obs-json to record per-phase
   timers and counters (lib/obs) and dump them to stderr on exit,
   --drc to gate the run on a clean design-rule check of the result,
   --erc to gate on a clean electrical check of its extracted netlist,
   and (design-file-driven generators) --lint to gate on a clean
   static analysis of the design file before anything runs.
*)

open Cmdliner
open Rsg_geom
open Rsg_layout
open Rsg_core
module Obs = Rsg_obs.Obs
module Json = Rsg_obs.Json
module Jobspec = Rsg_serve.Jobspec

(* ---- observability flags ------------------------------------------- *)

let obs_term =
  let obs =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Record per-phase wall-clock timers and counters (graph \
             expansion, constraint generation, Bellman-Ford, ...) and dump \
             a human-readable report to stderr on exit.")
  in
  let obs_json =
    Arg.(
      value & flag
      & info [ "obs-json" ] ~doc:"Like $(b,--obs) but dump JSON to stderr.")
  in
  Term.(const (fun a b -> (a, b)) $ obs $ obs_json)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON on stdout.")

let with_obs (text, json) f =
  if text || json then Obs.enable ();
  Fun.protect f ~finally:(fun () ->
      if json then prerr_endline (Json.to_string (Obs.to_json ()))
      else if text then Obs.dump ())

(* reads to end of input, so pipes work as well as files *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* an input that cannot be read or parsed prints its message and exits
   1, never an uncaught exception *)
let or_exit f =
  try f ()
  with Failure msg | Sys_error msg ->
    Format.eprintf "%s@." msg;
    exit 1

(* A sample CIF holds leaf cells plus labelled assembly cells; every
   symbol that contains both instances and labels is extracted. *)
let sample_of_cif text =
  or_exit (fun () -> fst (Sample.of_db (Cif.of_string text).Cif.db))

let write_layout out cell =
  (* format by extension: .def gets the native text format, anything
     else CIF *)
  if Filename.check_suffix out ".def" then Def.write_file out cell
  else Cif.write_file out cell;
  Format.printf "wrote %s@." out

let print_stats cell =
  Format.printf "%a" Report.pp (Report.of_cell cell);
  let s = Flatten.stats cell in
  Format.printf "  flattened census:@.";
  List.iter (fun (n, k) -> Format.printf "    %-14s %6d@." n k) s.Flatten.by_cell

(* ---- design-rule gating -------------------------------------------- *)

let drc_flag =
  Arg.(
    value & flag
    & info [ "drc" ]
        ~doc:
          "Design-rule check the generated layout against the default lambda \
           deck; fail (exit 1) on violations.")

let domains_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains for the parallel phases (DRC region merging and rule \
           checks, extraction scans).  Defaults to the RSG_DOMAINS \
           environment variable, else the machine's recommended domain \
           count.  Results are identical for every value; 1 runs fully \
           sequentially.")

(* gate a layout: clean passes silently with a one-line note,
   violations dump the report and abort before anything is written.
   Flattens through the prototype cache: once per distinct celltype
   rather than once per instance *)
let drc_gate ?domains enabled cell =
  if enabled then begin
    let r =
      Rsg_drc.Drc.check_flat ?domains
        (Flatten.protos_flat (Flatten.prototypes cell))
    in
    if Rsg_drc.Drc.clean r then
      Format.printf "drc: clean (%d boxes, %d regions, deck %s)@."
        r.Rsg_drc.Drc.r_boxes r.Rsg_drc.Drc.r_regions r.Rsg_drc.Drc.r_deck
    else begin
      Format.eprintf "%a" Rsg_drc.Drc.pp_report r;
      exit 1
    end
  end

(* ---- electrical rule gating ---------------------------------------- *)

module Erc = Rsg_erc.Erc

let erc_flag =
  Arg.(
    value & flag
    & info [ "erc" ]
        ~doc:
          "Electrically check the generated layout (supply shorts, floating \
           gates, undriven nets, dangling devices, fanout, rail \
           reachability) with the default configuration; fail (exit 1) on \
           ERC errors.  With --cache, per-prototype verdicts are stored and \
           replayed like DRC levels.")

(* ERC twin of [drc_gate_protos]: one verdict per distinct prototype,
   [cached] replaying verdicts stored by an earlier run.  Clean (no
   error-severity findings) passes with a one-line note; errors dump
   the report and abort. *)
let erc_gate_protos ?domains ~cached protos =
  let r = Erc.check_protos ?domains ~cached protos in
  if Erc.clean r then begin
    Format.printf
      "erc: clean (%d prototypes, %d replayed, %d nets, %d devices, %d \
       warnings)@."
      (List.length r.Erc.r_levels)
      r.Erc.r_cached r.Erc.r_nets r.Erc.r_devices
      (List.length (Rsg_lint.Diag.warnings (Erc.to_diags r)));
    r
  end
  else begin
    Format.eprintf "%a" Erc.pp_report r;
    exit 1
  end

let erc_config_digest =
  lazy (Erc.config_digest Erc.default_config Rsg_compact.Rules.default)

(* ---- static lint gating -------------------------------------------- *)

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Statically analyze the design file (scoping, arity, array shape) \
           before generating; fail (exit 1) on lint errors.")

(* gate a design-file run on a clean static analysis, mirroring
   drc_gate: clean passes with a one-line note, errors dump the
   report and abort before anything is generated *)
let lint_gate enabled ~source cfg text =
  if enabled then begin
    let r = Rsg_lint.Design_lint.check_string ~file:source cfg text in
    if Rsg_lint.Diag.clean r then
      Format.printf "lint: clean (%d forms, %d warnings)@."
        r.Rsg_lint.Diag.r_checked
        (List.length (Rsg_lint.Diag.warnings r))
    else begin
      Format.eprintf "%a" Rsg_lint.Diag.pp_report r;
      exit 1
    end
  end

(* ---- layout store wiring ------------------------------------------- *)

module Store = Rsg_store.Store
module Codec = Rsg_store.Codec
module Batch = Rsg_store.Batch

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed layout cache.  The result is keyed by design \
           text + parameters + rule deck + scale + codec version; a verified \
           hit loads the stored hierarchy and skips parse/expand entirely, \
           replaying stored check results; a corrupt entry is reported and \
           regenerated.  Manage with $(b,rsg cache).")

let save_db_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-db" ] ~docv:"FILE"
        ~doc:
          "Also write the result as a binary layout database (the \
           hierarchy, checksummed); $(b,rsg drc/stats/masks --from-db) \
           reread it without regenerating.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"N"
        ~doc:"Multiply every output coordinate by $(docv) (a positive int).")

let store_term =
  Term.(
    const (fun cache save_db scale -> (cache, save_db, scale))
    $ cache_arg $ save_db_arg $ scale_arg)

let from_db_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "from-db" ] ~docv:"FILE"
        ~doc:
          "Read the layout hierarchy from a binary database written by \
           $(b,--save-db) instead of a CIF file; checks that need flat \
           geometry compose it from that hierarchy.")

let load_db path =
  match Codec.read_file path with
  | e -> e
  | exception Codec.Error err ->
    Format.eprintf "%s: %a@." path Codec.pp_error err;
    exit 1
  | exception Sys_error msg ->
    Format.eprintf "%s@." msg;
    exit 1

(* Hierarchical design-rule gate of the generator flow: each distinct
   prototype is checked once ({!Rsg_drc.Drc.check_protos}); [cached]
   replays levels computed by an earlier run when the subtree digest
   and deck digest both match.  Same pass/fail behaviour as
   [drc_gate] — the hier-vs-flat agreement tests pin that — but
   incremental runs skip every clean prototype. *)
let drc_gate_protos ?domains ~cached protos =
  let r = Rsg_drc.Drc.check_protos ?domains ~cached protos in
  if Rsg_drc.Drc.hier_clean r then begin
    Format.printf
      "drc: clean (%d prototypes, %d replayed, %d boxes checked, deck %s)@."
      (List.length r.Rsg_drc.Drc.h_levels)
      r.Rsg_drc.Drc.h_cached r.Rsg_drc.Drc.h_boxes r.Rsg_drc.Drc.h_deck;
    r
  end
  else begin
    Format.eprintf "%a" Rsg_drc.Drc.pp_hier_report r;
    exit 1
  end

(* Run one generator through the store (Store.Cached.run).  A hit
   loads the stored hierarchy; --drc/--erc replay the entry's own
   per-prototype results.  A miss generates, after harvesting the
   previous entry for this design ([stem] names the design
   independently of its content, so an edit still finds it): only the
   dirty prototypes — the edited celltypes and their ancestors — are
   checked, and the new entry marks the rest reused so the next edit
   harvests it in turn. *)
let run_cached ?domains ?(post = fun (c : Cell.t) -> c)
    ~store:(cache, save_db, scale) ~stem ~design ~params ~label
    ~stats:want_stats ~drc ~erc ~out gen =
  if scale < 1 then begin
    Format.eprintf "--scale must be >= 1@.";
    exit 1
  end;
  let erc_digest = Lazy.force erc_config_digest in
  let deck =
    (if drc then Rsg_drc.Deck.to_string Rsg_drc.Deck.default else "")
    (* --erc changes what the entry must carry (verdicts) and what a
       hit must replay, so it keys separately, like the DRC deck *)
    ^ (if erc then "\x00erc:" ^ Digest.to_hex erc_digest else "")
  in
  let deck_digest = Rsg_drc.Deck.digest Rsg_drc.Deck.default in
  let key =
    Store.key ~deck ~scale:(string_of_int scale) ~design ~params ()
  in
  let run =
    Store.Cached.start ~log:Format.std_formatter ~stem
      (Option.map Store.open_ cache)
  in
  (* the gates' per-prototype results, by subtree hex *)
  let gates protos =
    let reports =
      if drc then
        List.map
          (fun (l : Rsg_drc.Drc.level) ->
            (l.Rsg_drc.Drc.l_hash, Rsg_drc.Drc.cached_of_level l))
          (drc_gate_protos ?domains
             ~cached:
               (Store.Cached.replay run (fun p -> p.Codec.p_reports) deck_digest)
             (Lazy.force protos))
            .Rsg_drc.Drc.h_levels
      else []
    in
    let ercs =
      if erc then
        List.map
          (fun (l : Erc.level) -> (l.Erc.l_hash, l.Erc.l_verdict))
          (erc_gate_protos ?domains
             ~cached:(Store.Cached.replay run (fun p -> p.Codec.p_ercs) erc_digest)
             (Lazy.force protos))
            .Erc.r_levels
      else []
    in
    (reports, ercs)
  in
  let cell, _, _ =
    Store.Cached.run run key ~redo:"regenerating"
      ~compute:(function
        | Some e ->
          let protos = lazy (Flatten.prototypes e.Codec.e_cell) in
          (e.Codec.e_cell, protos, gates protos)
        | None ->
          let cell = gen () in
          let protos = Flatten.prototypes cell in
          let checked = gates (lazy protos) in
          (* scaling changes every digest, so check results (computed
             pre-scale) only annotate scale-1 entries — the table itself
             always describes the stored geometry *)
          let cell, protos, checked =
            if scale = 1 then (cell, protos, checked)
            else
              let c = Scale.cell ~num:scale cell in
              (c, Flatten.prototypes c, ([], []))
          in
          (cell, lazy protos, checked))
      ~save:(fun (cell, protos, (reports, ercs)) ->
        let table =
          Store.Cached.save run (lazy key) ~label
            ~reused:(fun hex -> scale = 1 && Store.Cached.adopted run hex)
            ~reports:(Store.Cached.by_hex deck_digest reports)
            ~ercs:(Store.Cached.by_hex erc_digest ercs)
            ~note:(fun table ->
              Printf.sprintf "%d prototypes, %d reused" (Array.length table)
                (Array.fold_left
                   (fun a (p : Codec.proto) ->
                     if p.Codec.p_reused then a + 1 else a)
                   0 table))
            protos cell
        in
        Array.iter
          (fun (p : Codec.proto) ->
            Obs.count
              (if p.Codec.p_reused then "cache.proto.reused"
               else "cache.proto.fresh"))
          table)
  in
  if want_stats then print_stats cell;
  (match save_db with
  | Some path ->
    Codec.write_file path (Codec.encode ~label cell);
    Format.printf "wrote %s@." path
  | None -> ());
  (* [post] transforms only the written layout (e.g. generate
     --compact); the cache and --save-db keep the generator's
     output so harvesting stays keyed on generated geometry *)
  write_layout out (post cell)

(* ---- generate ------------------------------------------------------ *)

let generate design params sample_path out stats lint drc erc domains store
    compact obs =
  with_obs obs @@ fun () ->
  let design_text = read_file design in
  let params_text = read_file params in
  let sample_text = read_file sample_path in
  let gen () =
    let sample = sample_of_cif sample_text in
    let param_tbl = Rsg_lang.Param.parse params_text in
    lint_gate lint ~source:design
      (Rsg_lint.Design_lint.config_of_params
         ~cells:(Db.names sample.Sample.db) param_tbl)
      design_text;
    let st = Rsg_lang.Interp.of_sample ~file:design sample in
    Rsg_lang.Interp.load_params st param_tbl;
    (try ignore (Rsg_lang.Interp.run_string st design_text) with
    | Rsg_lang.Interp.Runtime_error msg ->
      Format.eprintf "runtime error: %s@." msg;
      exit 1
    | Rsg_lang.Parser.Syntax_error msg ->
      Format.eprintf "syntax error: %s@." msg;
      exit 1);
    match Rsg_lang.Interp.last_created st with
    | None ->
      Format.eprintf "design file created no cell@.";
      exit 1
    | Some cell -> cell
  in
  let post c =
    if not compact then c
    else
      match Rsg_compact.Hcompact.hier Rsg_compact.Rules.default c with
      | r ->
        Format.printf "hier: area %d -> %d (%d prototypes)@."
          r.Rsg_compact.Hcompact.hr_stats.Rsg_compact.Hcompact.hs_area_before
          r.Rsg_compact.Hcompact.hr_stats.Rsg_compact.Hcompact.hs_area_after
          r.Rsg_compact.Hcompact.hr_stats.Rsg_compact.Hcompact.hs_protos;
        r.Rsg_compact.Hcompact.hr_cell
      | exception Rsg_compact.Bellman.Infeasible cycle ->
        Format.eprintf "compaction infeasible: %a@."
          Rsg_compact.Bellman.pp_witness cycle;
        exit 1
  in
  run_cached ?domains ~post ~store
    (* the stem is the design's identity (its path), not its content:
       an edited design misses the key but still harvests the previous
       entry through the stem's .latest pointer *)
    ~stem:("generate:" ^ design)
    (* the sample shapes the geometry just as much as the design file,
       so both belong in the content key *)
    ~design:(design_text ^ "\x00sample\x00" ^ sample_text)
    ~params:params_text
    ~label:("generate " ^ Filename.basename design)
    ~stats ~drc ~erc ~out gen

let design_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "design" ] ~docv:"FILE" ~doc:"Design file (procedural).")

let params_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "p"; "params" ] ~docv:"FILE" ~doc:"Parameter file.")

let sample_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "sample" ] ~docv:"FILE"
        ~doc:"Sample layout (CIF with labelled assemblies).")

let out_arg default =
  Arg.(value & opt string default & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CIF.")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print layout statistics.")

let generate_compact_flag =
  Arg.(
    value & flag
    & info [ "compact" ]
        ~doc:
          "Hierarchically compact the generated layout (see $(b,rsg compact \
           --hier)) before writing the output CIF.  The cache and --save-db \
           keep the uncompacted generator output.")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a layout from design/parameter/sample files")
    Term.(
      const generate $ design_arg $ params_arg $ sample_arg $ out_arg "out.cif"
      $ stats_flag $ lint_flag $ drc_flag $ erc_flag $ domains_term
      $ store_term $ generate_compact_flag $ obs_term)

(* ---- multiplier ---------------------------------------------------- *)

let multiplier size out stats lint drc erc domains store obs =
  with_obs obs @@ fun () ->
  let gen () =
    lint_gate lint ~source:"mult.def(builtin)" (Jobspec.mult_lint_config ~size)
      Rsg_mult.Design_file.text;
    (Rsg_mult.Layout_gen.generate ~xsize:size ~ysize:size ())
      .Rsg_mult.Layout_gen.whole
  in
  run_cached ?domains ~store ~stem:"multiplier"
    ~design:("builtin:multiplier\n" ^ Rsg_mult.Design_file.text)
    ~params:(Rsg_mult.Sample_lib.param_file ~xsize:size ~ysize:size)
    ~label:(Printf.sprintf "multiplier %dx%d" size size)
    ~stats ~drc ~erc ~out gen

let size_arg =
  Arg.(value & opt int 8 & info [ "size" ] ~docv:"N" ~doc:"Multiplier bits.")

let multiplier_cmd =
  Cmd.v
    (Cmd.info "multiplier" ~doc:"Generate a pipelined array multiplier")
    Term.(
      const multiplier $ size_arg $ out_arg "mult.cif" $ stats_flag $ lint_flag
      $ drc_flag $ erc_flag $ domains_term $ store_term $ obs_term)

(* ---- search (annealed placement / folding) ------------------------- *)

module Anneal = Rsg_search.Anneal

(* Candidate-evaluation store wiring shared by `rsg place` and
   `pla --fold-opt`: previously scored candidates are harvested from
   the entry's root prototype record (codec v5 [p_places], keyed
   candidate digest x rule-deck digest), fed to the annealer as its
   warm path, then merged with the run's fresh evaluations and
   re-saved.  The key deliberately excludes seed/iters/chains, so a
   re-run with a different budget still replays every revisited
   state.  Chatter goes to stderr to keep --json stdout pure. *)
let strategy_name = function `Greedy -> "greedy" | `Anneal -> "anneal"

let run_search ?domains ~cache ~stem ~label ~design ~rules ~seed ~iters
    ~chains ~strategy problem init base_cell =
  let rules_digest = Rsg_compact.Rules.digest rules in
  let iters, chains =
    match strategy with `Greedy -> (0, 1) | `Anneal -> (iters, chains)
  in
  let store = Option.map Store.open_ cache in
  let key =
    Store.key ~deck:(Digest.to_hex rules_digest) ~design ~params:"place-evals"
      ()
  in
  let prior = Hashtbl.create 256 in
  (match Option.map (fun s -> Store.find s key) store with
  | Some (Store.Hit e) ->
    Array.iter
      (fun (p : Codec.proto) ->
        List.iter (fun (k, a) -> Hashtbl.replace prior k a) p.Codec.p_places)
      e.Codec.e_protos;
    Format.eprintf "cache: %d candidate evaluations harvested@."
      (Hashtbl.length prior)
  | _ -> ());
  let cached d = Hashtbl.find_opt prior (Digest.string (d ^ rules_digest)) in
  let r = Anneal.run ?domains ~cached ~chains ~iters ~seed problem init in
  let s = r.Anneal.r_stats in
  Format.eprintf
    "search: %s seed=%d chains=%d iters=%d area %d -> %d (computed %d, \
     cached %d)@."
    (strategy_name strategy) seed s.Anneal.st_chains s.Anneal.st_iters
    r.Anneal.r_initial_cost r.Anneal.r_cost s.Anneal.st_computed
    s.Anneal.st_cached;
  (* the prior and this run's evaluations, all on the root record *)
  let evals =
    lazy
      (List.iter
         (fun (d, c) ->
           Hashtbl.replace prior (Digest.string (d ^ rules_digest)) c)
         r.Anneal.r_evals;
       List.sort compare (Hashtbl.fold (fun k a acc -> (k, a) :: acc) prior []))
  in
  let protos = lazy (Flatten.prototypes base_cell) in
  ignore
    (Store.Cached.save
       (Store.Cached.start ~log:Format.err_formatter ~stem store)
       (lazy key) ~label
       ~places:(fun hex ->
         let p = Lazy.force protos in
         if hex = Flatten.subtree_hex p (Flatten.protos_root p) then
           Lazy.force evals
         else [])
       ~note:(fun _ ->
         Printf.sprintf "%d candidate evaluations"
           (List.length (Lazy.force evals)))
       protos base_cell);
  r

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Annealing PRNG seed.  A fixed seed gives a bit-identical \
           result at any --domains value.")

let iters_arg =
  Arg.(
    value & opt int 200
    & info [ "iters" ] ~docv:"N" ~doc:"Annealing iterations per chain.")

let chains_arg =
  Arg.(
    value & opt int 4
    & info [ "chains" ] ~docv:"N"
        ~doc:
          "Independent annealing chains, fanned across the domain pool \
           and merged best-of-N in chain order.")

let strategy_arg =
  Arg.(
    value
    & opt (enum [ ("greedy", `Greedy); ("anneal", `Anneal) ]) `Anneal
    & info [ "strategy" ] ~docv:"greedy|anneal"
        ~doc:
          "greedy: the fixed heuristic baseline (zero search \
           iterations).  anneal: simulated annealing scored by \
           compacted area.")

let search_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Content-address candidate evaluations in the layout store \
           (codec v5 place evals, keyed candidate digest x rule deck): \
           revisited states and warm re-runs replay instead of \
           re-solving.")

(* ---- pla ----------------------------------------------------------- *)

let pla table out stats fold fold_opt seed iters chains strategy lint drc erc
    domains store obs =
  with_obs obs @@ fun () ->
  let table_text = read_file table in
  let rows =
    table_text |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ i; o ] when i <> "" -> Some (i, o)
           | _ -> None)
  in
  match Rsg_pla.Truth_table.of_strings rows with
  | exception Rsg_pla.Truth_table.Malformed msg ->
    Format.eprintf "bad truth table: %s@." msg;
    exit 1
  | tt ->
    let gen () =
      lint_gate lint ~source:"pla.def(builtin)"
        (Jobspec.pla_lint_config ~ninputs:tt.Rsg_pla.Truth_table.n_inputs
           ~noutputs:tt.Rsg_pla.Truth_table.n_outputs
           ~nterms:(List.length tt.Rsg_pla.Truth_table.terms))
        Rsg_pla.Pla_design_file.text;
      if fold_opt then begin
        let rules = Rsg_compact.Rules.default in
        let st0 = Rsg_search.Fold_opt.make ~rules tt in
        let base = Rsg_pla.Folding.generate tt in
        let r =
          run_search ?domains
            ~cache:(let c, _, _ = store in c)
            ~stem:("place-evals:pla:" ^ table)
            ~label:("fold-opt evals " ^ Filename.basename table)
            ~design:("fold-opt:" ^ Digest.to_hex (Digest.string table_text))
            ~rules ~seed ~iters ~chains ~strategy Rsg_search.Fold_opt.problem
            st0 base.Rsg_pla.Folding.cell
        in
        let g = Rsg_search.Fold_opt.generate r.Anneal.r_best in
        if not (Rsg_pla.Folding.verify g) then begin
          Format.eprintf "internal error: folded extraction mismatch@.";
          exit 1
        end;
        Format.printf "fold-opt: %d inputs into %d slots, area %d -> %d@."
          tt.Rsg_pla.Truth_table.n_inputs
          (Rsg_pla.Folding.n_slots g.Rsg_pla.Folding.fold)
          r.Anneal.r_initial_cost r.Anneal.r_cost;
        g.Rsg_pla.Folding.cell
      end
      else if fold then begin
        let g = Rsg_pla.Folding.generate tt in
        if not (Rsg_pla.Folding.verify g) then begin
          Format.eprintf "internal error: folded extraction mismatch@.";
          exit 1
        end;
        Format.printf "folded %d inputs into %d slots@."
          tt.Rsg_pla.Truth_table.n_inputs
          (Rsg_pla.Folding.n_slots g.Rsg_pla.Folding.fold);
        g.Rsg_pla.Folding.cell
      end
      else begin
        let g = Rsg_pla.Gen.generate tt in
        if not (Rsg_pla.Gen.verify g) then begin
          Format.eprintf "internal error: extraction mismatch@.";
          exit 1
        end;
        g.Rsg_pla.Gen.cell
      end
    in
    let variant =
      if fold_opt then
        Printf.sprintf "+fold-opt:%s:%d:%d:%d" (strategy_name strategy) seed
          iters chains
      else if fold then "+fold"
      else ""
    in
    run_cached ?domains ~store
      ~stem:(Printf.sprintf "pla:%s%s" table variant)
      ~design:("builtin:pla\n" ^ Rsg_pla.Pla_design_file.text)
      ~params:(Printf.sprintf "fold=%b%s\n%s" fold variant table_text)
      ~label:
        (Printf.sprintf "pla %dx%d%s" tt.Rsg_pla.Truth_table.n_inputs
           tt.Rsg_pla.Truth_table.n_outputs
           (if fold_opt then " fold-opt" else if fold then " folded" else ""))
      ~stats ~drc ~erc ~out gen

let table_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "t"; "table" ] ~docv:"FILE"
        ~doc:"Truth table: one 'inputs outputs' row per line (1/0/-).")

let fold_flag =
  Arg.(value & flag & info [ "fold" ] ~doc:"Fold disjoint input columns.")

let fold_opt_flag =
  Arg.(
    value & flag
    & info [ "fold-opt" ]
        ~doc:
          "Search for a better column folding by simulated annealing \
           (implies folding; see $(b,--strategy), $(b,--seed), \
           $(b,--iters), $(b,--chains)).")

let pla_cmd =
  Cmd.v
    (Cmd.info "pla" ~doc:"Generate a PLA from a truth table")
    Term.(
      const pla $ table_arg $ out_arg "pla.cif" $ stats_flag $ fold_flag
      $ fold_opt_flag $ seed_arg $ iters_arg $ chains_arg $ strategy_arg
      $ lint_flag $ drc_flag $ erc_flag $ domains_term $ store_term $ obs_term)

(* ---- rom ----------------------------------------------------------- *)

let rom data_path word_bits out stats drc erc domains store obs =
  with_obs obs @@ fun () ->
  let data_text = read_file data_path in
  let words =
    data_text |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let s = String.trim line in
           if s = "" then None
           else
             match int_of_string_opt s with
             | Some v -> Some v
             | None ->
               Format.eprintf "bad word %S@." s;
               exit 1)
    |> Array.of_list
  in
  let gen () =
    match Rsg_pla.Rom.generate ~word_bits words with
    | exception Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      exit 1
    | r ->
      if not (Rsg_pla.Rom.verify r) then begin
        Format.eprintf "internal error: ROM readback mismatch@.";
        exit 1
      end;
      r.Rsg_pla.Rom.pla.Rsg_pla.Gen.cell
  in
  run_cached ?domains ~store ~stem:("rom:" ^ data_path) ~design:"builtin:rom"
    ~params:(Printf.sprintf "word_bits=%d\n%s" word_bits data_text)
    ~label:(Printf.sprintf "rom %d words x %d bits" (Array.length words) word_bits)
    ~stats ~drc ~erc ~out gen

let rom_cmd =
  Cmd.v
    (Cmd.info "rom" ~doc:"Generate a ROM from a list of words")
    Term.(
      const rom
      $ Arg.(
          required
          & opt (some file) None
          & info [ "data" ] ~docv:"FILE"
              ~doc:"One integer word per line; power-of-two count.")
      $ Arg.(value & opt int 8 & info [ "word-bits" ] ~docv:"N" ~doc:"Word width.")
      $ out_arg "rom.cif" $ stats_flag $ drc_flag $ erc_flag $ domains_term
      $ store_term $ obs_term)

(* ---- decoder ------------------------------------------------------- *)

let decoder n out stats drc erc domains store obs =
  with_obs obs @@ fun () ->
  let gen () = (Rsg_pla.Gen.generate_decoder n).Rsg_pla.Gen.cell in
  run_cached ?domains ~store ~stem:"decoder" ~design:"builtin:decoder"
    ~params:(Printf.sprintf "n=%d" n)
    ~label:(Printf.sprintf "decoder %d" n)
    ~stats ~drc ~erc ~out gen

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Decoder input bits.")

let decoder_cmd =
  Cmd.v
    (Cmd.info "decoder" ~doc:"Generate an n-to-2^n decoder")
    Term.(
      const decoder $ n_arg $ out_arg "decoder.cif" $ stats_flag $ drc_flag
      $ erc_flag $ domains_term $ store_term $ obs_term)

(* ---- sim ----------------------------------------------------------- *)

let sim size beta a b =
  let t =
    Rsg_mult.Multiplier.build
      ?beta:(if beta = 0 then None else Some beta)
      ~m:size ~n:size ()
  in
  match Rsg_mult.Multiplier.multiply t a b with
  | exception Invalid_argument msg ->
    Format.eprintf "%s@." msg;
    exit 1
  | p ->
    let s = Rsg_mult.Multiplier.stats t in
    Format.printf "%d * %d = %d@." a b p;
    Format.printf
      "(%dx%d %s multiplier: %d adder cells, %d registers, latency %d)@."
      size size
      (if beta = 0 then "combinational" else Printf.sprintf "beta=%d" beta)
      s.Rsg_mult.Multiplier.adder_cells s.Rsg_mult.Multiplier.registers
      s.Rsg_mult.Multiplier.latency_cycles;
    if p <> a * b then begin
      Format.eprintf "MISMATCH: expected %d@." (a * b);
      exit 1
    end

let sim_cmd =
  Cmd.v
    (Cmd.info "sim" ~doc:"Multiply through the cycle-accurate array model")
    Term.(
      const sim $ size_arg
      $ Arg.(
          value & opt int 0
          & info [ "beta" ] ~docv:"B"
              ~doc:"Pipelining degree (0 = combinational).")
      $ Arg.(required & pos 0 (some int) None & info [] ~docv:"A")
      $ Arg.(required & pos 1 (some int) None & info [] ~docv:"B"))

(* ---- inputs -------------------------------------------------------- *)

(* a command's target: a builtin or a file; by default a builtin
   generator or a CIF file, resolved as the serve daemon resolves it *)
let target_pos ?(doc = "CIF layout, or builtin: pla, ram, multiplier, decoder.")
    () =
  Arg.(pos 0 (some string) None & info [] ~docv:"FILE|BUILTIN" ~doc)

let target_cell t =
  match Jobspec.target_cell t with
  | Ok cell -> cell
  | Error msg ->
    Format.eprintf "%s@." msg;
    exit 1

let cif_pos = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")

(* a command's input: its positional argument ([what] in the errors)
   or a --from-db database, exactly one of them *)
let input_of cmd ~what arg from_db =
  match (arg, from_db) with
  | Some a, None -> Either.Left a
  | None, Some db -> Either.Right db
  | Some _, Some _ ->
    Format.eprintf "%s: give either %s or --from-db, not both@." cmd what;
    exit 1
  | None, None ->
    Format.eprintf "%s: need %s or --from-db@." cmd what;
    exit 1

(* a layout utility's input: positional CIF or --from-db database *)
let utility_cell cmd path from_db =
  match input_of cmd ~what:"a CIF file" path from_db with
  | Either.Left p -> or_exit (fun () -> Jobspec.top_cell_of_cif p)
  | Either.Right db -> (load_db db).Codec.e_cell

(* ---- stats --------------------------------------------------------- *)

let stats_cmd =
  let run path from_db = print_stats (utility_cell "stats" path from_db) in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print statistics for a CIF layout")
    Term.(const run $ cif_pos $ from_db_arg)

(* ---- masks --------------------------------------------------------- *)

let masks path from_db out =
  let cell = utility_cell "masks" path from_db in
  let expanded =
    Rsg_compact.Expand_contact.expand_cell Rsg_compact.Rules.default cell
  in
  Format.printf "expanded synthetic contacts: %d boxes -> %d boxes@."
    (Flatten.stats cell).Flatten.n_boxes
    (List.length (Cell.boxes expanded));
  write_layout out expanded

let masks_cmd =
  Cmd.v
    (Cmd.info "masks"
       ~doc:"Expand synthetic contact layers to lithographic masks")
    Term.(
      const masks $ cif_pos $ from_db_arg $ out_arg "masks.cif")

(* ---- compact ------------------------------------------------------- *)

module Hcompact = Rsg_compact.Hcompact

let hier_compact ~slack cell =
  let r =
    Hcompact.hier ~distribute_slack:slack Rsg_compact.Rules.default cell
  in
  let s = r.Hcompact.hr_stats in
  Format.printf "hier: %d prototypes, %d stitch constraints@."
    s.Hcompact.hs_protos s.Hcompact.hs_stitch_constraints;
  Format.printf "hier: area %d -> %d (%d elements, %d clusters, %d rounds)@."
    s.Hcompact.hs_area_before s.Hcompact.hs_area_after s.Hcompact.hs_elements
    s.Hcompact.hs_clusters s.Hcompact.hs_rounds;
  r

let compact path from_db out slack hier domains drc obs =
  with_obs obs @@ fun () ->
  let cell = utility_cell "compact" path from_db in
  match
    if hier then (hier_compact ~slack cell).Hcompact.hr_cell
    else begin
      let compacted, r =
        Rsg_compact.Compactor.compact_cell ~distribute_slack:slack
          Rsg_compact.Rules.default cell
      in
      Format.printf "width %d -> %d (%d constraints, %d passes)@."
        r.Rsg_compact.Compactor.width_before
        r.Rsg_compact.Compactor.width_after
        r.Rsg_compact.Compactor.n_constraints r.Rsg_compact.Compactor.passes;
      compacted
    end
  with
  | compacted ->
    drc_gate ?domains drc compacted;
    write_layout out compacted
  | exception Rsg_compact.Bellman.Infeasible cycle ->
    Format.eprintf "compaction infeasible: %a@." Rsg_compact.Bellman.pp_witness
      cycle;
    exit 1

let slack_flag =
  Arg.(value & flag & info [ "slack" ] ~doc:"Distribute slack after packing.")

let hier_flag =
  Arg.(
    value & flag
    & info [ "hier" ]
        ~doc:
          "Whole-structure hierarchical compaction: keep every prototype's \
           interior geometry and stitch the instance abstractions of the \
           effective root level with inter-instance spacing constraints.")

let compact_cmd =
  Cmd.v
    (Cmd.info "compact" ~doc:"Constraint-graph compaction of a CIF layout")
    Term.(
      const compact $ cif_pos $ from_db_arg $ out_arg "compacted.cif"
      $ slack_flag $ hier_flag $ domains_term $ drc_flag $ obs_term)

(* ---- drc ----------------------------------------------------------- *)

let drc target from_db rules json max_shown self_check compacted domains obs =
  with_obs obs @@ fun () ->
  let deck =
    match rules with
    | None -> Rsg_drc.Deck.default
    | Some path -> (
      try Rsg_drc.Deck.read_file path
      with Rsg_drc.Deck.Parse_error (line, msg) ->
        Format.eprintf "%s:%d: %s@." path line msg;
        exit 1)
  in
  let cell =
    match input_of "drc" ~what:"a target" target from_db with
    | Either.Left t -> target_cell t
    | Either.Right db -> (load_db db).Codec.e_cell
  in
  let cell =
    if compacted then
      fst (Rsg_compact.Compactor.compact_cell Rsg_compact.Rules.default cell)
    else cell
  in
  if self_check then
    match Rsg_drc.Drc.self_check_cell ~deck ?domains cell with
    | Ok sc -> Format.printf "%a@." Rsg_drc.Drc.pp_self_check sc
    | Error msg ->
      Format.eprintf "self-check failed: %s@." msg;
      exit 1
  else begin
    let r =
      Rsg_drc.Drc.check_flat ~deck ?domains
        (Flatten.protos_flat (Flatten.prototypes cell))
    in
    if json then print_endline (Json.to_string (Rsg_drc.Drc.report_to_json r))
    else begin
      let total = List.length r.Rsg_drc.Drc.r_violations in
      let shown =
        { r with
          Rsg_drc.Drc.r_violations =
            List.filteri (fun i _ -> i < max_shown) r.Rsg_drc.Drc.r_violations
        }
      in
      Format.printf "%a" Rsg_drc.Drc.pp_report shown;
      if total > max_shown then
        Format.printf "  ... and %d more (raise --max)@." (total - max_shown)
    end;
    if not (Rsg_drc.Drc.clean r) then exit 1
  end

let drc_cmd =
  Cmd.v
    (Cmd.info "drc"
       ~doc:
         "Design-rule check a layout: merged-region minimum width, \
          facing-edge spacing, contact enclosure.  The target is a CIF file \
          or a builtin generator (pla, ram, multiplier, decoder).  Exits 1 \
          on violations.")
    Term.(
      const drc $ Arg.value (target_pos ()) $ from_db_arg
      $ Arg.(
          value
          & opt (some file) None
          & info [ "rules" ] ~docv:"FILE"
              ~doc:
                "Rule deck in the DSL (width/spacing/enclosure/overlap lines); \
                 default is the builtin nmos-lambda deck.")
      $ json_flag
      $ Arg.(
          value & opt int 20
          & info [ "max" ] ~docv:"N" ~doc:"Print at most $(docv) violations.")
      $ Arg.(
          value & flag
          & info [ "self-check" ]
              ~doc:
                "Mutation self-check: narrow one box to just below its width \
                 rule and verify the checker reports exactly that defect.")
      $ Arg.(
          value & flag
          & info [ "compacted" ] ~doc:"Check the layout after x compaction.")
      $ domains_term $ obs_term)

(* ---- place --------------------------------------------------------- *)

(* Annealed macro arrangement: N copies of the target block on the
   interface grid, scored by whole-structure compacted area.  The
   greedy baseline (zero iterations) is the fixed one-row floorplan
   every chip generator uses today, so --strategy greedy reproduces
   the status quo and anneal can only match or beat it. *)
let place target blocks out stats seed iters chains strategy cache json domains
    obs =
  with_obs obs @@ fun () ->
  if blocks < 1 then begin
    Format.eprintf "place: --blocks must be >= 1@.";
    exit 1
  end;
  let block = target_cell target in
  let rules = Rsg_compact.Rules.default in
  let st0 =
    Rsg_search.Place_opt.make ~rules (List.init blocks (fun _ -> block))
  in
  let base_cell = Rsg_search.Place_opt.cell st0 in
  let bprotos = Flatten.prototypes block in
  let block_hex = Flatten.subtree_hex bprotos (Flatten.protos_root bprotos) in
  let r =
    run_search ?domains ~cache
      ~stem:(Printf.sprintf "place-evals:%s:%d" (Filename.basename target) blocks)
      ~label:(Printf.sprintf "place evals %s x%d" (Filename.basename target) blocks)
      ~design:(Printf.sprintf "place:%s:%d" block_hex blocks)
      ~rules ~seed ~iters ~chains ~strategy Rsg_search.Place_opt.problem st0
      base_cell
  in
  let best = Rsg_search.Place_opt.cell r.Anneal.r_best in
  match Hcompact.hier rules best with
  | exception Rsg_compact.Bellman.Infeasible cycle ->
    Format.eprintf "compaction infeasible: %a@." Rsg_compact.Bellman.pp_witness
      cycle;
    exit 1
  | hr ->
    if json then
      print_endline
        (Json.to_string
           (Rsg_search.Place_opt.summary_json ~target ~seed
              ~strategy:(strategy_name strategy) r))
    else
      Format.printf "place: %d x %s, area %d -> %d@." blocks target
        r.Anneal.r_initial_cost r.Anneal.r_cost;
    if stats then print_stats hr.Hcompact.hr_cell;
    write_layout out hr.Hcompact.hr_cell

let place_cmd =
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Search-based macro placement: arrange N copies of a block on the \
          interface grid by simulated annealing, scored by hierarchically \
          compacted area.  The target is a CIF file or a builtin generator \
          (pla, ram, multiplier, decoder).")
    Term.(
      const place $ Arg.required (target_pos ())
      $ Arg.(
          value & opt int 4
          & info [ "blocks" ] ~docv:"N" ~doc:"Copies of the block to arrange.")
      $ out_arg "place.cif" $ stats_flag $ seed_arg $ iters_arg $ chains_arg
      $ strategy_arg $ search_cache_arg $ json_flag $ domains_term $ obs_term)

(* ---- erc ----------------------------------------------------------- *)

(* Static electrical check of a layout, with the same target handling
   as drc.  --cache persists per-prototype verdicts keyed by subtree
   hash + config digest and replays them: a warm run re-adjudicates
   nothing, and an edited design still harvests the unchanged
   prototypes of its previous entry through the stem pointer. *)
let erc target from_db cache json self_check vdd gnd max_fanout strict domains
    obs =
  with_obs obs @@ fun () ->
  let cfg =
    { Erc.default_config with
      Erc.vdd_names =
        (match vdd with [] -> Erc.default_config.Erc.vdd_names | v -> v);
      gnd_names =
        (match gnd with [] -> Erc.default_config.Erc.gnd_names | g -> g);
      max_fanout;
      strict
    }
  in
  let cfg_digest = Erc.config_digest cfg Rsg_compact.Rules.default in
  let cell, design_id, name =
    match input_of "erc" ~what:"a target" target from_db with
    | Either.Left t ->
      let id = if Sys.file_exists t then read_file t else "builtin:" ^ t in
      (target_cell t, id, t)
    | Either.Right db -> ((load_db db).Codec.e_cell, read_file db, db)
  in
  if self_check then
    match Erc.self_check_cell ~cfg ?domains cell with
    | Ok (b, d) ->
      Format.printf
        "self-check ok: probe strip (%d,%d)-(%d,%d) yields exactly %s: %s@."
        b.Box.xmin b.Box.ymin b.Box.xmax b.Box.ymax d.Rsg_lint.Diag.code
        d.Rsg_lint.Diag.message
    | Error msg ->
      Format.eprintf "self-check failed: %s@." msg;
      exit 1
  else begin
    let run =
      Store.Cached.start ~log:Format.err_formatter ~stem:("erc:" ^ name)
        (Option.map Store.open_ cache)
    in
    let protos = Flatten.prototypes cell in
    let key =
      Store.key
        ~deck:("erc\x00" ^ Digest.to_hex cfg_digest)
        ~scale:"1" ~design:design_id ~params:"" ()
    in
    let r =
      Store.Cached.run run key ~redo:"rechecking"
        ~compute:(fun _ ->
          Erc.check_protos ~cfg ?domains
            ~cached:
              (Store.Cached.replay run (fun p -> p.Codec.p_ercs) cfg_digest)
            protos)
        ~save:(fun r ->
          ignore
            (Store.Cached.save run (lazy key) ~label:("erc " ^ name)
               ~ercs:
                 (Store.Cached.by_hex cfg_digest
                    (List.map
                       (fun (l : Erc.level) -> (l.Erc.l_hash, l.Erc.l_verdict))
                       r.Erc.r_levels))
               (lazy protos) cell))
    in
    if json then print_endline (Json.to_string (Erc.report_to_json r))
    else Format.printf "%a" Erc.pp_report r;
    if not (Erc.clean r) then exit 1
  end

let erc_cmd =
  Cmd.v
    (Cmd.info "erc"
       ~doc:
         "Electrical rule check a layout: supply shorts, floating gates, \
          undriven nets, dangling devices, fanout limits, supply-rail \
          reachability — over the split-diffusion extracted netlist.  The \
          target is a CIF file or a builtin generator (pla, ram, \
          multiplier, decoder).  Exits 1 on ERC errors (warnings pass; see \
          $(b,--strict)).")
    Term.(
      const erc $ Arg.value (target_pos ()) $ from_db_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "cache" ] ~docv:"DIR"
              ~doc:
                "Persist per-prototype verdicts keyed by subtree hash + \
                 config digest; a warm run replays every unchanged \
                 prototype's verdict without re-extracting it.")
      $ json_flag
      $ Arg.(
          value & flag
          & info [ "self-check" ]
              ~doc:
                "Mutation self-check: inject one floating-gate transistor \
                 (a poly strip crossing a diffusion, clear of everything \
                 else) and verify the checker reports exactly that defect.")
      $ Arg.(
          value & opt_all string []
          & info [ "vdd" ] ~docv:"NAME"
              ~doc:
                "Terminal name treated as a power rail (repeatable; default \
                 vdd, vcc, vdd!, pwr).")
      $ Arg.(
          value & opt_all string []
          & info [ "gnd" ] ~docv:"NAME"
              ~doc:
                "Terminal name treated as a ground rail (repeatable; \
                 default gnd, vss, gnd!, ground).")
      $ Arg.(
          value & opt int Erc.default_config.Erc.max_fanout
          & info [ "max-fanout" ] ~docv:"N"
              ~doc:"Gates one net may drive before E304 fires.")
      $ Arg.(
          value & flag
          & info [ "strict" ]
              ~doc:"Escalate E301-E305 from warnings to errors.")
      $ domains_term $ obs_term)

(* ---- lint ---------------------------------------------------------- *)

(* The target is a design file or a builtin design (mult, pla), so the
   analyzer can be exercised without a design file at hand.  A
   parameter file makes the host environment fully known (unresolved
   names become errors); without one they stay warnings, since the
   name may arrive from a parameter file at generate time. *)
let lint target params_path sample_path assumes hashes json obs =
  with_obs obs @@ fun () ->
  let builtin = Jobspec.lint_builtin target in
  let source_text =
    match builtin with
    | Some (_, _, text) -> text
    | None when Sys.file_exists target -> read_file target
    | None ->
      Format.eprintf "%s is neither a file nor a builtin (mult, pla)@." target;
      exit 1
  in
  if hashes then begin
    (* content digests of every procedure (calls embed the callee's
       digest) — diff two runs to see which celltypes an edit dirties *)
    (match Rsg_lang.Parser.parse_program source_text with
    | exception Rsg_lang.Parser.Syntax_error msg ->
      Format.eprintf "syntax error: %s@." msg;
      exit 1
    | program ->
      let t = Rsg_lang.Subtree.of_program program in
      if json then
        print_endline
          (Json.to_string
             (Json.List
                (List.map
                   (fun (name, d) ->
                     Json.Obj
                       [ ("proc", Json.String name); ("hash", Json.String d) ])
                   (Rsg_lang.Subtree.digests t))))
      else
        List.iter
          (fun (name, d) -> Format.printf "%s  %s@." d name)
          (Rsg_lang.Subtree.digests t));
    exit 0
  end;
  let report =
    match builtin with
    | Some (file, cfg, text) -> Rsg_lint.Design_lint.check_string ~file cfg text
    | None ->
      let cells =
        Option.map
          (fun p -> Db.names (sample_of_cif (read_file p)).Sample.db)
          sample_path
      in
      let cfg =
        match params_path with
        | Some p ->
          Rsg_lint.Design_lint.config_of_params ?cells
            (Rsg_lang.Param.parse (read_file p))
        | None ->
          { Rsg_lint.Design_lint.default_config with
            Rsg_lint.Design_lint.cells = Option.value cells ~default:[]
          }
      in
      let cfg =
        { cfg with
          Rsg_lint.Design_lint.globals =
            assumes @ cfg.Rsg_lint.Design_lint.globals
        }
      in
      Rsg_lint.Design_lint.check_string ~file:target cfg source_text
  in
  if json then
    print_endline (Json.to_string (Rsg_lint.Diag.report_to_json report))
  else Format.printf "%a" Rsg_lint.Diag.pp_report report;
  if not (Rsg_lint.Diag.clean report) then exit 1

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a design file without running it: unbound \
          variables under the three-tier scoping, unused locals and macros, \
          call arity, scalar-vs-array misuse, subcell bindings.  The target \
          is a design file or a builtin design (mult, pla).  Exits 1 on \
          lint errors; warnings do not fail the run.")
    Term.(
      const lint
      $ Arg.required (target_pos ~doc:"Design file, or builtin: mult, pla." ())
      $ Arg.(
          value
          & opt (some file) None
          & info [ "p"; "params" ] ~docv:"FILE"
              ~doc:
                "Parameter file; when given, the host environment is \
                 considered fully known and unresolved names are errors.")
      $ Arg.(
          value
          & opt (some file) None
          & info [ "s"; "sample" ] ~docv:"FILE"
              ~doc:"Sample layout (CIF); its cell names become resolvable.")
      $ Arg.(
          value & opt_all string []
          & info [ "assume" ] ~docv:"NAME"
              ~doc:
                "Treat $(docv) as a host-installed global (repeatable), \
                 e.g. the PLA's lits/outs encoding tables.")
      $ Arg.(
          value & flag
          & info [ "hashes" ]
              ~doc:
                "Instead of linting, print each procedure's transitive \
                 content digest (calls embed the callee's digest); diff \
                 two runs to see which procedures an edit dirties.")
      $ json_flag $ obs_term)

(* ---- batch --------------------------------------------------------- *)

(* The manifest grammar (NAME KIND [key=value ...], '#' comments) and
   the per-kind generators live in {!Rsg_serve.Jobspec}, shared with
   the serve daemon so both agree byte-for-byte on specs and cache
   keys. *)

let batch manifest cache out_dir domains json obs =
  with_obs obs @@ fun () ->
  let jobs =
    match Jobspec.parse_manifest (read_file manifest) with
    | Ok jobs -> jobs
    | Error msg ->
      Format.eprintf "%s: %s@." manifest msg;
      exit 1
  in
  let store = Option.map Store.open_ cache in
  let t0 = Unix.gettimeofday () in
  let results = Batch.run ?domains ?store jobs in
  let wall = Unix.gettimeofday () -. t0 in
  (* outputs and summaries follow manifest order: bit-identical for
     any domain count *)
  (match out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    List.iter
      (fun r ->
        match r.Batch.r_cell with
        | Some cell ->
          Cif.write_file
            (Filename.concat dir (r.Batch.r_job.Batch.j_name ^ ".cif"))
            cell
        | None -> ())
      results);
  let count p = List.length (List.filter p results) in
  let hits = count (fun r -> r.Batch.r_outcome = Batch.Hit) in
  let failed = count (fun r -> match r.Batch.r_outcome with Batch.Failed _ -> true | _ -> false) in
  if json then print_endline (Json.to_string (Batch.to_json results))
  else begin
    List.iter
      (fun r ->
        Format.printf "%-16s %-10s %-11s %8.3fs %8d boxes%s@."
          r.Batch.r_job.Batch.j_name r.Batch.r_job.Batch.j_kind
          (Batch.outcome_name r.Batch.r_outcome)
          r.Batch.r_seconds r.Batch.r_boxes
          (match r.Batch.r_outcome with
          | Batch.Failed msg -> ": " ^ msg
          | Batch.Regenerated err ->
            Format.asprintf " (was corrupt: %a)" Codec.pp_error err
          | _ -> "");
        ())
      results;
    Format.printf "%d jobs, %d hits, %d failed in %.3fs@."
      (List.length results) hits failed wall
  end;
  if failed > 0 then exit 1

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a manifest of generation jobs (one NAME KIND key=value... per \
          line; kinds: multiplier, pla, rom, decoder, ram) across the \
          domain pool, sharing a layout cache.  Output files and summaries \
          are in manifest order — bit-identical for any domain count.")
    Term.(
      const batch
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"MANIFEST" ~doc:"Job manifest file.")
      $ cache_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out-dir" ] ~docv:"DIR"
              ~doc:"Write each job's layout to $(docv)/NAME.cif.")
      $ domains_term $ json_flag $ obs_term)

(* ---- cache --------------------------------------------------------- *)

let cache_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Store directory.")

let cache_stats dir json =
  let s = Store.stats (Store.open_ dir) in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("entries", Json.Int s.Store.st_entries);
              ("bytes", Json.Int s.Store.st_bytes);
              ( "list",
                Json.List
                  (List.map
                     (fun e ->
                       Json.Obj
                         [ ("key", Json.String e.Store.es_key);
                           ("label", Json.String e.Store.es_label);
                           ("bytes", Json.Int e.Store.es_bytes);
                           ("protos", Json.Int e.Store.es_protos);
                           ("reused", Json.Int e.Store.es_reused) ])
                     s.Store.st_list) );
              ( "sections",
                Json.List
                  (List.map
                     (fun (x : Codec.section) ->
                       Json.Obj
                         [ ("name", Json.String x.Codec.s_name);
                           ("bytes", Json.Int x.Codec.s_bytes);
                           ("entries", Json.Int x.Codec.s_entries) ])
                     s.Store.st_sections) ) ]))
  else begin
    List.iter
      (fun e ->
        Format.printf "%s  %8d  %3d protos (%3d reused)  %s@."
          (String.sub e.Store.es_key 0 8)
          e.Store.es_bytes e.Store.es_protos e.Store.es_reused
          e.Store.es_label)
      s.Store.st_list;
    List.iter
      (fun (x : Codec.section) ->
        Format.printf "section %-18s %8d bytes  %6d entries@." x.Codec.s_name
          x.Codec.s_bytes x.Codec.s_entries)
      s.Store.st_sections;
    Format.printf "%d entries, %d bytes@." s.Store.st_entries s.Store.st_bytes
  end

let cache_stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"List cache entries (sorted by key) and totals")
    Term.(
      const cache_stats $ cache_dir_arg $ json_flag)

let cache_clear_cmd =
  let run dir =
    Format.printf "removed %d entries@." (Store.clear (Store.open_ dir))
  in
  Cmd.v
    (Cmd.info "clear" ~doc:"Delete every cache entry")
    Term.(const run $ cache_dir_arg)

let cache_gc_cmd =
  let run dir max_age max_bytes =
    let removed = Store.gc ?max_age ?max_bytes (Store.open_ dir) in
    Format.printf "removed %d entries@." removed
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"Delete entries by age, then oldest-first by size")
    Term.(
      const run $ cache_dir_arg
      $ Arg.(
          value
          & opt (some float) None
          & info [ "max-age" ] ~docv:"SECONDS"
              ~doc:"Delete entries older than $(docv).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-bytes" ] ~docv:"N"
              ~doc:"Delete oldest entries until at most $(docv) bytes remain."))

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and manage a layout cache directory")
    [ cache_stats_cmd; cache_clear_cmd; cache_gc_cmd ]

(* ---- serve / client ------------------------------------------------ *)

module Serve = Rsg_serve.Serve
module Sclient = Rsg_serve.Client

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve socket workers queue mem_mb cache max_request_kb =
  let workers =
    match workers with Some w -> w | None -> Rsg_par.Par.default_domains ()
  in
  let cfg =
    { (Serve.default_config ~socket_path:socket) with
      Serve.workers;
      queue_depth = queue;
      mem_budget = mem_mb * 1024 * 1024;
      store_dir = cache;
      max_request = max_request_kb * 1024;
      handle_signals = true
    }
  in
  Serve.run
    ~on_ready:(fun () ->
      Format.printf "serving on %s (%d workers, queue %d, %d MiB memory%s)@."
        socket workers queue mem_mb
        (match cache with Some d -> ", store " ^ d | None -> "");
      Format.print_flush ())
    cfg;
  Format.printf "drained@."

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident generation service: accept generate/drc/erc/\
          compact/place/extract/lint/batch jobs as newline-delimited JSON \
          over a Unix-domain socket, multiplexed onto a bounded worker pool \
          with per-job deadlines, coalescing of identical in-flight \
          generations, and a hot in-memory cache over the layout store.  \
          SIGTERM drains gracefully: admitted jobs complete, new work is \
          refused.")
    Term.(
      const serve $ socket_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "workers" ] ~docv:"N"
              ~doc:
                "Worker domains executing jobs (default: RSG_DOMAINS or the \
                 machine's recommended domain count).")
      $ Arg.(
          value & opt int 16
          & info [ "queue" ] ~docv:"N"
              ~doc:
                "Admission queue depth: jobs queued beyond the running ones \
                 before requests are answered with queue_full.")
      $ Arg.(
          value & opt int 64
          & info [ "mem-budget" ] ~docv:"MIB"
              ~doc:"In-memory result cache budget, mebibytes.")
      $ cache_arg
      $ Arg.(
          value & opt int 1024
          & info [ "max-request" ] ~docv:"KIB"
              ~doc:"Byte cap on one request line, kibibytes."))

(* one-shot scripting client: build the request(s), pipeline them,
   print each response as a JSON line, exit 0 iff every response is ok *)
let client socket op arg drc cif out deadline attempts =
  let fields ?spec extra =
    ("id", Json.String "c1")
    :: ("op", Json.String op)
    :: ((match spec with Some s -> [ ("spec", Json.String s) ] | None -> [])
       @ extra
       @
       match deadline with
       | Some ms -> [ ("deadline_ms", Json.Int ms) ]
       | None -> [])
  in
  let usage msg =
    Format.eprintf "%s@." msg;
    exit 2
  in
  let reqs =
    match (op, arg) with
    | ("stats" | "health" | "shutdown"), None ->
      [ `Json (Json.Obj (fields [])) ]
    | ("stats" | "health" | "shutdown"), Some _ ->
      usage (op ^ " takes no argument")
    | "generate", Some spec ->
      let flags =
        (if drc then [ ("drc", Json.Bool true) ] else [])
        @ (if cif then [ ("cif", Json.Bool true) ] else [])
        @ match out with Some p -> [ ("out", Json.String p) ] | None -> []
      in
      [ `Json (Json.Obj (fields ~spec flags)) ]
    | ("drc" | "erc" | "compact" | "place" | "extract" | "lint"), Some spec ->
      [ `Json (Json.Obj (fields ~spec [])) ]
    | "batch", Some path ->
      [ `Json (Json.Obj (fields ~spec:(read_file path) [])) ]
    | "sleep", Some ms -> (
      match int_of_string_opt ms with
      | Some ms -> [ `Json (Json.Obj (fields [ ("ms", Json.Int ms) ])) ]
      | None -> usage "sleep needs milliseconds")
    | "raw", None ->
      (* pipeline stdin verbatim, one request per line — the harness
         entry point for malformed-frame and coalescing experiments *)
      let rec lines acc =
        match In_channel.input_line stdin with
        | Some l -> lines (if String.trim l = "" then acc else `Raw l :: acc)
        | None -> List.rev acc
      in
      lines []
    | "raw", Some _ -> usage "raw reads requests from stdin"
    | _, None -> usage (op ^ " needs an argument")
    | other, _ ->
      usage
        (other
       ^ ": unknown op (generate, drc, erc, compact, place, extract, lint, \
          batch, sleep, stats, health, shutdown, raw)")
  in
  if reqs = [] then usage "no requests";
  match Sclient.connect ~attempts socket with
  | Error msg ->
    Format.eprintf "%s@." msg;
    exit 1
  | Ok c ->
    let result =
      Fun.protect
        ~finally:(fun () -> Sclient.close c)
        (fun () ->
          let rec send_all = function
            | [] -> Ok ()
            | `Json v :: rest ->
              Result.bind (Sclient.send c v) (fun () -> send_all rest)
            | `Raw l :: rest ->
              Result.bind (Sclient.send_line c l) (fun () -> send_all rest)
          in
          Result.bind (send_all reqs) (fun () ->
              let rec recv_n acc n =
                if n = 0 then Ok (List.rev acc)
                else
                  match Sclient.recv c with
                  | Ok v -> recv_n (v :: acc) (n - 1)
                  | Error _ when acc <> [] ->
                    (* daemon closed after an error response (e.g.
                       too_large): report what we got *)
                    Ok (List.rev acc)
                  | Error _ as e -> e
              in
              recv_n [] (List.length reqs)))
    in
    (match result with
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 1
    | Ok resps ->
      List.iter (fun r -> print_endline (Json.to_string r)) resps;
      if List.for_all Sclient.response_ok resps then () else exit 1)

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,rsg serve) daemon.  OP is generate, drc, \
          erc, compact, place, extract, lint, batch, sleep, stats, health, \
          shutdown, or raw (pipeline JSON request lines from stdin).  \
          Responses are printed one JSON line each; exits 0 iff every \
          response is ok.")
    Term.(
      const client $ socket_arg
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"OP" ~doc:"Operation.")
      $ Arg.(
          value
          & pos 1 (some string) None
          & info [] ~docv:"ARG"
              ~doc:
                "Op argument: a manifest line (generate), a builtin or CIF \
                 path (drc, erc, compact, place, extract), a builtin or \
                 design file (lint), a manifest file (batch), milliseconds \
                 (sleep).")
      $ Arg.(
          value & flag
          & info [ "drc" ] ~doc:"generate: also design-rule check the result.")
      $ Arg.(
          value & flag
          & info [ "cif" ] ~doc:"generate: include the CIF text in the response.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"generate: write the layout to $(docv) (daemon-side path).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "deadline" ] ~docv:"MS"
              ~doc:
                "Deadline: the job must start within $(docv) milliseconds or \
                 is answered deadline_expired.")
      $ Arg.(
          value & opt int 1
          & info [ "connect-retries" ] ~docv:"N"
              ~doc:
                "Retry the connect up to $(docv) times (50 ms apart) — for \
                 scripts that start the daemon and connect immediately."))

(* ---- doctor -------------------------------------------------------- *)

(* A guided demonstration of the diagnosable, transactional expansion
   engine: a deliberately broken connectivity graph (one missing
   interface, one inconsistent cycle) is diagnosed in collect mode,
   the table is repaired, and the very same graph then expands. *)
let doctor () =
  let leaf name =
    let c = Cell.create name in
    Cell.add_box c Layer.Metal (Box.of_size ~origin:Vec.zero ~width:8 ~height:8);
    c
  in
  let u = leaf "u" and v = leaf "v" in
  let tbl = Interface_table.create () in
  Interface_table.declare tbl ~from:"u" ~into:"u" ~index:1
    (Interface.make (Vec.make 10 0) Orient.north);
  (* deliberately wrong: the closing edge of the triangle below needs
     (20, 0), but index 2 was "declared" as a vertical step *)
  Interface_table.declare tbl ~from:"u" ~into:"u" ~index:2
    (Interface.make (Vec.make 0 12) Orient.north);
  let a = Graph.mk_instance u
  and b = Graph.mk_instance u
  and c = Graph.mk_instance u
  and d = Graph.mk_instance v in
  Graph.connect a b 1;
  Graph.connect b c 1;
  Graph.connect a c 2;
  (* inconsistent cycle *)
  Graph.connect c d 7;
  (* no I(u, v, 7) anywhere: missing interface *)
  Format.printf "diagnosing a deliberately broken graph (collect mode):@.@.";
  let r = Expand.run ~mode:`Collect tbl a in
  Format.printf "%a@." Expand.pp_report r;
  let untouched =
    List.for_all
      (fun (n : Graph.node) -> n.Graph.placement = None)
      (Graph.reachable a)
  in
  Format.printf "@.graph left untouched by the failed expansion: %b@."
    untouched;
  Format.printf "@.repairing: replace I(u, u, 2) with (20, 0) north; declare \
                 I(u, v, 7)@.";
  Interface_table.replace tbl ~from:"u" ~into:"u" ~index:2
    (Interface.make (Vec.make 20 0) Orient.north);
  Interface_table.declare tbl ~from:"u" ~into:"v" ~index:7
    (Interface.make (Vec.make 10 0) Orient.north);
  let r' = Expand.run ~mode:`Collect tbl a in
  Format.printf "@.%a@." Expand.pp_report r';
  match r'.Expand.r_defects with
  | [] ->
    let cell = Expand.mk_cell tbl "repaired" a in
    Format.printf "@.expanded %d instances into cell %s@."
      (List.length (Cell.instances cell))
      cell.Cell.cname
  | _ ->
    Format.eprintf "repair failed?!@.";
    exit 1

let doctor_cmd =
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Demonstrate expansion diagnostics: collect every defect of a \
          broken connectivity graph, repair the interface table, re-expand")
    Term.(const doctor $ const ())

(* Input errors that escape every command's own handling print their
   message and exit 1: a CIF that does not parse, and one whose symbols
   chain too deep ([Flatten.Depth_exceeded]), which parses fine and
   fails at its first flatten, inside whichever pass runs first.
   Anything else is a bug, reported as cmdliner reports one. *)
let () =
  let info = Cmd.info "rsg" ~version:"1.0" ~doc:"Regular Structure Generator" in
  let cmd =
    Cmd.group info
      [ generate_cmd; multiplier_cmd; pla_cmd; rom_cmd; decoder_cmd;
        place_cmd;
        sim_cmd; stats_cmd; compact_cmd; masks_cmd; drc_cmd; erc_cmd;
        lint_cmd; batch_cmd; cache_cmd; serve_cmd; client_cmd;
        doctor_cmd ]
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Cif.Parse_error { line; message } ->
      Format.eprintf "Cif parse error, line %d: %s@." line message;
      1
    | exception Flatten.Depth_exceeded { cell; max_depth } ->
      Format.eprintf
        "%s: instances nest deeper than %d levels (an instance cycle?)@." cell
        max_depth;
      1
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Format.eprintf "rsg: internal error, uncaught exception:@\n%s@\n%s@."
        (Printexc.to_string e)
        (Printexc.raw_backtrace_to_string bt);
      Cmd.Exit.internal_error)
