open Rsg_layout
module Store = Rsg_store.Store
module Batch = Rsg_store.Batch

(* The CLI's original parser reported errors by exiting; a resident
   daemon cannot, so this version threads a local exception through
   the same structure and catches it into a [result] at the edges. *)
exception Spec_error of string

let fail lineno msg = raise (Spec_error (Printf.sprintf "line %d: %s" lineno msg))

let read_file lineno path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | s -> s
  | exception Sys_error msg -> fail lineno ("cannot read " ^ path ^ ": " ^ msg)

let split_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | [ _ ] -> fail lineno "expected NAME KIND [key=value ...]"
  | name :: kind :: kvs ->
    let assoc =
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
          | None -> fail lineno ("not key=value: " ^ kv))
        kvs
    in
    Some (name, kind, assoc)

let job_of lineno name kind assoc =
  let geti key default =
    match List.assoc_opt key assoc with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail lineno (key ^ " is not an integer: " ^ v))
  in
  let ints_of key v =
    String.split_on_char ',' v
    |> List.map (fun s ->
           match int_of_string_opt (String.trim s) with
           | Some n -> n
           | None -> fail lineno (key ^ " has a bad integer: " ^ s))
  in
  let design, params, label, gen =
    match kind with
    | "multiplier" ->
      let size = geti "size" 8 in
      if size < 1 || size > 64 then fail lineno "size must be in 1..64";
      ( "builtin:multiplier\n" ^ Rsg_mult.Design_file.text,
        Rsg_mult.Sample_lib.param_file ~xsize:size ~ysize:size,
        Printf.sprintf "multiplier %dx%d" size size,
        fun () ->
          (Rsg_mult.Layout_gen.generate ~xsize:size ~ysize:size ())
            .Rsg_mult.Layout_gen.whole )
    | "pla" ->
      let rows_text =
        match (List.assoc_opt "table" assoc, List.assoc_opt "rows" assoc) with
        | Some path, None -> read_file lineno path
        | None, Some rows ->
          String.split_on_char ',' rows
          |> List.map (fun r ->
                 match String.split_on_char ':' r with
                 | [ i; o ] -> i ^ " " ^ o
                 | _ -> fail lineno ("bad row: " ^ r))
          |> String.concat "\n"
        | _ -> fail lineno "pla needs table=FILE or rows=IN:OUT,..."
      in
      let fold = List.assoc_opt "fold" assoc = Some "true" in
      let rows =
        rows_text |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ i; o ] when i <> "" -> Some (i, o)
               | _ -> None)
      in
      if rows = [] then fail lineno "pla has no rows";
      (* a bad row is a parse error here, never a failed job later *)
      let tt =
        match Rsg_pla.Truth_table.of_strings rows with
        | tt -> tt
        | exception Rsg_pla.Truth_table.Malformed msg -> fail lineno msg
      in
      ( "builtin:pla\n" ^ Rsg_pla.Pla_design_file.text,
        Printf.sprintf "fold=%b\n%s" fold rows_text,
        Printf.sprintf "pla %s" name,
        fun () ->
          if fold then (Rsg_pla.Folding.generate tt).Rsg_pla.Folding.cell
          else (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell )
    | "rom" ->
      let words =
        match (List.assoc_opt "data" assoc, List.assoc_opt "words" assoc) with
        | Some path, None ->
          read_file lineno path |> String.split_on_char '\n'
          |> List.filter_map (fun l ->
                 let s = String.trim l in
                 if s = "" then None else Some s)
          |> List.map (fun s ->
                 match int_of_string_opt s with
                 | Some n -> n
                 | None -> fail lineno ("bad word: " ^ s))
        | None, Some ws -> ints_of "words" ws
        | _ -> fail lineno "rom needs data=FILE or words=W,W,..."
      in
      if words = [] then fail lineno "rom has no words";
      let word_bits = geti "word-bits" 8 in
      (* the checks Rom.generate makes, so a bad ROM fails to parse *)
      let n_words = List.length words in
      if n_words < 2 || n_words land (n_words - 1) <> 0 then
        fail lineno "rom needs a power-of-two number of words, at least 2";
      if word_bits < 1 || word_bits > 62 then
        fail lineno "word-bits must be in 1..62";
      List.iter
        (fun w ->
          if w < 0 || w >= 1 lsl word_bits then
            fail lineno
              (Printf.sprintf "word %d does not fit in %d bits" w word_bits))
        words;
      ( "builtin:rom",
        Printf.sprintf "word_bits=%d\n%s" word_bits
          (String.concat "\n" (List.map string_of_int words)),
        Printf.sprintf "rom %d words x %d bits" (List.length words) word_bits,
        fun () ->
          (Rsg_pla.Rom.generate ~word_bits (Array.of_list words))
            .Rsg_pla.Rom.pla.Rsg_pla.Gen.cell )
    | "decoder" ->
      let n = geti "n" 3 in
      if n < 1 || n > 12 then fail lineno "n must be in 1..12";
      ( "builtin:decoder",
        Printf.sprintf "n=%d" n,
        Printf.sprintf "decoder %d" n,
        fun () -> (Rsg_pla.Gen.generate_decoder n).Rsg_pla.Gen.cell )
    | "ram" ->
      let words = geti "words" 8 and bits = geti "bits" 4 in
      if words < 1 || bits < 1 then fail lineno "words and bits must be >= 1";
      ( "builtin:ram",
        Printf.sprintf "words=%d bits=%d" words bits,
        Printf.sprintf "ram %dx%d" words bits,
        fun () ->
          (Rsg_ram.Ram_gen.generate ~words ~bits ()).Rsg_ram.Ram_gen.cell )
    | other -> fail lineno ("unknown kind: " ^ other)
  in
  {
    Batch.j_name = name;
    j_kind = kind;
    j_key = Store.key ~design ~params ();
    j_label = label;
    j_gen = gen;
  }

let parse_line lineno line =
  (* the inner match is the scrutinee of the outer one, so [Spec_error]
     raised by [job_of] (branch body) is caught too — an exception
     pattern on the direct match would only cover [split_line] *)
  match
    match split_line lineno line with
    | None -> None
    | Some (name, kind, assoc) -> Some (job_of lineno name kind assoc)
  with
  | parsed -> Ok parsed
  | exception Spec_error msg -> Error msg

let parse_manifest text =
  let rec collect lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line lineno line with
      | Error _ as e -> e
      | Ok None -> collect (lineno + 1) acc rest
      | Ok (Some job) -> collect (lineno + 1) (job :: acc) rest)
  in
  match collect 1 [] (String.split_on_char '\n' text) with
  | Error _ as e -> e
  | Ok [] -> Error "manifest has no jobs"
  | Ok jobs -> (
    let seen = Hashtbl.create 16 in
    let dup =
      List.find_opt
        (fun j ->
          if Hashtbl.mem seen j.Batch.j_name then true
          else (Hashtbl.add seen j.Batch.j_name (); false))
        jobs
    in
    match dup with
    | Some j -> Error ("duplicate job name: " ^ j.Batch.j_name)
    | None -> Ok jobs)

(* ---- targets -------------------------------------------------------- *)

let top_cell_of_cif path =
  let r = Cif.read_file path in
  match r.Cif.top with
  | Some top -> (
    match Cell.instances top with [ i ] -> i.Cell.def | _ -> top)
  | None -> (
    let called = Hashtbl.create 16 in
    List.iter
      (fun c ->
        List.iter
          (fun (i : Cell.instance) ->
            Hashtbl.replace called i.Cell.def.Cell.cname ())
          (Cell.instances c))
      (Db.cells r.Cif.db);
    match
      List.filter
        (fun c -> not (Hashtbl.mem called c.Cell.cname))
        (Db.cells r.Cif.db)
    with
    | [ c ] -> c
    | _ -> failwith "cannot determine the top cell")

let target_cell spec =
  match
    match spec with
    | "pla" ->
      let tt =
        Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]
      in
      (Rsg_pla.Gen.generate tt).Rsg_pla.Gen.cell
    | "ram" ->
      (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell
    | "multiplier" ->
      (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
        .Rsg_mult.Layout_gen.whole
    | "decoder" -> (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell
    | path when Sys.file_exists path -> top_cell_of_cif path
    | other ->
      raise
        (Spec_error
           (other ^ " is neither a file nor a builtin (pla, ram, multiplier, decoder)"))
  with
  | cell -> Ok cell
  | exception Spec_error msg -> Error msg
  | exception Sys_error msg -> Error msg
  | exception Failure msg -> Error msg
  | exception Cif.Parse_error { line; message } ->
    Error (Printf.sprintf "Cif parse error, line %d: %s" line message)

(* ---- builtin lint designs ------------------------------------------ *)

module Design_lint = Rsg_lint.Design_lint

let mult_lint_config ~size =
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let params =
    Rsg_lang.Param.parse
      (Rsg_mult.Sample_lib.param_file ~xsize:size ~ysize:size)
  in
  Design_lint.config_of_params
    ~cells:(Db.names sample.Rsg_core.Sample.db)
    params

let pla_lint_config ~ninputs ~noutputs ~nterms =
  let sample, _ = Rsg_pla.Pla_cells.build () in
  let params =
    Rsg_lang.Param.parse
      (Rsg_pla.Pla_design_file.param_file ~ninputs ~noutputs ~nterms
         ~name:"pla")
  in
  let cfg =
    Design_lint.config_of_params ~cells:(Db.names sample.Rsg_core.Sample.db)
      params
  in
  (* the encoding tables are host-installed globals (delayed binding) *)
  { cfg with Design_lint.globals = "lits" :: "outs" :: cfg.Design_lint.globals }

let lint_builtin = function
  | "mult" ->
    let cfg = mult_lint_config ~size:8 in
    Some ("mult.def(builtin)", cfg, Rsg_mult.Design_file.text)
  | "pla" ->
    Some
      ( "pla.def(builtin)",
        pla_lint_config ~ninputs:3 ~noutputs:2 ~nterms:4,
        Rsg_pla.Pla_design_file.text )
  | _ -> None
