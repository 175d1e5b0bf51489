open Rsg_layout
open Rsg_core
open Rsg_lang

type severity = Error | Warning | Info

type span = { s_line : int; s_col : int; s_end_line : int; s_end_col : int }

type t = {
  code : string;
  severity : severity;
  file : string option;
  line : int option;
  span : span option;
  message : string;
  section : string;
}

type report = {
  r_source : string;
  r_checked : int;
  r_diags : t list;
}

(* The code table: (code, severity, title, thesis section).  Codes are
   stable — tooling and the mutation self-checks key on them. *)
let all_codes =
  [ ("L100", Error, "syntax-error", "Appendix A");
    ("L101", Error, "unbound-variable", "Table 4.1");
    ("L102", Warning, "unused-local", "section 4.2");
    ("L103", Warning, "unused-procedure", "section 4.2");
    ("L104", Error, "arity-mismatch", "section 4.2");
    ("L105", Warning, "scalar-array-misuse", "Appendix A");
    ("L106", Warning, "duplicate-binding", "section 4.2");
    ("L107", Warning, "subcell-binding", "section 4.2");
    ("L108", Error, "unknown-callee", "section 4.5");
    ("L109", Error, "duplicate-cell", "section 4.4.3");
    ("L110", Error, "instance-cycle", "section 2.1");
    ("L201", Error, "unreachable-node", "section 3.1");
    ("L202", Warning, "redundant-edge", "section 3.1");
    ("L203", Info, "undirected-ambiguity", "section 3.4");
    ("L204", Error, "undeclared-interface", "section 2.4");
    ("L205", Error, "overconstrained-cycle", "section 3.4");
    ("L206", Warning, "duplicate-edge", "section 3.1");
    ("L207", Error, "conflicting-declaration", "section 2.4");
    ("L208", Warning, "dead-interface", "section 2.4");
    ("E300", Error, "supply-short", "EXCL flow");
    ("E301", Warning, "floating-gate", "EXCL flow");
    ("E302", Warning, "undriven-net", "EXCL flow");
    ("E303", Warning, "dangling-device", "EXCL flow");
    ("E304", Warning, "fanout-limit", "EXCL flow");
    ("E305", Warning, "no-rail-path", "EXCL flow");
    ("E306", Info, "rails-absent", "EXCL flow") ]

let lookup code =
  List.find_opt (fun (c, _, _, _) -> String.equal c code) all_codes

(* unknown codes count as errors *)
let severity_of_code code =
  match lookup code with Some (_, s, _, _) -> s | None -> Error

let section_of_code code =
  match lookup code with Some (_, _, _, s) -> s | None -> "?"

let title_of_code code =
  match lookup code with Some (_, _, t, _) -> t | None -> "unknown"

let make ?severity ?file ?line ?span code fmt =
  Format.kasprintf
    (fun message ->
      { code;
        severity =
          (match severity with
          | Some s -> s
          | None -> severity_of_code code);
        file;
        line = (match (line, span) with
          | Some l, _ -> Some l
          | None, Some s -> Some s.s_line
          | None, None -> None);
        span;
        message;
        section = section_of_code code })
    fmt

let of_exn ?file = function
  | Sexp.Parse_error { line; message } ->
    Some (make ?file ~line "L100" "%s" message)
  | Parser.Syntax_error msg -> Some (make ?file "L100" "%s" msg)
  | Db.Duplicate_cell name ->
    Some (make ?file "L109" "duplicate cell name %s in the cell table" name)
  | Cell.Instance_cycle name ->
    Some (make ?file "L110" "instance cycle through cell %s" name)
  | Interface_table.Conflict { from; into; index } ->
    Some
      (make ?file "L207"
         "conflicting declaration for interface (%s, %s, %d)" from into index)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Source excerpts                                                    *)
(* ------------------------------------------------------------------ *)

(* Both lint (file:line diagnostics over design text) and the ERC
   report printer render cited positions through this one helper, so
   the edge cases — zero-width spans, positions past the end of the
   text, spans crossing lines — are handled (and tested) in one
   place. *)
let excerpt ~text (s : span) =
  let lines =
    (* keep trailing empty line out: "a\n" is one line *)
    String.split_on_char '\n' text
  in
  let lines =
    match List.rev lines with "" :: tl -> List.rev tl | _ -> lines
  in
  let n_lines = List.length lines in
  let buf = Buffer.create 128 in
  if n_lines = 0 || s.s_line > n_lines then
    Buffer.add_string buf
      (Printf.sprintf "%4d | <past end of input (%d line%s)>" s.s_line n_lines
         (if n_lines = 1 then "" else "s"))
  else begin
    (* normalise: clamp the end to the text, order the endpoints *)
    let e_line, e_col =
      if s.s_end_line < s.s_line
         || (s.s_end_line = s.s_line && s.s_end_col < s.s_col)
      then (s.s_line, s.s_col)
      else (min s.s_end_line n_lines, s.s_end_col)
    in
    let nth l = List.nth lines (l - 1) in
    let render l =
      let src = nth l in
      let len = String.length src in
      let from = if l = s.s_line then min s.s_col len else 0 in
      let to_ = if l = e_line then min e_col len else len in
      let from = min from to_ in
      Buffer.add_string buf (Printf.sprintf "%4d | %s\n" l src);
      Buffer.add_string buf "     | ";
      Buffer.add_string buf (String.make from ' ');
      if to_ = from then
        (* zero-width span: a single caret at the position *)
        Buffer.add_char buf '^'
      else Buffer.add_string buf (String.make (to_ - from) '^')
    in
    let last = min e_line (s.s_line + 3) in
    for l = s.s_line to last do
      if l > s.s_line then Buffer.add_char buf '\n';
      render l
    done;
    if e_line > last then
      Buffer.add_string buf
        (Printf.sprintf "\n     | ... %d more line%s" (e_line - last)
           (if e_line - last = 1 then "" else "s"))
  end;
  Buffer.contents buf

let compare_diag a b =
  let line d = match d.line with Some l -> l | None -> max_int in
  let c = Int.compare (line a) (line b) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c else String.compare a.message b.message

let count sev diags =
  List.length (List.filter (fun d -> d.severity = sev) diags)

let report ~source ~checked diags =
  let r_diags = List.sort compare_diag diags in
  Rsg_obs.Obs.count ~n:(List.length r_diags) "lint.diags";
  Rsg_obs.Obs.count ~n:(count Error r_diags) "lint.errors";
  { r_source = source; r_checked = checked; r_diags }

let errors r = List.filter (fun d -> d.severity = Error) r.r_diags

let warnings r = List.filter (fun d -> d.severity = Warning) r.r_diags

let clean r = errors r = []

let codes r =
  List.sort_uniq String.compare (List.map (fun d -> d.code) r.r_diags)

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_severity ppf s = Format.pp_print_string ppf (severity_name s)

let pp ppf d =
  (match (d.file, d.line, d.span) with
  | Some f, _, Some s -> Format.fprintf ppf "%s:%d.%d: " f s.s_line s.s_col
  | Some f, Some l, None -> Format.fprintf ppf "%s:%d: " f l
  | Some f, None, None -> Format.fprintf ppf "%s: " f
  | None, _, Some s -> Format.fprintf ppf "line %d.%d: " s.s_line s.s_col
  | None, Some l, None -> Format.fprintf ppf "line %d: " l
  | None, None, None -> ());
  Format.fprintf ppf "%a %s [%s] %s (%s)" pp_severity d.severity d.code
    (title_of_code d.code) d.message d.section

let pp_report ppf r =
  Format.fprintf ppf "lint %s: %d checked, %d error(s), %d warning(s), %d note(s)"
    r.r_source r.r_checked (count Error r.r_diags) (count Warning r.r_diags)
    (count Info r.r_diags);
  List.iter (fun d -> Format.fprintf ppf "@\n  %a" pp d) r.r_diags;
  Format.fprintf ppf "@."

let report_to_json r =
  let module Json = Rsg_obs.Json in
  let opt f = function Some x -> f x | None -> Json.Null in
  let diag d =
    Json.Obj
      [ ("code", Json.String d.code);
        ("severity", Json.String (severity_name d.severity));
        ("file", opt (fun f -> Json.String f) d.file);
        ("line", opt (fun l -> Json.Int l) d.line);
        ( "span",
          opt
            (fun s ->
              Json.List
                (List.map (fun i -> Json.Int i)
                   [ s.s_line; s.s_col; s.s_end_line; s.s_end_col ]))
            d.span );
        ("message", Json.String d.message);
        ("section", Json.String d.section) ]
  in
  Json.Obj
    [ ("source", Json.String r.r_source);
      ("checked", Json.Int r.r_checked);
      ("errors", Json.Int (count Error r.r_diags));
      ("warnings", Json.Int (count Warning r.r_diags));
      ("infos", Json.Int (count Info r.r_diags));
      ("diagnostics", Json.List (List.map diag r.r_diags)) ]
