type t = {
  directives : (string * string) list;
  bindings : (string * Value.t) list;
}

exception Param_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Param_error { line; message })) fmt

let parse_value line raw =
  let raw = String.trim raw in
  if raw = "" then fail line "empty value"
  else if raw.[0] = '"' then
    if String.length raw >= 2 && raw.[String.length raw - 1] = '"' then
      Value.Vstr (String.sub raw 1 (String.length raw - 2))
    else fail line "unterminated string value"
  else
    match int_of_string_opt raw with
    | Some n -> Value.Vint n
    | None -> (
      match raw with
      | "true" -> Value.Vbool true
      | "false" -> Value.Vbool false
      | _ -> Value.Vsym raw)

let parse src =
  let directives = ref [] and bindings = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let s = String.trim raw in
      if s = "" || s.[0] = ';' || s.[0] = '#' then ()
      else if s.[0] = '.' then
        match String.index_opt s ':' with
        | Some i ->
          let key = String.sub s 1 (i - 1) in
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          directives := (String.trim key, String.trim v) :: !directives
        | None -> fail line "directive missing ':'"
      else
        match String.index_opt s '=' with
        | Some i ->
          let key = String.trim (String.sub s 0 i) in
          if key = "" then fail line "binding missing a name";
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          bindings := (key, parse_value line v) :: !bindings
        | None -> fail line "expected name=value or .directive:value")
    lines;
  { directives = List.rev !directives; bindings = List.rev !bindings }

(* read to end of file rather than by length, so pipes work too *)
let parse_file path = parse (In_channel.with_open_text path In_channel.input_all)

let directive t key = List.assoc_opt key t.directives

let binding t key = List.assoc_opt key t.bindings
