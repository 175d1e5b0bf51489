type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- parsing -------------------------------------------------------- *)

exception Fail of string

let max_depth = 128

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add b cp =
    (* encode one code point; surrogate pairs were already combined *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'u' ->
           advance ();
           let cp = hex4 () in
           let cp =
             if cp >= 0xD800 && cp <= 0xDBFF then begin
               (* high surrogate: require the low half *)
               if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                 advance (); advance ();
                 let lo = hex4 () in
                 if lo < 0xDC00 || lo > 0xDFFF then fail "bad surrogate pair";
                 0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
               end
               else fail "lone high surrogate"
             end
             else if cp >= 0xDC00 && cp <= 0xDFFF then fail "lone low surrogate"
             else cp
           in
           utf8_add b cp
         | _ -> fail "bad escape"));
        loop ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char b c; advance (); loop ()
    in
    loop ()
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "bad number"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal (expected " ^ word ^ ")")
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> advance (); String (string_body ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          expect '"';
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); List [])
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* ---- serialisation -------------------------------------------------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let to_string v =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f when Float.is_finite f ->
      (* %.17g round-trips every double; a shorter precision is used
         when it reads back the same *)
      let rec shortest p =
        let s = Printf.sprintf "%.*g" p f in
        if p = 17 || float_of_string s = f then s else shortest (p + 1)
      in
      Buffer.add_string b (shortest 15)
    | Float _ -> Buffer.add_string b "null"
    | String s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit x)
        xs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          emit x)
        fields;
      Buffer.add_char b '}'
  in
  emit v;
  Buffer.contents b

(* ---- accessors ------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None

let mem_string k v = Option.bind (member k v) to_string_opt
let mem_int k v = Option.bind (member k v) to_int_opt
let mem_bool k v = Option.bind (member k v) to_bool_opt
