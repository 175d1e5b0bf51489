open Rsg_geom

type rule =
  | Width of Layer.t * int
  | Spacing of Layer.t * Layer.t * int
  | Enclosure of Layer.t * Layer.t list * int
  | Overlap of Layer.t * Layer.t * int

type t = { deck_name : string; rules : rule list }

exception Parse_error of int * string

let make ?(name = "deck") rules = { deck_name = name; rules }

let name t = t.deck_name

let rules t = t.rules

let norm_pair a b = if Layer.compare a b <= 0 then (a, b) else (b, a)

let width t layer =
  List.find_map
    (function Width (l, w) when Layer.equal l layer -> Some w | _ -> None)
    t.rules

let spacing t a b =
  let key = norm_pair a b in
  List.find_map
    (function
      | Spacing (x, y, s) when norm_pair x y = key -> Some s
      | _ -> None)
    t.rules

let enclosures t =
  List.filter_map
    (function Enclosure (i, cs, m) -> Some (i, cs, m) | _ -> None)
    t.rules

let overlaps t =
  List.filter_map
    (function Overlap (a, b, k) -> Some (a, b, k) | _ -> None)
    t.rules

(* The default lambda deck for the NMOS layers the generators draw.
   Calibrated against the geometry the PLA/RAM/multiplier generators
   and the compactor actually emit (which is the point: the deck
   encodes the sample library's own discipline, and the checker then
   holds every generated and compacted layout to it):

   - metal pitch in the multiplier's drawn cells is 2 lambda of space
     for 3 of width, so metal-metal space is 2, not the conservative 3
     the x-compactor uses as its packing gap;
   - the RAM bit cell draws 3-lambda contacts, so the contact width
     rule is 3;
   - contacts here are the {e synthetic} contact layer of section 6.5
     (the full structure including its surround, split into cuts by
     [Expand_contact] later), so their enclosure margin inside the
     structures they dock to is 0: flush docking is legal, sticking
     out is not.  The cover union includes the personalisation mask
     layers (implant, buried, overglass) because the multiplier's
     sample library marks cell programming by a mask box with a
     contact inside it and no conductor underneath. *)
let default =
  make ~name:"nmos-lambda"
    [ Width (Layer.Metal, 3);
      Width (Layer.Poly, 2);
      Width (Layer.Diffusion, 2);
      Width (Layer.Contact, 3);
      Width (Layer.Contact_cut, 2);
      Width (Layer.Implant, 2);
      Width (Layer.Buried, 2);
      Spacing (Layer.Metal, Layer.Metal, 2);
      Spacing (Layer.Poly, Layer.Poly, 2);
      Spacing (Layer.Diffusion, Layer.Diffusion, 3);
      Spacing (Layer.Poly, Layer.Diffusion, 1);
      Spacing (Layer.Contact, Layer.Contact, 2);
      Spacing (Layer.Contact_cut, Layer.Contact_cut, 2);
      Spacing (Layer.Implant, Layer.Implant, 2);
      Spacing (Layer.Buried, Layer.Buried, 2);
      Enclosure
        ( Layer.Contact,
          [ Layer.Metal; Layer.Poly; Layer.Diffusion; Layer.Implant;
            Layer.Buried; Layer.Overglass ],
          0 );
      Enclosure
        (Layer.Contact_cut, [ Layer.Metal; Layer.Poly; Layer.Diffusion ], 0) ]

let of_compact_rules ?(name = "compactor-rules") (r : Rsg_compact.Rules.t) =
  let module R = Rsg_compact.Rules in
  let widths =
    List.filter_map
      (fun l ->
        let w = R.min_width r l in
        if w > 1 then Some (Width (l, w)) else None)
      Layer.all
  in
  let spacings =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if Layer.compare a b <= 0 then
              Option.map (fun s -> Spacing (a, b, s)) (R.spacing r a b)
            else None)
          Layer.all)
      Layer.all
  in
  make ~name (widths @ spacings)

(* ---- the rule DSL ------------------------------------------------- *)
(*
   One rule per line; '#' starts a comment.  Layer names as in
   {!Layer.name}; enclosure cover layers are '|'-separated.

     deck nmos-lambda
     width metal 3
     spacing metal metal 2
     enclosure contact metal|poly|diffusion 0
     overlap poly diffusion 2
*)

let layer_exn lno s =
  match Layer.of_name s with
  | Some l -> l
  | None -> raise (Parse_error (lno, "unknown layer " ^ s))

let int_exn lno s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> n
  | _ -> raise (Parse_error (lno, "expected a non-negative integer, got " ^ s))

let covers_exn lno s =
  match String.split_on_char '|' s with
  | [] -> raise (Parse_error (lno, "empty cover-layer list"))
  | parts -> List.map (layer_exn lno) parts

let of_string text =
  let name = ref "deck" and rules = ref [] in
  List.iteri
    (fun i line ->
      let lno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some k -> String.sub line 0 k
        | None -> line
      in
      match
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun s -> s <> "")
      with
      | [] -> ()
      | [ "deck"; n ] -> name := n
      | [ "width"; l; w ] -> rules := Width (layer_exn lno l, int_exn lno w) :: !rules
      | [ "spacing"; a; b; s ] ->
        rules := Spacing (layer_exn lno a, layer_exn lno b, int_exn lno s) :: !rules
      | [ "enclosure"; inner; covers; m ] ->
        rules :=
          Enclosure (layer_exn lno inner, covers_exn lno covers, int_exn lno m)
          :: !rules
      | [ "overlap"; a; b; k ] ->
        rules := Overlap (layer_exn lno a, layer_exn lno b, int_exn lno k) :: !rules
      | w :: _ -> raise (Parse_error (lno, "unknown rule " ^ w)))
    (String.split_on_char '\n' text);
  make ~name:!name (List.rev !rules)

(* read to end of file rather than by length, so pipes work too *)
let read_file path = of_string (In_channel.with_open_text path In_channel.input_all)

let pp_rule ppf = function
  | Width (l, w) -> Format.fprintf ppf "width %s %d" (Layer.name l) w
  | Spacing (a, b, s) ->
    Format.fprintf ppf "spacing %s %s %d" (Layer.name a) (Layer.name b) s
  | Enclosure (i, cs, m) ->
    Format.fprintf ppf "enclosure %s %s %d" (Layer.name i)
      (String.concat "|" (List.map Layer.name cs))
      m
  | Overlap (a, b, k) ->
    Format.fprintf ppf "overlap %s %s %d" (Layer.name a) (Layer.name b) k

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("deck " ^ t.deck_name ^ "\n");
  List.iter
    (fun r -> Buffer.add_string buf (Format.asprintf "%a\n" pp_rule r))
    t.rules;
  Buffer.contents buf

(* The largest distance any rule of the deck can see across: geometry
   farther apart than this can never interact under the deck.  This is
   the halo of the hierarchical checker's context windows. *)
let halo t =
  List.fold_left
    (fun acc r ->
      max acc
        (match r with
        | Width (_, w) -> w
        | Spacing (_, _, s) -> s
        | Enclosure (_, _, m) -> m
        | Overlap (_, _, k) -> k))
    1 t.rules

let digest t = Digest.string (to_string t)

(* Stable rule identifier, the key of a violation report. *)
let rule_id = function
  | Width (l, _) -> "width." ^ Layer.name l
  | Spacing (a, b, _) ->
    let a, b = norm_pair a b in
    "spacing." ^ Layer.name a ^ "." ^ Layer.name b
  | Enclosure (i, _, _) -> "enclosure." ^ Layer.name i
  | Overlap (a, b, _) -> "overlap." ^ Layer.name a ^ "." ^ Layer.name b
