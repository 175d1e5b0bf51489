open Rsg_geom
open Rsg_layout
module Drc = Rsg_drc.Drc
module Diag = Rsg_lint.Diag
module Erc = Rsg_erc.Erc

let format_version = 6

let magic = "RSGL"

type error =
  | Bad_magic
  | Bad_version of { found : int; expected : int }
  | Truncated of string
  | Checksum_mismatch of { stored : int32; computed : int32 }
  | Malformed of string

exception Error of error

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "not a layout database (bad magic)"
  | Bad_version { found; expected } ->
    Format.fprintf ppf "format version %d, this build reads %d" found expected
  | Truncated what -> Format.fprintf ppf "truncated while reading %s" what
  | Checksum_mismatch { stored; computed } ->
    Format.fprintf ppf "checksum mismatch (stored %08lx, computed %08lx)"
      stored computed
  | Malformed what -> Format.fprintf ppf "malformed payload: %s" what

type proto = {
  p_hash : string;
  p_cell : Cell.t;
  p_reused : bool;
  p_reports : (string * Drc.cached_level) list;
  p_ercs : (string * Erc.cached_verdict) list;
  p_places : (string * int) list;
}

type entry = {
  e_label : string;
  e_cell : Cell.t;
  e_protos : proto array;
}

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected), table-driven                       *)
(* ------------------------------------------------------------------ *)

(* Computed over native ints — the running value never exceeds 32 bits,
   and unboxed arithmetic keeps the checksum out of the warm-load
   profile (boxed Int32 steps cost several allocations per byte).
   Slicing-by-4: four derived tables let the loop fold one 32-bit word
   per step instead of one byte.  The tables are built at
   initialisation, not lazily: batch jobs verify and decode entries on
   several domains at once, and a lazy forced from two domains at once
   raises [Lazy.Undefined]. *)
let crc_tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c :=
            if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1)
            else !c lsr 1
        done;
        !c)
  in
  let next t n = t0.(t.(n) land 0xff) lxor (t.(n) lsr 8) in
  let t1 = Array.init 256 (next t0) in
  let t2 = Array.init 256 (next t1) in
  let t3 = Array.init 256 (next t2) in
  (t0, t1, t2, t3)

let crc32 s =
  let t0, t1, t2, t3 = crc_tables in
  let len = String.length s in
  let c = ref 0xffffffff in
  let i = ref 0 in
  while !i + 4 <= len do
    let b0 = Char.code (String.unsafe_get s !i)
    and b1 = Char.code (String.unsafe_get s (!i + 1))
    and b2 = Char.code (String.unsafe_get s (!i + 2))
    and b3 = Char.code (String.unsafe_get s (!i + 3)) in
    let x = !c lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
    c :=
      t3.(x land 0xff)
      lxor t2.((x lsr 8) land 0xff)
      lxor t1.((x lsr 16) land 0xff)
      lxor t0.(x lsr 24);
    i := !i + 4
  done;
  while !i < len do
    c :=
      t0.((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xffffffff)

(* ------------------------------------------------------------------ *)
(* Primitive writers                                                  *)
(* ------------------------------------------------------------------ *)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (Int32.to_int (Int32.logand v 0xffl)));
  Buffer.add_char buf
    (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v 8) 0xffl)));
  Buffer.add_char buf
    (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v 16) 0xffl)));
  Buffer.add_char buf
    (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v 24) 0xffl)))

(* LEB128 on non-negative ints *)
let rec put_uint buf v =
  if v < 0 then invalid_arg "Codec.put_uint"
  else if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
    put_uint buf (v lsr 7)
  end

(* zigzag: small magnitudes of either sign stay short *)
let put_int buf v = put_uint buf ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

let put_str buf s =
  put_uint buf (String.length s);
  Buffer.add_string buf s

(* MD5 digests (subtree hashes, deck digests) are a fixed 16 bytes, so
   they are written raw, without a length prefix. *)
let put_raw16 buf s =
  if String.length s <> 16 then invalid_arg "Codec.put_raw16";
  Buffer.add_string buf s

let put_vec buf (v : Vec.t) =
  put_int buf v.Vec.x;
  put_int buf v.Vec.y

let put_box buf (b : Box.t) =
  put_int buf b.Box.xmin;
  put_int buf b.Box.ymin;
  put_int buf b.Box.xmax;
  put_int buf b.Box.ymax

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                  *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int }

let byte r what =
  if r.pos >= String.length r.src then raise (Error (Truncated what))
  else begin
    let c = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c
  end

(* Hot in warm loads (four varints per box of the cell and prototype
   tables), so the common single-byte case takes one bounds check and
   no calls. *)
let get_uint r what =
  let src = r.src in
  let len = String.length src in
  let pos = r.pos in
  if pos >= len then raise (Error (Truncated what));
  let b = Char.code (String.unsafe_get src pos) in
  if b < 0x80 then begin
    r.pos <- pos + 1;
    b
  end
  else begin
    let acc = ref (b land 0x7f) in
    let shift = ref 7 in
    let p = ref (pos + 1) in
    let more = ref true in
    while !more do
      if !shift > Sys.int_size - 8 then
        raise (Error (Malformed (what ^ ": varint too wide")));
      if !p >= len then raise (Error (Truncated what));
      let b = Char.code (String.unsafe_get src !p) in
      incr p;
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then more := false
    done;
    r.pos <- !p;
    !acc
  end

let get_int r what =
  let z = get_uint r what in
  (z lsr 1) lxor (-(z land 1))

let get_str r what =
  let n = get_uint r what in
  if r.pos + n > String.length r.src then raise (Error (Truncated what))
  else begin
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s
  end

let get_vec r what =
  let x = get_int r what in
  let y = get_int r what in
  Vec.make x y

let get_box r what =
  let xmin = get_int r what in
  let ymin = get_int r what in
  let xmax = get_int r what in
  let ymax = get_int r what in
  if xmin > xmax || ymin > ymax then raise (Error (Malformed (what ^ ": inverted box")))
  else Box.make ~xmin ~ymin ~xmax ~ymax

let get_layer r what =
  let i = get_uint r what in
  match Layer.of_index_exn i with
  | l -> l
  | exception Invalid_argument _ ->
    raise (Error (Malformed (Printf.sprintf "%s: layer index %d" what i)))

let get_orient r what =
  let i = get_uint r what in
  match Orient.of_index i with
  | o -> o
  | exception Invalid_argument _ ->
    raise (Error (Malformed (Printf.sprintf "%s: orientation index %d" what i)))

(* ------------------------------------------------------------------ *)
(* Payload                                                            *)
(* ------------------------------------------------------------------ *)

let tag_box = 0
and tag_label = 1
and tag_instance = 2

(* One cell's (or prototype's) object list; [index_of] resolves an
   instance's definition to its table index — the cell table and the
   prototype table share this shape. *)
let put_objs buf index_of objs =
  put_uint buf (List.length objs);
  List.iter
    (fun obj ->
      match obj with
      | Cell.Obj_box (layer, b) ->
        put_uint buf tag_box;
        put_uint buf (Layer.to_index layer);
        put_box buf b
      | Cell.Obj_label l ->
        put_uint buf tag_label;
        put_str buf l.Cell.text;
        put_vec buf l.Cell.at
      | Cell.Obj_instance i ->
        put_uint buf tag_instance;
        put_uint buf (index_of i.Cell.def);
        put_uint buf (Orient.to_index i.Cell.orientation);
        put_vec buf i.Cell.point_of_call)
    objs

let put_cell buf index_of (c : Cell.t) =
  put_str buf c.Cell.cname;
  put_objs buf index_of (Cell.objects c)

(* ---- the prototype table ----------------------------------------- *)
(*
   The content-addressed section of a v2 entry: one record per
   distinct subtree digest, children before parents.  Each record
   carries the prototype's own objects only — instance calls reference
   the child's record by table index (i.e. by subtree hash), never
   inlined geometry — so the table stays proportional to the design's
   celltype definitions while still letting a reader recompose any
   prototype's full flat via Flatten.prototypes.  Per-deck cached DRC
   levels ride on each record, keyed by the deck digest.
*)

let put_violation buf (v : Drc.violation) =
  put_str buf v.Drc.v_rule;
  put_uint buf (List.length v.Drc.v_layers);
  List.iter (fun l -> put_uint buf (Layer.to_index l)) v.Drc.v_layers;
  put_uint buf (List.length v.Drc.v_boxes);
  List.iter (put_box buf) v.Drc.v_boxes;
  put_int buf v.Drc.v_required;
  (* measured values use zigzag: -1 marks unmet enclosure *)
  put_int buf v.Drc.v_actual

let put_level buf (l : Drc.cached_level) =
  put_uint buf (List.length l.Drc.cl_violations);
  List.iter
    (fun (v, n) ->
      put_violation buf v;
      put_uint buf n)
    l.Drc.cl_violations;
  put_uint buf l.Drc.cl_contexts;
  put_uint buf l.Drc.cl_distinct;
  put_uint buf l.Drc.cl_boxes

(* ---- cached ERC verdicts (version 4) ----------------------------- *)
(*
   Per-prototype electrical verdicts, keyed by the ERC config digest
   (name lists, fanout limit, strictness and rule deck): the censuses
   every level stores plus, for the root, the full diagnostic list.
   Severities are stored explicitly — [strict] bakes escalation into
   the record — while the thesis-section cross-reference is
   recomputed from the code table on read.
*)

let put_opt buf f = function
  | None -> put_uint buf 0
  | Some v ->
    put_uint buf 1;
    f v

let put_diag buf (d : Diag.t) =
  put_str buf d.Diag.code;
  put_uint buf
    (match d.Diag.severity with
    | Diag.Error -> 0
    | Diag.Warning -> 1
    | Diag.Info -> 2);
  put_opt buf (put_str buf) d.Diag.file;
  put_opt buf (put_int buf) d.Diag.line;
  put_opt buf
    (fun (s : Diag.span) ->
      put_int buf s.Diag.s_line;
      put_int buf s.Diag.s_col;
      put_int buf s.Diag.s_end_line;
      put_int buf s.Diag.s_end_col)
    d.Diag.span;
  put_str buf d.Diag.message

let put_verdict buf (v : Erc.cached_verdict) =
  put_uint buf v.Erc.cv_nets;
  put_uint buf v.Erc.cv_devices;
  put_uint buf v.Erc.cv_open;
  put_uint buf v.Erc.cv_rails;
  put_uint buf (List.length v.Erc.cv_diags);
  List.iter (put_diag buf) v.Erc.cv_diags

let put_proto buf index_of (p : proto) =
  put_raw16 buf p.p_hash;
  put_uint buf (if p.p_reused then 1 else 0);
  put_objs buf index_of (Cell.objects p.p_cell);
  put_uint buf (List.length p.p_reports);
  List.iter
    (fun (deck, lvl) ->
      put_raw16 buf deck;
      put_level buf lvl)
    p.p_reports;
  put_uint buf (List.length p.p_ercs);
  List.iter
    (fun (cfg, v) ->
      put_raw16 buf cfg;
      put_verdict buf v)
    p.p_ercs;
  put_uint buf (List.length p.p_places);
  List.iter
    (fun (key, area) ->
      put_raw16 buf key;
      put_uint buf area)
    p.p_places

let put_protos buf protos =
  put_uint buf (Array.length protos);
  (* proto instances reference the rebuilt cells of earlier records;
     resolve them by physical identity, exactly like the cell table *)
  let index = ref [] in
  Array.iteri (fun i p -> index := (p.p_cell, i) :: !index) protos;
  let index_of c = List.assq c !index in
  Array.iter (put_proto buf index_of) protos

let proto_table ?(reused = fun _ -> false) ?(reports = fun _ -> [])
    ?(ercs = fun _ -> []) ?(places = fun _ -> []) (protos : Flatten.protos) =
  let tbl : (string, Cell.t) Hashtbl.t = Hashtbl.create 32 in
  let out = ref [] in
  List.iter
    (fun c ->
      let h = Flatten.subtree_digest protos c in
      (* congruent celltypes share a digest and hence one record *)
      if not (Hashtbl.mem tbl h) then begin
        let hex = Digest.to_hex h in
        let copy = Cell.create hex in
        List.iter
          (fun obj ->
            match obj with
            | Cell.Obj_box (l, b) -> Cell.add_box copy l b
            | Cell.Obj_label l -> Cell.add_label copy l.Cell.text l.Cell.at
            | Cell.Obj_instance i ->
              let child =
                Hashtbl.find tbl (Flatten.subtree_digest protos i.Cell.def)
              in
              ignore
                (Cell.add_instance copy ~orient:i.Cell.orientation
                   ~at:i.Cell.point_of_call child))
          (Cell.objects c);
        Hashtbl.add tbl h copy;
        out :=
          { p_hash = h; p_cell = copy; p_reused = reused hex;
            p_reports = reports hex; p_ercs = ercs hex;
            p_places = places hex }
          :: !out
      end)
    (Flatten.protos_order protos);
  Array.of_list (List.rev !out)

(* Flattened boxes are written as coordinate deltas against the
   previous box (zigzag keeps either sign short): the flattener emits
   them with strong spatial locality, so most deltas fit one varint
   byte.  No reader decodes the section: {!decode} skips it and
   {!sections} counts its boxes. *)
let put_flat buf (f : Flatten.flat) =
  put_uint buf (Array.length f.Flatten.flat_boxes);
  let pxmin = ref 0 and pymin = ref 0 and pxmax = ref 0 and pymax = ref 0 in
  Array.iter
    (fun (layer, (b : Box.t)) ->
      put_uint buf (Layer.to_index layer);
      put_int buf (b.Box.xmin - !pxmin);
      put_int buf (b.Box.ymin - !pymin);
      put_int buf (b.Box.xmax - !pxmax);
      put_int buf (b.Box.ymax - !pymax);
      pxmin := b.Box.xmin;
      pymin := b.Box.ymin;
      pxmax := b.Box.xmax;
      pymax := b.Box.ymax)
    f.Flatten.flat_boxes;
  put_uint buf (Array.length f.Flatten.flat_labels);
  Array.iter
    (fun (text, at) ->
      put_str buf text;
      put_vec buf at)
    f.Flatten.flat_labels;
  match f.Flatten.flat_bbox with
  | None -> put_uint buf 0
  | Some b ->
    put_uint buf 1;
    put_box buf b

let encode ?flat ?(protos = [||]) ~label cell =
  let payload = Buffer.create 4096 in
  put_str payload label;
  (* the prototype table precedes the cell table so harvesting and
     cache statistics can stop after it, never touching the (large)
     remainder of the payload *)
  put_protos payload protos;
  (* physical identity: two same-named cells are kept apart and
     instance sharing survives the round trip *)
  let cells, index_of = Flatten.postorder cell in
  put_uint payload (List.length cells);
  List.iter (put_cell payload index_of) cells;
  (match flat with
  | None -> put_uint payload 0
  | Some f ->
    put_uint payload 1;
    (* length-prefixed so decode can skip the section *)
    let fbuf = Buffer.create 4096 in
    put_flat fbuf f;
    put_uint payload (Buffer.length fbuf);
    Buffer.add_buffer payload fbuf);
  let payload = Buffer.contents payload in
  let out = Buffer.create (String.length payload + 16) in
  Buffer.add_string out magic;
  put_u32 out (Int32.of_int format_version);
  put_u32 out (Int32.of_int (String.length payload));
  put_u32 out (crc32 payload);
  Buffer.add_string out payload;
  Buffer.contents out

(* Read one object list into [c]; instance definitions resolve to
   earlier entries of [cells] (children before parents, so a forward
   reference is malformed). *)
let get_objs r cells idx c =
  let n_objs = get_uint r "object count" in
  for _ = 1 to n_objs do
    match get_uint r "object tag" with
    | 0 ->
      let layer = get_layer r "box layer" in
      let b = get_box r "box" in
      Cell.add_box c layer b
    | 1 ->
      let text = get_str r "label text" in
      let at = get_vec r "label position" in
      Cell.add_label c text at
    | 2 ->
      let def_idx = get_uint r "instance def" in
      if def_idx >= idx then
        raise (Error (Malformed (Printf.sprintf "forward instance reference %d in cell %d" def_idx idx)));
      let orient = get_orient r "instance orientation" in
      let at = get_vec r "instance position" in
      ignore (Cell.add_instance c ~orient ~at cells.(def_idx))
    | t -> raise (Error (Malformed (Printf.sprintf "object tag %d" t)))
  done

let get_cell r cells idx =
  let name = get_str r "cell name" in
  let c = Cell.create name in
  get_objs r cells idx c;
  c

let get_raw16 r what =
  if r.pos + 16 > String.length r.src then raise (Error (Truncated what));
  let s = String.sub r.src r.pos 16 in
  r.pos <- r.pos + 16;
  s

(* [f] reads from the mutable reader, so elements must be produced
   strictly left to right — List.init's application order is not part
   of its contract. *)
let read_list n f =
  let rec go acc i = if i = n then List.rev acc else go (f () :: acc) (i + 1) in
  go [] 0

let get_bool r what =
  match get_uint r what with
  | 0 -> false
  | 1 -> true
  | f -> raise (Error (Malformed (Printf.sprintf "%s: flag %d" what f)))

let get_violation r =
  let v_rule = get_str r "violation rule" in
  let n_layers = get_uint r "violation layer count" in
  let v_layers = read_list n_layers (fun () -> get_layer r "violation layer") in
  let n_boxes = get_uint r "violation box count" in
  let v_boxes = read_list n_boxes (fun () -> get_box r "violation box") in
  let v_required = get_int r "violation required" in
  let v_actual = get_int r "violation actual" in
  { Drc.v_rule; v_layers; v_boxes; v_required; v_actual }

let get_level r =
  let n = get_uint r "level violation count" in
  let cl_violations =
    read_list n (fun () ->
        let v = get_violation r in
        let count = get_uint r "violation placement count" in
        (v, count))
  in
  let cl_contexts = get_uint r "level contexts" in
  let cl_distinct = get_uint r "level distinct" in
  let cl_boxes = get_uint r "level boxes" in
  { Drc.cl_violations; cl_contexts; cl_distinct; cl_boxes }

let get_opt r what f =
  match get_uint r what with
  | 0 -> None
  | 1 -> Some (f ())
  | v -> raise (Error (Malformed (Printf.sprintf "%s: option flag %d" what v)))

let get_diag r =
  let code = get_str r "diag code" in
  let severity =
    match get_uint r "diag severity" with
    | 0 -> Diag.Error
    | 1 -> Diag.Warning
    | 2 -> Diag.Info
    | s -> raise (Error (Malformed (Printf.sprintf "diag severity %d" s)))
  in
  let file = get_opt r "diag file" (fun () -> get_str r "diag file") in
  let line = get_opt r "diag line" (fun () -> get_int r "diag line") in
  let span =
    get_opt r "diag span" (fun () ->
        let s_line = get_int r "diag span" in
        let s_col = get_int r "diag span" in
        let s_end_line = get_int r "diag span" in
        let s_end_col = get_int r "diag span" in
        { Diag.s_line; s_col; s_end_line; s_end_col })
  in
  let message = get_str r "diag message" in
  { Diag.code; severity; file; line; span; message;
    section = Diag.section_of_code code }

let get_verdict r =
  let cv_nets = get_uint r "verdict nets" in
  let cv_devices = get_uint r "verdict devices" in
  let cv_open = get_uint r "verdict open" in
  let cv_rails = get_uint r "verdict rails" in
  let n = get_uint r "verdict diag count" in
  let cv_diags = read_list n (fun () -> get_diag r) in
  { Erc.cv_nets; cv_devices; cv_open; cv_rails; cv_diags }

(* [on_record] feeds the section accounting of {!sections}: byte spans
   of each record's geometry / DRC-report / ERC-verdict / place-eval
   parts, measured from the reader position. *)
let get_protos ?on_record r =
  let n = get_uint r "proto count" in
  let cells = Array.make (max n 1) (Cell.create "") in
  let out = Array.make n None in
  for i = 0 to n - 1 do
    let p0 = r.pos in
    let hash = get_raw16 r "proto hash" in
    let reused = get_bool r "proto reused" in
    let c = Cell.create (Digest.to_hex hash) in
    get_objs r cells i c;
    cells.(i) <- c;
    let p1 = r.pos in
    let n_reports = get_uint r "proto report count" in
    let reports =
      read_list n_reports (fun () ->
          let deck = get_raw16 r "report deck digest" in
          (deck, get_level r))
    in
    let p2 = r.pos in
    let n_ercs = get_uint r "proto erc count" in
    let ercs =
      read_list n_ercs (fun () ->
          let cfg = get_raw16 r "erc config digest" in
          (cfg, get_verdict r))
    in
    let p3 = r.pos in
    let n_places = get_uint r "proto place count" in
    let places =
      read_list n_places (fun () ->
          let key = get_raw16 r "place eval key" in
          (key, get_uint r "place eval area"))
    in
    let p4 = r.pos in
    (match on_record with
    | Some f ->
      f ~geometry:(p1 - p0) ~reports:(p2 - p1, n_reports)
        ~ercs:(p3 - p2, n_ercs) ~places:(p4 - p3, n_places)
    | None -> ());
    out.(i) <-
      Some
        { p_hash = hash; p_cell = c; p_reused = reused; p_reports = reports;
          p_ercs = ercs; p_places = places }
  done;
  Array.map Option.get out

let get_u32 r what =
  let b0 = byte r what in
  let b1 = byte r what in
  let b2 = byte r what in
  let b3 = byte r what in
  Int32.logor
    (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
    (Int32.shift_left (Int32.of_int b3) 24)

(* Verify the container and return a reader positioned on the payload. *)
let open_payload s =
  if String.length s < 4 then raise (Error (Truncated "magic"));
  if String.sub s 0 4 <> magic then raise (Error Bad_magic);
  let r = { src = s; pos = 4 } in
  let version = Int32.to_int (get_u32 r "version") in
  if version <> format_version then
    raise (Error (Bad_version { found = version; expected = format_version }));
  let len = Int32.to_int (get_u32 r "payload length") in
  let stored = get_u32 r "checksum" in
  if len < 0 || r.pos + len <> String.length s then
    raise (Error (Truncated "payload"));
  let payload = String.sub s r.pos len in
  let computed = crc32 payload in
  if stored <> computed then
    raise (Error (Checksum_mismatch { stored; computed }));
  { src = payload; pos = 0 }

(* The flat section ends the payload: a flag, then (flag 1) a
   length-prefixed body opening with its box count.  Nothing reads the
   body; its framing is checked, its box count returned, and the
   section skipped. *)
let skip_flat r =
  match get_uint r "flat flag" with
  | 0 -> 0
  | 1 ->
    let flat_len = get_uint r "flat section length" in
    let start = r.pos in
    if flat_len < 0 || start + flat_len <> String.length r.src then
      raise (Error (Malformed "flat section length"));
    let n = get_uint r "flat box count" in
    r.pos <- start + flat_len;
    n
  | f -> raise (Error (Malformed (Printf.sprintf "flat flag %d" f)))

let decode s =
  let r = open_payload s in
  let label = get_str r "label" in
  let protos = get_protos r in
  let n_cells = get_uint r "cell count" in
  if n_cells = 0 then raise (Error (Malformed "empty cell table"));
  let cells = Array.make n_cells (Cell.create "") in
  for i = 0 to n_cells - 1 do
    cells.(i) <- get_cell r cells i
  done;
  ignore (skip_flat r);
  if r.pos <> String.length r.src then
    raise (Error (Malformed "trailing bytes after payload"));
  { e_label = label; e_cell = cells.(n_cells - 1); e_protos = protos }

let decode_label s =
  let r = open_payload s in
  get_str r "label"

let decode_protos s =
  let r = open_payload s in
  let label = get_str r "label" in
  (label, get_protos r)

type section = { s_name : string; s_bytes : int; s_entries : int }

(* Per-section byte/entry accounting of one encoded entry.  The proto
   table interleaves geometry, DRC reports, ERC verdicts and place
   evals per record, so the split is measured from reader positions while
   decoding; the cell table has no length prefix and must be walked;
   the flat section is length-prefixed, so only its box count is
   peeked at. *)
let sections s =
  let r = open_payload s in
  let p0 = r.pos in
  ignore (get_str r "label");
  let label_bytes = r.pos - p0 in
  let geo = ref 0 and rep = ref 0 and erc = ref 0 and plc = ref 0 in
  let n_rep = ref 0 and n_erc = ref 0 and n_plc = ref 0 in
  let p1 = r.pos in
  let protos =
    get_protos
      ~on_record:(fun ~geometry ~reports:(rb, rn) ~ercs:(eb, en)
                      ~places:(pb, pn) ->
        geo := !geo + geometry;
        rep := !rep + rb;
        n_rep := !n_rep + rn;
        erc := !erc + eb;
        n_erc := !n_erc + en;
        plc := !plc + pb;
        n_plc := !n_plc + pn)
      r
  in
  (* the proto-count varint itself *)
  let table_overhead = r.pos - p1 - !geo - !rep - !erc - !plc in
  let p2 = r.pos in
  let n_cells = get_uint r "cell count" in
  let cells = Array.make (max n_cells 1) (Cell.create "") in
  for i = 0 to n_cells - 1 do
    cells.(i) <- get_cell r cells i
  done;
  let cell_bytes = r.pos - p2 in
  let p3 = r.pos in
  let flat_boxes = skip_flat r in
  let flat_bytes = r.pos - p3 in
  [ { s_name = "container"; s_bytes = 16; s_entries = 1 };
    { s_name = "label"; s_bytes = label_bytes; s_entries = 1 };
    { s_name = "proto geometry";
      s_bytes = !geo + table_overhead;
      s_entries = Array.length protos };
    { s_name = "drc reports"; s_bytes = !rep; s_entries = !n_rep };
    { s_name = "erc verdicts"; s_bytes = !erc; s_entries = !n_erc };
    { s_name = "place evals"; s_bytes = !plc; s_entries = !n_plc };
    { s_name = "cell table"; s_bytes = cell_bytes; s_entries = n_cells };
    { s_name = "flat"; s_bytes = flat_bytes; s_entries = flat_boxes } ]

(* Some filesystems reject fsync on a directory fd; losing that sync
   only weakens crash durability, never atomicity, so it is advisory. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_file path data =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".rsgdb-" ".tmp" in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () -> if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc data;
          (* flush + fsync before the rename: once the new name is
             visible it must refer to fully persisted bytes, or a crash
             between rename and writeback could leave a torn entry
             under the final name *)
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp path;
      ok := true);
  (* persist the directory entry itself so the rename survives a crash *)
  fsync_dir dir

(* read to end of file rather than by length, so pipes work too *)
let read_file path = decode (In_channel.with_open_bin path In_channel.input_all)
