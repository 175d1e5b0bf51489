module Obs = Rsg_obs.Obs

type t = { sdir : string }

let schema_tag = "rsg-store-v1"
let suffix = ".rsgdb"
let latest_suffix = ".latest"

(* A temp file this old belongs to a writer that crashed mid-save; a
   live writer renames (or unlinks) its temp within milliseconds. *)
let tmp_max_age = 900.

let mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then
      (try Unix.mkdir parent 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ dir =
  mkdir_p dir;
  { sdir = dir }

let dir t = t.sdir

type key = string

(* Components are length-prefixed before digesting so no two distinct
   component lists can concatenate to the same byte string (e.g.
   ["ab";"c"] vs ["a";"bc"]). *)
let key ?(deck = "") ?(scale = "1") ~design ~params () =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    [
      schema_tag;
      string_of_int Codec.format_version;
      design;
      params;
      deck;
      scale;
    ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let key_hex k = k
let short k = if String.length k >= 8 then String.sub k 0 8 else k
let path_of t k = Filename.concat t.sdir (k ^ suffix)

(* ---- advisory store lock ------------------------------------------ *)
(*
   Mutators (save, clear, gc, sweep_tmp) and whole-directory readers
   (stats) take a best-effort fcntl lock on <dir>/.lock so maintenance
   walking the directory does not race a resident writer in another
   process: gc/stats see a consistent snapshot across cooperating rsg
   processes.  Everything stays correct without the lock — entries are
   installed by atomic rename and removal tolerates losing races — so
   any locking failure (exotic filesystem, permissions) just falls
   back to the unlocked behaviour.  Single-entry reads (find, harvest)
   stay unlocked: they touch one file, the rename makes that safe, and
   they are the latency-critical path.

   fcntl caveats, by design: locks are per-process (two domains of one
   daemon do not exclude each other — in-process callers synchronise
   at a higher level), and closing any fd on the lock file drops the
   process's locks, so nothing here may nest with_lock on one store
   (gc uses the unlocked sweep internally for exactly that reason).
*)

let lock_path t = Filename.concat t.sdir ".lock"

let with_lock ?(shared = false) t f =
  match Unix.openfile (lock_path t) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    (try Unix.lockf fd (if shared then Unix.F_RLOCK else Unix.F_LOCK) 0
     with Unix.Unix_error _ -> ());
    Fun.protect f ~finally:(fun () ->
        (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())

(* Removal that tolerates losing the race to a concurrent process:
   ENOENT means someone else already unlinked the file, which is the
   state we wanted.  Returns whether {e this} call did the removal, so
   clear/gc counts stay accurate under contention. *)
let unlink_existing path =
  match Unix.unlink path with
  | () -> true
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  | exception Unix.Unix_error _ -> false

type lookup = Hit of Codec.entry | Miss | Corrupt of Codec.error

let find t k =
  let path = path_of t k in
  if not (Sys.file_exists path) then begin
    Obs.count "store.miss";
    Miss
  end
  else
    match Codec.read_file path with
    | entry ->
        Obs.count "store.hit";
        Hit entry
    | exception Codec.Error (Codec.Bad_version _) ->
        (* written by a different codec generation: not damage, just
           stale — remove it so the miss is clean and one-time *)
        Obs.count "store.stale";
        ignore (unlink_existing path);
        Miss
    | exception Codec.Error e ->
        (* count first, then delete: the bad file must cost exactly one
           corrupt report and one regeneration, never one per run *)
        Obs.count "store.corrupt";
        ignore (unlink_existing path);
        Corrupt e
    | exception Sys_error _ ->
        Obs.count "store.miss";
        Miss

(* ---- per-design latest pointer ----------------------------------- *)
(*
   Incremental regeneration needs the {e previous} entry for a design
   even though an edit changed its key (the key digests the design
   text).  The pointer file <digest(stem)>.latest holds the key hex of
   the last entry saved for the stem — a generator-family + design
   identity that deliberately excludes the content that edits change.
*)

let stem_path t stem =
  Filename.concat t.sdir (Digest.to_hex (Digest.string stem) ^ latest_suffix)

let is_hex32 s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let latest t ~stem =
  let path = stem_path t stem in
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
      let s = String.trim s in
      if is_hex32 s then Some s
      else begin
        (* truncated or garbled pointer — a writer from before pointers
           went through the atomic temp+rename path, or tampering.  A
           clean miss: remove it so it costs one report, not one per
           run, and the next save installs a fresh pointer. *)
        Obs.count "store.bad_pointer";
        ignore (unlink_existing path);
        None
      end
  | exception Sys_error _ -> None

let save t k ?stem ~label ?flat ?protos cell =
  let data = Codec.encode ?flat ?protos ~label cell in
  with_lock t (fun () ->
      Codec.write_file (path_of t k) data;
      (* the pointer goes through the same atomic temp+rename+fsync
         path as entries: a crash mid-save leaves either the previous
         pointer or the new one, never a truncated file *)
      match stem with
      | Some stem -> Codec.write_file (stem_path t stem) (key_hex k)
      | None -> ());
  Obs.count "store.save"

let harvest t ~stem =
  match latest t ~stem with
  | None -> None
  | Some k -> (
      let path = path_of t k in
      match In_channel.with_open_bin path In_channel.input_all with
      | data -> (
          match Codec.decode_protos data with
          | _label, protos ->
              Obs.count "store.harvest";
              Some (k, protos)
          | exception Codec.Error (Codec.Bad_version _) ->
              Obs.count "store.stale";
              ignore (unlink_existing path);
              None
          | exception Codec.Error _ ->
              Obs.count "store.corrupt";
              ignore (unlink_existing path);
              None)
      | exception Sys_error _ -> None)

(* ---- cached per-prototype runs ------------------------------------- *)

module Cached = struct
  type store = t

  type t = {
    store : store option;
    log : Format.formatter;
    stem : string;
    prior : (string, Codec.proto) Hashtbl.t;  (* records by subtree hex *)
  }

  let start ~log ~stem store = { store; log; stem; prior = Hashtbl.create 64 }

  let adopt r table =
    Array.iter
      (fun (p : Codec.proto) ->
        Hashtbl.replace r.prior (Digest.to_hex p.Codec.p_hash) p)
      table

  let harvest r =
    match r.store with
    | None -> ()
    | Some s -> (
      match harvest s ~stem:r.stem with
      | Some (k, table) when Array.length table > 0 ->
        Format.fprintf r.log "cache: harvesting %s (%d prototypes)@." (short k)
          (Array.length table);
        adopt r table
      | _ -> ())

  let replay r field digest hex =
    Option.bind (Hashtbl.find_opt r.prior hex) (fun p ->
        List.assoc_opt digest (field p))

  let adopted r hex = Hashtbl.mem r.prior hex

  let by_hex digest results hex =
    match List.assoc_opt hex results with
    | Some a -> [ (digest, a) ]
    | None -> []

  let save r k ~label ?reused ?reports ?ercs ?places
      ?(note = fun table -> Printf.sprintf "%d prototypes" (Array.length table))
      protos cell =
    match r.store with
    | None -> [||]
    | Some s ->
      let k = Lazy.force k in
      let table =
        Codec.proto_table ?reused ?reports ?ercs ?places
          (Lazy.force protos)
      in
      save s k ~stem:r.stem ~label ~protos:table cell;
      Format.fprintf r.log "cache: saved %s (%s)@." (short k) (note table);
      table

  let run r k ~redo ~compute ~save =
    match Option.map (fun s -> find s k) r.store with
    | Some (Hit e) ->
      Format.fprintf r.log "cache: hit %s@." (short k);
      adopt r e.Codec.e_protos;
      compute (Some e)
    | lookup ->
      (match lookup with
      | Some Miss -> Format.fprintf r.log "cache: miss %s@." (short k)
      | Some (Corrupt err) ->
        Format.fprintf r.log "cache: corrupt entry (%a), %s@." Codec.pp_error
          err redo
      | _ -> ());
      harvest r;
      let v = compute None in
      if Option.is_some r.store then save v;
      v
end

(* ---- listing, stats, maintenance --------------------------------- *)

type entry_stat = {
  es_key : string;
  es_label : string;
  es_bytes : int;
  es_protos : int;
  es_reused : int;
}

type stats = {
  st_entries : int;
  st_bytes : int;
  st_list : entry_stat list;
  st_sections : Codec.section list;
}

let entries t =
  let files = try Sys.readdir t.sdir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter_map (fun f ->
         if Filename.check_suffix f suffix then
           Some (Filename.chop_suffix f suffix)
         else None)
  |> List.sort String.compare

let stats t =
  with_lock ~shared:true t @@ fun () ->
  let ks = entries t in
  (* aggregated per-section accounting, in payload order; corrupt
     entries contribute nothing *)
  let sec_order : string list ref = ref [] in
  let sec_tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let add_sections data =
    match Codec.sections data with
    | secs ->
      List.iter
        (fun (s : Codec.section) ->
          (match Hashtbl.find_opt sec_tbl s.Codec.s_name with
          | None ->
            sec_order := s.Codec.s_name :: !sec_order;
            Hashtbl.add sec_tbl s.Codec.s_name
              (s.Codec.s_bytes, s.Codec.s_entries)
          | Some (b, e) ->
            Hashtbl.replace sec_tbl s.Codec.s_name
              (b + s.Codec.s_bytes, e + s.Codec.s_entries)))
        secs
    | exception _ -> ()
  in
  let list =
    List.map
      (fun k ->
        let path = path_of t k in
        let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        let label, protos, reused =
          match In_channel.with_open_bin path In_channel.input_all with
          | data -> (
            add_sections data;
            match Codec.decode_protos data with
            | l, ps ->
                ( l,
                  Array.length ps,
                  Array.fold_left
                    (fun a (p : Codec.proto) -> if p.Codec.p_reused then a + 1 else a)
                    0 ps )
            | exception _ -> ("(corrupt)", 0, 0))
          | exception _ -> ("(corrupt)", 0, 0)
        in
        { es_key = k; es_label = label; es_bytes = bytes;
          es_protos = protos; es_reused = reused })
      ks
  in
  {
    st_entries = List.length list;
    st_bytes = List.fold_left (fun a e -> a + e.es_bytes) 0 list;
    st_list = list;
    st_sections =
      List.rev_map
        (fun name ->
          let b, e = Hashtbl.find sec_tbl name in
          { Codec.s_name = name; s_bytes = b; s_entries = e })
        !sec_order;
  }

(* write_file's temp names: ".rsgdb-" prefix, ".tmp" suffix *)
let is_tmp_file f =
  String.length f > 11
  && String.sub f 0 7 = ".rsgdb-"
  && Filename.check_suffix f ".tmp"

let is_pointer_file f = Filename.check_suffix f latest_suffix

let sweep_tmp_unlocked ?(max_age = tmp_max_age) t =
  let now = Unix.gettimeofday () in
  let files = try Sys.readdir t.sdir with Sys_error _ -> [||] in
  let swept = ref 0 in
  Array.iter
    (fun f ->
      if is_tmp_file f then begin
        let path = Filename.concat t.sdir f in
        match Unix.stat path with
        | st when now -. st.Unix.st_mtime >= max_age ->
            if unlink_existing path then begin
              Obs.count "store.tmp_swept";
              incr swept
            end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      end)
    files;
  !swept

(* gc calls the unlocked body: re-entering with_lock on the same store
   would close a second fd on .lock and drop the outer lock (fcntl) *)
let sweep_tmp ?max_age t = with_lock t (fun () -> sweep_tmp_unlocked ?max_age t)

let clear t =
  with_lock t @@ fun () ->
  let files = try Sys.readdir t.sdir with Sys_error _ -> [||] in
  let removed = ref 0 in
  Array.iter
    (fun f ->
      let entry = Filename.check_suffix f suffix in
      if entry || is_pointer_file f || is_tmp_file f then begin
        let did = unlink_existing (Filename.concat t.sdir f) in
        if did && entry then incr removed
      end)
    files;
  !removed

let gc ?max_age ?max_bytes t =
  with_lock t @@ fun () ->
  let now = Unix.gettimeofday () in
  let stat k =
    let path = path_of t k in
    match Unix.stat path with
    | st -> Some (k, st.Unix.st_mtime, st.Unix.st_size)
    | exception Unix.Unix_error _ -> None
  in
  let all = List.filter_map stat (entries t) in
  let removed = ref 0 in
  let remove k = if unlink_existing (path_of t k) then incr removed in
  let survivors =
    match max_age with
    | None -> all
    | Some age ->
        List.filter
          (fun (k, mtime, _) ->
            if now -. mtime > age then (remove k; false) else true)
          all
  in
  (match max_bytes with
  | None -> ()
  | Some limit ->
      (* oldest first; keys tie-break for determinism *)
      let by_age =
        List.sort
          (fun (ka, ma, _) (kb, mb, _) ->
            match compare ma mb with 0 -> String.compare ka kb | c -> c)
          survivors
      in
      let total = List.fold_left (fun a (_, _, sz) -> a + sz) 0 by_age in
      let excess = ref (total - limit) in
      List.iter
        (fun (k, _, sz) ->
          if !excess > 0 then begin
            remove k;
            (* the file is gone either way, so the space is reclaimed
               even when a concurrent gc did the unlink *)
            excess := !excess - sz
          end)
        by_age);
  ignore (sweep_tmp_unlocked t);
  (* drop pointers whose entry no longer exists (gc'd above, cleared,
     or never completed); a truncated pointer file is dropped too *)
  let files = try Sys.readdir t.sdir with Sys_error _ -> [||] in
  Array.iter
    (fun f ->
      if is_pointer_file f then begin
        let path = Filename.concat t.sdir f in
        let target =
          match In_channel.with_open_bin path In_channel.input_all with
          | s ->
              let s = String.trim s in
              if is_hex32 s then Some s else None
          | exception Sys_error _ -> None
        in
        match target with
        | Some k when Sys.file_exists (path_of t k) -> ()
        | _ -> ignore (unlink_existing path)
      end)
    files;
  !removed
