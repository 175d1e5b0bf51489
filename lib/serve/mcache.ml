module Obs = Rsg_obs.Obs

type entry = {
  me_cif : string;
  me_boxes : int;
  me_drc : Rsg_obs.Json.t option;
}

(* Heap bytes an entry costs besides its CIF text, on a 64-bit build:
   the record and the string's header and padding (at most 48), a DRC
   summary (384 with the default deck's name), the 32-hex key, the
   table's slot and its bucket (104), rounded up. *)
let overhead = 640

let charge e = String.length e.me_cif + overhead

type slot = { entry : entry; mutable tick : int }

type t = {
  mutex : Mutex.t;
  table : (string, slot) Hashtbl.t;
  budget : int;
  mutable bytes : int;
  mutable clock : int;
}

let create ~budget_bytes =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    budget = max 0 budget_bytes;
    bytes = 0;
    clock = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.mutex)

let find t ~drc key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some slot when not (drc && slot.entry.me_drc = None) ->
    t.clock <- t.clock + 1;
    slot.tick <- t.clock;
    Obs.count "serve.mem_hit";
    Some slot.entry
  | Some _ | None ->
    Obs.count "serve.mem_miss";
    None

(* O(n) scan for the oldest tick; n is small (tens of entries) and
   eviction only runs on insert, never on the hit path *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun k slot acc ->
        match acc with
        | Some (_, best) when best.tick <= slot.tick -> acc
        | _ -> Some (k, slot))
      t.table None
  in
  match victim with
  | None -> false
  | Some (k, slot) ->
    Hashtbl.remove t.table k;
    t.bytes <- t.bytes - charge slot.entry;
    Obs.count "serve.mem_evict";
    true

let add t key entry =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    Hashtbl.remove t.table key;
    t.bytes <- t.bytes - charge old.entry
  | None -> ());
  (* evict down to budget; an entry larger than the whole budget is
     still admitted once the cache is empty, so the most recent result
     stays warm even under a tiny budget *)
  while t.bytes + charge entry > t.budget && evict_one t do
    ()
  done;
  t.clock <- t.clock + 1;
  Hashtbl.replace t.table key { entry; tick = t.clock };
  t.bytes <- t.bytes + charge entry

let stats t = locked t @@ fun () -> (Hashtbl.length t.table, t.bytes)
