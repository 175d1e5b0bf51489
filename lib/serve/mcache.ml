module Obs = Rsg_obs.Obs

type entry = {
  me_cif : string;
  me_boxes : int;
  me_drc : Rsg_obs.Json.t option;
}

(* Heap bytes an entry costs besides its CIF text, on a 64-bit build:
   the record and the string's header and padding (at most 48), a DRC
   summary (384 with the default deck's name), the 32-hex key, the
   recency slot and the table's bucket (120), rounded up. *)
let overhead = 640

let charge e = String.length e.me_cif + overhead

(* Slots form an intrusive doubly-linked recency list through a
   sentinel: [lru.next] is the most recently used slot, [lru.prev] the
   least, so a hit moves its slot to the front and eviction takes the
   back, both in O(1). *)
type slot = {
  key : string;
  entry : entry;
  mutable prev : slot;  (* more recently used, or the sentinel *)
  mutable next : slot;  (* less recently used, or the sentinel *)
}

type t = {
  mutex : Mutex.t;
  table : (string, slot) Hashtbl.t;
  budget : int;
  mutable bytes : int;
  lru : slot;
}

let create ~budget_bytes =
  let rec lru =
    { key = "";
      entry = { me_cif = ""; me_boxes = 0; me_drc = None };
      prev = lru;
      next = lru }
  in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    budget = max 0 budget_bytes;
    bytes = 0;
    lru;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.mutex)

let unlink s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev

let push_front t s =
  s.prev <- t.lru;
  s.next <- t.lru.next;
  t.lru.next.prev <- s;
  t.lru.next <- s

let find t ~drc key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some slot when not (drc && slot.entry.me_drc = None) ->
    unlink slot;
    push_front t slot;
    Obs.count "serve.mem_hit";
    Some slot.entry
  | Some _ | None ->
    Obs.count "serve.mem_miss";
    None

(* the least recently used slot sits at the back; eviction only runs
   on insert, never on the hit path *)
let evict_one t =
  let victim = t.lru.prev in
  if victim == t.lru then false
  else begin
    unlink victim;
    Hashtbl.remove t.table victim.key;
    t.bytes <- t.bytes - charge victim.entry;
    Obs.count "serve.mem_evict";
    true
  end

let add t key entry =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    unlink old;
    Hashtbl.remove t.table key;
    t.bytes <- t.bytes - charge old.entry
  | None -> ());
  (* evict down to budget; an entry larger than the whole budget is
     still admitted once the cache is empty, so the most recent result
     stays warm even under a tiny budget *)
  while t.bytes + charge entry > t.budget && evict_one t do
    ()
  done;
  let rec slot = { key; entry; prev = slot; next = slot } in
  push_front t slot;
  Hashtbl.replace t.table key slot;
  t.bytes <- t.bytes + charge entry

let stats t = locked t @@ fun () -> (Hashtbl.length t.table, t.bytes)
