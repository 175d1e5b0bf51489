(* Types and helpers shared by the four workloads and the runner. *)

(* How an op's result was obtained: answered from a cache, computed,
   or neither distinction applies. *)
type outcome = Hit | Miss | Plain

(* One set-up workload, ready for its timed ops.  [op ~slot ctx i] runs
   op [i] on client slot [slot] (0 unless [concurrency] > 1) and raises
   on failure.  It returns how the result was obtained and the step that
   fingerprints the op's output for the oracle; the runner runs that
   step after it has taken the op's latency.  [check ~corrupt] is the
   output oracle, run after the timed window: it returns the ids of ops
   whose outputs disagree with an independent path, with a reason;
   [corrupt] flips one stored reference so the smoke check can see a
   mismatch counted. *)
type instance = {
  concurrency : int;
  op : slot:int -> Trace.ctx -> int -> outcome * (unit -> unit);
  after_window : unit -> unit;
  check : corrupt:bool -> (int * string) list;
  best_area : unit -> int option;
  teardown : unit -> unit;
}

type env = { seed : int; dir : string }

(* the pool size every layer call is given: nproc of the 2-vCPU host
   the benchmark was written on, and the default users get there *)
let domains = 2

type workload = { name : string; setup : env -> rep:int -> instance }

(* ---- named counters, bumped from any thread ------------------------- *)

let tally_mu = Mutex.create ()

let tally_tbl : (string, float) Hashtbl.t = Hashtbl.create 32

let tally ?(n = 1.) name =
  Mutex.protect tally_mu (fun () ->
      Hashtbl.replace tally_tbl name
        (n +. Option.value ~default:0. (Hashtbl.find_opt tally_tbl name)))

let tally_get name =
  Mutex.protect tally_mu (fun () ->
      Option.value ~default:0. (Hashtbl.find_opt tally_tbl name))

(* ---- seeded inputs -------------------------------------------------- *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Indices [0, n) in seeded rounds, each index once a round: draws that
   pick a kind of work this way give every seed the same mix. *)
let rounds st n =
  let order = ref [||] and k = ref 0 in
  fun () ->
    if !k mod n = 0 then order := shuffle st (Array.init n Fun.id);
    incr k;
    !order.((!k - 1) mod n)

(* A random personality: each literal is present with probability
   [density]; every row keeps at least one literal and one output. *)
let truth_table st ~inputs ~outputs ~terms ~density =
  let row () =
    let s =
      Bytes.init inputs (fun _ ->
          if Random.State.float st 1.0 < density then
            if Random.State.bool st then '1' else '0'
          else '-')
    in
    if Bytes.for_all (( = ) '-') s then
      Bytes.set s (Random.State.int st inputs) '1';
    Bytes.to_string s
  in
  let outs () =
    let s = Bytes.init outputs (fun _ -> if Random.State.bool st then '1' else '0') in
    if Bytes.for_all (( = ) '0') s then
      Bytes.set s (Random.State.int st outputs) '1';
    Bytes.to_string s
  in
  Rsg_pla.Truth_table.of_strings
    (List.init terms (fun _ ->
         let r = row () in
         (r, outs ())))

let table_rows tt =
  String.concat ","
    (List.map (fun (i, o) -> i ^ ":" ^ o) (Rsg_pla.Truth_table.to_strings tt))

(* The oracle's checks are independent per op (or per distinct input),
   so they fan out over two domains; each check calls the layers at one
   domain. *)
let par_concat_map f xs =
  Rsg_par.Par.chunked_map ~domains ~chunk:1 f (Array.of_list xs)
  |> Array.to_list |> List.concat

(* ---- output fingerprints -------------------------------------------- *)

let digest_value v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let digest_flat (f : Rsg_layout.Flatten.flat) =
  digest_value (f.Rsg_layout.Flatten.flat_boxes, f.Rsg_layout.Flatten.flat_labels)

(* the corrupted reference of the smoke check: a flipped digest *)
let flip hex = String.map (fun c -> if c = '0' then '1' else '0') hex

(* ---- the run directory ---------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
