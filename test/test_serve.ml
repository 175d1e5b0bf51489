(* Tests for lib/serve: the JSON codec, the manifest grammar shared
   with the CLI, and — against a real in-process daemon — protocol
   robustness (malformed frames, oversized requests, half-closed
   sockets), admission control (deadlines, queue_full), request
   coalescing, and graceful drain.  Every hostile input must come back
   as a structured error with the daemon still alive. *)

open Rsg_serve
module Json = Rsg_obs.Json

(* ---- in-process daemon harness -------------------------------------- *)

let temp_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rsg-serve-%d-%d.sock" (Unix.getpid ()) !n)

type server = { s_thread : Thread.t; s_socket : string }

let start ?(workers = 1) ?(queue = 4) ?(max_request = 1024 * 1024) () =
  let socket = temp_sock () in
  let cfg =
    {
      (Serve.default_config ~socket_path:socket) with
      workers;
      queue_depth = queue;
      max_request;
      handle_signals = false;
    }
  in
  let ready = Atomic.make false in
  let th =
    Thread.create
      (fun () -> Serve.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon did not become ready";
  { s_thread = th; s_socket = socket }

let connect srv =
  match Client.connect ~attempts:10 srv.s_socket with
  | Ok c -> c
  | Error msg -> Alcotest.fail msg

let obj fields = Json.Obj fields
let str s = Json.String s

let request ?deadline ~id op fields =
  obj
    ([ ("id", str id); ("op", str op) ]
    @ fields
    @ match deadline with None -> [] | Some d -> [ ("deadline_ms", d) ])

let rq c v =
  match Client.request c v with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("request failed: " ^ msg)

let check_ok what r =
  Alcotest.(check bool) (what ^ " ok") true (Client.response_ok r)

let check_err what code r =
  Alcotest.(check bool) (what ^ " not ok") false (Client.response_ok r);
  Alcotest.(check (option string))
    (what ^ " error code") (Some code)
    (Json.mem_string "error" r)

let id_of r = Json.member "id" r

let stop srv =
  (let c = connect srv in
   let r = rq c (request ~id:"bye" "shutdown" []) in
   check_ok "shutdown" r;
   Client.close c);
  Thread.join srv.s_thread;
  Alcotest.(check bool)
    "socket removed after drain" false
    (Sys.file_exists srv.s_socket)

let health_ok what c = check_ok what (rq c (request ~id:"h" "health" []))

(* result.counters.<name> from a stats response, 0 when absent *)
let counter c name =
  let r = rq c (request ~id:"st" "stats" []) in
  check_ok "stats" r;
  match
    Option.bind (Json.member "result" r) (fun res ->
        Option.bind (Json.member "counters" res) (fun cs ->
            Option.bind (Json.member name cs) Json.to_int_opt))
  with
  | Some n -> n
  | None -> 0

(* ---- JSON codec ------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      ({|{"a":1,"b":[true,false,null],"c":"x"}|}, true);
      ({|"plain string"|}, true);
      ({|[1,-2,3.5,1e3]|}, true);
      ({|{"esc":"a\"b\\c\nd\tuA"}|}, true);
      ({|{"pair":"😀"}|}, true);
      ({|{"a":1} trailing|}, false);
      ({|{"a":}|}, false);
      ({|[1,2|}, false);
      ({|{"a" 1}|}, false);
      ("", false);
    ]
  in
  List.iter
    (fun (text, ok) ->
      match Json.parse text with
      | Ok v ->
        Alcotest.(check bool) (text ^ " accepted") true ok;
        (* reprint and reparse: the compact form is a fixed point *)
        let printed = Json.to_string v in
        (match Json.parse printed with
        | Ok v2 ->
          Alcotest.(check string)
            (text ^ " print fixpoint") printed (Json.to_string v2)
        | Error m -> Alcotest.fail (printed ^ " reparse failed: " ^ m))
      | Error _ -> Alcotest.(check bool) (text ^ " rejected") false ok)
    cases;
  (* \u escapes — BMP and a surrogate pair — decode to UTF-8 bytes *)
  (match Json.parse {|"A\u00e9\u4e2d\ud83d\ude00"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string)
      "utf-8 escapes" "A\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "escape string did not parse");
  (* pathological nesting is rejected, not a stack overflow *)
  let deep = String.make 500 '[' ^ String.make 500 ']' in
  match Json.parse deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "500-deep nesting accepted"

let test_json_accessors () =
  let v =
    Result.get_ok (Json.parse {|{"s":"x","i":7,"b":true,"l":[1],"n":null}|})
  in
  Alcotest.(check (option string)) "string" (Some "x") (Json.mem_string "s" v);
  Alcotest.(check (option int)) "int" (Some 7) (Json.mem_int "i" v);
  Alcotest.(check (option bool)) "bool" (Some true) (Json.mem_bool "b" v);
  Alcotest.(check bool) "list" true (Json.member "l" v <> None);
  Alcotest.(check bool) "null present" true (Json.member "n" v = Some Json.Null);
  Alcotest.(check bool) "absent" true (Json.member "zz" v = None);
  Alcotest.(check (option int)) "wrong type" None (Json.mem_int "s" v)

(* ---- manifest grammar ------------------------------------------------ *)

let test_jobspec_grammar () =
  (match Jobspec.parse_manifest "m4 multiplier size=4\n# comment\n\nd3 decoder n=3\n" with
  | Ok jobs ->
    Alcotest.(check (list string))
      "names parsed" [ "m4"; "d3" ]
      (List.map (fun j -> j.Rsg_store.Batch.j_name) jobs)
  | Error msg -> Alcotest.fail msg);
  let expect_err what text =
    match Jobspec.parse_manifest text with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error _ -> ()
  in
  expect_err "empty manifest" "# only comments\n";
  expect_err "duplicate names" "a multiplier size=4\na multiplier size=8\n";
  expect_err "unknown kind" "a frobnicator size=4\n";
  expect_err "bad param" "a multiplier size=banana\n";
  expect_err "size out of range" "a multiplier size=0\n";
  expect_err "decoder too wide" "a decoder n=40\n";
  expect_err "rom without words" "a rom\n";
  expect_err "pla without rows" "a pla\n";
  expect_err "missing table file" "a pla table=/nonexistent/tt\n";
  expect_err "rom size not a power of two" "a rom words=1,2,3\n";
  expect_err "rom word too wide" "a rom words=1,256\n";
  (* a bad row fails to parse, with its line, instead of failing the
     job at generation *)
  (match Jobspec.parse_manifest "m4 multiplier size=4\nx pla rows=4:3\n" with
  | Ok _ -> Alcotest.fail "bad pla row: accepted"
  | Error msg ->
    Alcotest.(check string) "bad pla row" "line 2: bad input character 4" msg);
  (* params have CLI-compatible defaults: a bare decoder is n=3 *)
  match Jobspec.parse_manifest "a decoder\n" with
  | Ok [ j ] ->
    Alcotest.(check string) "default label" "decoder 3" j.Rsg_store.Batch.j_label
  | Ok _ -> Alcotest.fail "expected one job"
  | Error msg -> Alcotest.fail ("defaults rejected: " ^ msg)

(* ---- protocol robustness --------------------------------------------- *)

let test_malformed_frames () =
  let srv = start () in
  let c = connect srv in
  let raw what line code =
    (match Client.send_line c line with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    let r = match Client.recv c with Ok r -> r | Error m -> Alcotest.fail m in
    check_err what code r;
    r
  in
  let r = raw "garbage" "this is not json {" "bad_request" in
  Alcotest.(check bool) "garbage id null" true (id_of r = Some Json.Null);
  ignore (raw "non-object" "[1,2,3]" "bad_request");
  let r = raw "unknown op" {|{"id":7,"op":"frobnicate"}|} "bad_request" in
  Alcotest.(check bool) "id echoed on error" true (id_of r = Some (Json.Int 7));
  ignore (raw "missing op" {|{"id":"x","spec":"m multiplier size=4"}|} "bad_request");
  ignore (raw "missing spec" {|{"id":"y","op":"generate"}|} "bad_request");
  ignore (raw "bad spec" {|{"id":"z","op":"generate","spec":"m frob size=4"}|} "bad_request");
  ignore
    (raw "bad pla row" {|{"id":"r","op":"generate","spec":"x pla rows=10:3"}|}
       "bad_request");
  ignore (raw "negative sleep" {|{"id":"s","op":"sleep","ms":-1}|} "bad_request");
  (* after all that abuse, the daemon is healthy on the same connection *)
  health_ok "still alive" c;
  Client.close c;
  stop srv

let test_oversized_request () =
  let srv = start ~max_request:4096 () in
  let c = connect srv in
  (* an 8 KiB line can never frame under a 4 KiB cap: the daemon must
     answer too_large and close, because it cannot resynchronise *)
  let huge =
    {|{"id":"big","op":"generate","spec":"|} ^ String.make 8192 'x' ^ {|"}|}
  in
  (match Client.send_line c huge with Ok () -> () | Error m -> Alcotest.fail m);
  let r = match Client.recv c with Ok r -> r | Error m -> Alcotest.fail m in
  check_err "oversized" "too_large" r;
  (match Client.recv c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connection not closed after too_large");
  Client.close c;
  (* the daemon itself is fine; fresh connections work *)
  let c2 = connect srv in
  health_ok "fresh connection" c2;
  Client.close c2;
  stop srv

let test_half_closed_socket () =
  let srv = start () in
  (* speak raw Unix so we can send a final line with no newline and
     half-close: EOF must flush the unterminated request, the response
     must still be delivered, then the daemon closes its side *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX srv.s_socket);
  let line = {|{"id":"hc","op":"health"}|} in
  let n = String.length line in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd line !off (n - !off)
  done;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close fd;
  let text = String.trim (Buffer.contents buf) in
  (match Json.parse text with
  | Ok r ->
    check_ok "half-closed final line answered" r;
    Alcotest.(check bool) "id echoed" true (id_of r = Some (Json.String "hc"))
  | Error m -> Alcotest.fail ("unparseable response: " ^ m));
  (* a half-close that sends nothing at all is just a quiet goodbye *)
  let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd2 (Unix.ADDR_UNIX srv.s_socket);
  Unix.shutdown fd2 Unix.SHUTDOWN_SEND;
  (match Unix.read fd2 chunk 0 16 with
  | 0 -> ()
  | _ -> Alcotest.fail "daemon wrote to a silent connection");
  Unix.close fd2;
  let c = connect srv in
  health_ok "daemon alive" c;
  Client.close c;
  stop srv

(* ---- admission: deadlines and queue_full ----------------------------- *)

let test_deadline_expired () =
  let srv = start () in
  let c = connect srv in
  let r =
    rq c (request ~id:"d0" ~deadline:(Json.Int 0) "sleep" [ ("ms", Json.Int 50) ])
  in
  check_err "deadline 0" "deadline_expired" r;
  let r =
    rq c
      (request ~id:"dneg" ~deadline:(Json.Int (-5)) "sleep"
         [ ("ms", Json.Int 50) ])
  in
  check_err "negative deadline" "deadline_expired" r;
  (* a non-integer deadline is expired on arrival, deterministically *)
  let r =
    rq c
      (request ~id:"dstr" ~deadline:(str "soon") "sleep" [ ("ms", Json.Int 50) ])
  in
  check_err "non-integer deadline" "deadline_expired" r;
  (* a generous deadline admits and runs *)
  let r =
    rq c
      (request ~id:"dok" ~deadline:(Json.Int 30_000) "sleep"
         [ ("ms", Json.Int 10) ])
  in
  check_ok "generous deadline" r;
  health_ok "daemon alive" c;
  Client.close c;
  stop srv

let test_queue_full () =
  let srv = start ~workers:1 ~queue:1 () in
  let c = connect srv in
  let send v =
    match Client.send c v with Ok () -> () | Error m -> Alcotest.fail m
  in
  (* occupy the one worker, and give it time to pick the job up so the
     queue is empty when the burst lands *)
  send (request ~id:"busy" "sleep" [ ("ms", Json.Int 600) ]);
  Thread.delay 0.2;
  (* burst of three: one fills the queue slot, two must be rejected *)
  List.iter
    (fun id -> send (request ~id "sleep" [ ("ms", Json.Int 20) ]))
    [ "q1"; "q2"; "q3" ];
  let responses =
    List.init 4 (fun _ ->
        match Client.recv c with Ok r -> r | Error m -> Alcotest.fail m)
  in
  let outcome id =
    match
      List.find_opt (fun r -> id_of r = Some (Json.String id)) responses
    with
    | Some r ->
      if Client.response_ok r then "ok"
      else Option.value ~default:"?" (Json.mem_string "error" r)
    | None -> "missing"
  in
  Alcotest.(check string) "busy job ran" "ok" (outcome "busy");
  let burst = List.map outcome [ "q1"; "q2"; "q3" ] in
  Alcotest.(check int)
    "one burst job admitted" 1
    (List.length (List.filter (( = ) "ok") burst));
  Alcotest.(check int)
    "rest rejected with queue_full" 2
    (List.length (List.filter (( = ) "queue_full") burst));
  (* rejection is a response, not a penalty: the daemon serves on *)
  Alcotest.(check bool) "queue_full counted" true (counter c "serve.queue_full" >= 2);
  health_ok "daemon alive" c;
  Client.close c;
  stop srv

(* ---- coalescing ------------------------------------------------------ *)

let test_coalescing () =
  let srv = start ~workers:1 ~queue:8 () in
  let c = connect srv in
  let before = counter c "serve.coalesced" in
  let gen id =
    request ~id "generate"
      [ ("spec", str "cm multiplier size=4"); ("cif", Json.Bool true) ]
  in
  (* one worker: the sleep pins it, so both identical generates are
     parsed while the leader is still queued — the second must attach
     to the first, not enqueue its own computation *)
  let responses =
    match
      Client.pipeline c
        [
          request ~id:"pin" "sleep" [ ("ms", Json.Int 300) ];
          gen "g1";
          gen "g2";
        ]
    with
    | Ok rs -> rs
    | Error m -> Alcotest.fail m
  in
  let find id =
    match
      List.find_opt (fun r -> id_of r = Some (Json.String id)) responses
    with
    | Some r -> r
    | None -> Alcotest.fail ("no response for " ^ id)
  in
  check_ok "pin" (find "pin");
  let g1 = find "g1" and g2 = find "g2" in
  check_ok "g1" g1;
  check_ok "g2" g2;
  let field r name =
    match Option.bind (Json.member "result" r) (Json.mem_string name) with
    | Some s -> s
    | None -> Alcotest.fail (name ^ " missing")
  in
  (* both riders got the same computation: same key, same bytes *)
  Alcotest.(check string) "same key" (field g1 "key") (field g2 "key");
  Alcotest.(check string) "same cif_sha" (field g1 "cif_sha") (field g2 "cif_sha");
  Alcotest.(check string) "same cif text" (field g1 "cif") (field g2 "cif");
  Alcotest.(check bool)
    "coalesce counted" true
    (counter c "serve.coalesced" > before);
  (* a later identical request is a memory hit, bit-identical *)
  let g3 = rq c (gen "g3") in
  check_ok "g3" g3;
  Alcotest.(check string) "warm source" "memory" (field g3 "source");
  Alcotest.(check string) "warm identical" (field g1 "cif_sha") (field g3 "cif_sha");
  Client.close c;
  stop srv

(* ---- generate answers from the memory entry -------------------------- *)

let result_of what r =
  check_ok what r;
  match Json.member "result" r with
  | Some v -> v
  | None -> Alcotest.fail (what ^ ": no result")

let gen_drc ~id ?(drc = true) spec =
  request ~id "generate" [ ("spec", str spec); ("drc", Json.Bool drc) ]

(* the summary a direct flat check gives, as the daemon renders it *)
let direct_summary spec =
  let module Drc = Rsg_drc.Drc in
  let module Flatten = Rsg_layout.Flatten in
  match Jobspec.parse_line 1 spec with
  | Ok (Some job) ->
    let flat =
      Flatten.protos_flat (Flatten.prototypes (job.Rsg_store.Batch.j_gen ()))
    in
    let d = Drc.check_flat ~domains:1 flat in
    ( Json.Obj
        [ ("clean", Json.Bool (Drc.clean d));
          ("violations", Json.Int (List.length d.Drc.r_violations));
          ("boxes", Json.Int d.Drc.r_boxes);
          ("deck", Json.String d.Drc.r_deck) ],
      Array.length flat.Flatten.flat_boxes )
  | _ -> Alcotest.fail ("bad spec " ^ spec)

let check_drc what expected result =
  match Json.member "drc" result with
  | Some d ->
    Alcotest.(check string) (what ^ " drc") (Json.to_string expected)
      (Json.to_string d)
  | None -> Alcotest.fail (what ^ ": no drc summary")

(* A cold drc generate runs one check; the warm one is answered from
   the memory entry with the same summary and runs none. *)
let test_generate_drc_warm () =
  let srv = start () in
  let c = connect srv in
  let spec = "d4 decoder n=4" in
  let before = counter c "drc.checks" in
  let cold = result_of "cold" (rq c (gen_drc ~id:"cold" spec)) in
  let warm = result_of "warm" (rq c (gen_drc ~id:"warm" spec)) in
  let checks = counter c "drc.checks" - before in
  let summary, boxes = direct_summary spec in
  List.iter
    (fun (what, r) ->
      check_drc what summary r;
      Alcotest.(check (option int)) (what ^ " boxes") (Some boxes)
        (Json.mem_int "boxes" r))
    [ ("cold", cold); ("warm", warm) ];
  Alcotest.(check (option string)) "warm source" (Some "memory")
    (Json.mem_string "source" warm);
  Alcotest.(check int) "one check for both" 1 checks;
  Client.close c;
  stop srv

(* An entry built without drc cannot answer a drc request; the
   rebuilt entry carries the summary and answers the next one. *)
let test_generate_drc_after_plain () =
  let srv = start () in
  let c = connect srv in
  let spec = "d3 decoder n=3" in
  let plain = result_of "plain" (rq c (gen_drc ~id:"plain" ~drc:false spec)) in
  Alcotest.(check bool) "plain has no drc" true (Json.member "drc" plain = None);
  let second = result_of "second" (rq c (gen_drc ~id:"second" spec)) in
  let summary, _ = direct_summary spec in
  check_drc "second" summary second;
  let before = counter c "drc.checks" in
  let third = result_of "third" (rq c (gen_drc ~id:"third" spec)) in
  Alcotest.(check int) "third runs no drc" before (counter c "drc.checks");
  check_drc "third" summary third;
  Alcotest.(check (option string)) "third source" (Some "memory")
    (Json.mem_string "source" third);
  Client.close c;
  stop srv

(* drc:false and drc:true attached to one leader: one build, one check,
   and only the waiter that asked gets a summary. *)
let test_generate_mixed_flags () =
  let srv = start ~workers:1 ~queue:8 () in
  let c = connect srv in
  let spec = "cm multiplier size=4" in
  let before = counter c "drc.checks" in
  let responses =
    match
      Client.pipeline c
        [ request ~id:"pin" "sleep" [ ("ms", Json.Int 300) ];
          gen_drc ~id:"plain" ~drc:false spec;
          gen_drc ~id:"checked" spec ]
    with
    | Ok rs -> rs
    | Error m -> Alcotest.fail m
  in
  let find id =
    match
      List.find_opt (fun r -> id_of r = Some (Json.String id)) responses
    with
    | Some r -> result_of id r
    | None -> Alcotest.fail ("no response for " ^ id)
  in
  let plain = find "plain" and checked = find "checked" in
  Alcotest.(check int) "one check" 1 (counter c "drc.checks" - before);
  Alcotest.(check bool) "plain has no drc" true (Json.member "drc" plain = None);
  check_drc "checked" (fst (direct_summary spec)) checked;
  Client.close c;
  stop srv

(* An entry is charged what it holds: at least its reachable heap
   bytes, at most twice them; the budget counts in those charges. *)
let test_mcache_charge () =
  let entry n drc =
    let cell = (Rsg_pla.Gen.generate_decoder n).Rsg_pla.Gen.cell in
    { Mcache.me_cif = Rsg_layout.Cif.to_string cell;
      me_boxes = (Rsg_layout.Flatten.stats cell).Rsg_layout.Flatten.n_boxes;
      me_drc = (if drc then Some (fst (direct_summary "d decoder n=3")) else None) }
  in
  List.iter
    (fun (what, e) ->
      let m = Mcache.create ~budget_bytes:(1 lsl 20) in
      Mcache.add m "k" e;
      let reachable = Obj.reachable_words (Obj.repr e) * (Sys.word_size / 8) in
      let _, charged = Mcache.stats m in
      Alcotest.(check bool)
        (Printf.sprintf "%s: charge %d covers %d reachable" what charged reachable)
        true (charged >= reachable);
      Alcotest.(check bool)
        (Printf.sprintf "%s: charge %d within twice %d" what charged reachable)
        true (charged <= 2 * reachable))
    [ ("d2 plain", entry 2 false); ("d2 drc", entry 2 true);
      ("d4 drc", entry 4 true) ];
  let e = entry 3 true in
  let one =
    let m = Mcache.create ~budget_bytes:(1 lsl 20) in
    Mcache.add m "k" e;
    snd (Mcache.stats m)
  in
  let m = Mcache.create ~budget_bytes:(one * 3 / 2) in
  Mcache.add m "a" e;
  Mcache.add m "b" e;
  Alcotest.(check (pair int int)) "budget of 1.5 entries keeps one" (1, one)
    (Mcache.stats m);
  Alcotest.(check bool) "the newer stays" true
    (Mcache.find m ~drc:true "b" <> None && Mcache.find m ~drc:false "a" = None)

(* Random find/add sequences on small budgets: the cache answers,
   evicts and charges exactly as a most-recent-first list of
   (key, entry) pairs that drops its last pair while over budget. *)
let prop_mcache_reference_lru =
  let module Obs = Rsg_obs.Obs in
  let overhead =
    let m = Mcache.create ~budget_bytes:max_int in
    Mcache.add m "k" { Mcache.me_cif = ""; me_boxes = 0; me_drc = None };
    snd (Mcache.stats m)
  in
  let charge e = String.length e.Mcache.me_cif + overhead in
  let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ())) in
  let op =
    QCheck.Gen.(
      frequency
        [ (1, map2 (fun drc k -> `Find (drc, k)) bool (int_range 0 5));
          ( 1,
            map3 (fun k len drc -> `Add (k, len, drc)) (int_range 0 5)
              (int_range 0 400) bool ) ])
  in
  let gen =
    QCheck.make
      QCheck.Gen.(pair (int_range 0 (5 * (overhead + 400))) (list_size (int_range 0 60) op))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"LRU matches a reference list" gen
       (fun (budget, ops) ->
         let was_on = Obs.is_enabled () in
         Obs.enable ();
         let counts () =
           (counter "serve.mem_hit", counter "serve.mem_miss", counter "serve.mem_evict")
         in
         let h0, m0, e0 = counts () in
         let m = Mcache.create ~budget_bytes:budget in
         let model = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
         let model_bytes () = List.fold_left (fun a (_, e) -> a + charge e) 0 !model in
         let agree =
           List.for_all
             (fun op ->
               let answered =
                 match op with
                 | `Find (drc, k) ->
                   let key = string_of_int k in
                   let want =
                     match List.assoc_opt key !model with
                     | Some e when not (drc && e.Mcache.me_drc = None) ->
                       model := (key, e) :: List.remove_assoc key !model;
                       incr hits;
                       Some e
                     | _ ->
                       incr misses;
                       None
                   in
                   Mcache.find m ~drc key = want
                 | `Add (k, len, drc) ->
                   let key = string_of_int k in
                   let e =
                     { Mcache.me_cif = String.make len 'x';
                       me_boxes = len;
                       me_drc = (if drc then Some (Json.Int k) else None) }
                   in
                   model := List.remove_assoc key !model;
                   while model_bytes () + charge e > budget && !model <> [] do
                     model := List.rev (List.tl (List.rev !model));
                     incr evictions
                   done;
                   model := (key, e) :: !model;
                   Mcache.add m key e;
                   true
               in
               answered && Mcache.stats m = (List.length !model, model_bytes ()))
             ops
         in
         let h1, m1, e1 = counts () in
         if not was_on then Obs.disable ();
         agree && (h1 - h0, m1 - m0, e1 - e0) = (!hits, !misses, !evictions)))

(* ---- ops ------------------------------------------------------------- *)

(* The compact op answers with exactly a direct Hcompact.hier call's
   stats on the same builtin. *)
let test_compact_op () =
  let module H = Rsg_compact.Hcompact in
  let srv = start () in
  let c = connect srv in
  List.iter
    (fun spec ->
      let r = rq c (request ~id:spec "compact" [ ("spec", str spec) ]) in
      check_ok spec r;
      let result =
        match Json.member "result" r with
        | Some v -> v
        | None -> Alcotest.fail (spec ^ ": no result")
      in
      let cell =
        match Jobspec.target_cell spec with
        | Ok cell -> cell
        | Error msg -> Alcotest.fail msg
      in
      let s = (H.hier Rsg_compact.Rules.default cell).H.hr_stats in
      List.iter
        (fun (key, v) ->
          Alcotest.(check (option int)) (spec ^ " " ^ key) (Some v)
            (Json.mem_int key result))
        [ ("protos", s.H.hs_protos);
          ("stitch_constraints", s.H.hs_stitch_constraints);
          ("elements", s.H.hs_elements);
          ("rounds", s.H.hs_rounds);
          ("area_before", s.H.hs_area_before);
          ("area_after", s.H.hs_area_after) ];
      List.iter
        (fun key ->
          Alcotest.(check bool) (spec ^ " has no " ^ key) true
            (Json.member key result = None))
        [ "reused"; "internal_constraints" ])
    [ "pla"; "decoder" ];
  Client.close c;
  stop srv

(* Every queued op answers what a direct library call on the same input
   gives: batch and place byte for byte, since the daemon prints them
   with the functions behind [rsg batch --json] and [rsg place --json];
   the checkers' summaries as the objects a direct call yields. *)
let test_ops_agree () =
  let module Batch = Rsg_store.Batch in
  let module Anneal = Rsg_search.Anneal in
  let module Place_opt = Rsg_search.Place_opt in
  let module Drc = Rsg_drc.Drc in
  let module Erc = Rsg_erc.Erc in
  let module Extract = Rsg_extract.Extract in
  let module Flatten = Rsg_layout.Flatten in
  let module Diag = Rsg_lint.Diag in
  let srv = start () in
  let c = connect srv in
  let answer op spec extra =
    let what = op ^ " " ^ spec in
    let r = rq c (request ~id:what op (("spec", str spec) :: extra)) in
    check_ok what r;
    match Json.member "result" r with
    | Some v -> v
    | None -> Alcotest.fail (what ^ ": no result")
  in
  let same what expected v =
    Alcotest.(check string) what (Json.to_string expected) (Json.to_string v)
  in
  let cell spec =
    match Jobspec.target_cell spec with
    | Ok cell -> cell
    | Error msg -> Alcotest.fail msg
  in
  let manifest =
    "m6   multiplier size=6\n\
     m8   multiplier size=8\n\
     p3   pla rows=10-:10,0-1:01,11-:11\n\
     p4   pla rows=101-:10,0-11:01,11--:11,-000:11 fold=true\n\
     r16  rom words=1,9,4,13 word-bits=4\n\
     d3   decoder n=3\n\
     d4   decoder n=4\n\
     ram1 ram words=16 bits=4\n"
  in
  (match Jobspec.parse_manifest manifest with
  | Ok jobs ->
    same "batch"
      (Batch.to_json (Batch.run ~domains:1 jobs))
      (answer "batch" manifest [])
  | Error msg -> Alcotest.fail msg);
  same "place"
    (Place_opt.summary_json ~target:"pla" ~strategy:"anneal" ~seed:3
       (Anneal.run ~domains:1 ~chains:1 ~iters:4 ~seed:3 Place_opt.problem
          (Place_opt.make [ cell "pla"; cell "pla" ])))
    (answer "place" "pla"
       [ ("blocks", Json.Int 2); ("seed", Json.Int 3); ("iters", Json.Int 4);
         ("chains", Json.Int 1) ]);
  List.iter
    (fun spec ->
      let flat = Flatten.protos_flat (Flatten.prototypes (cell spec)) in
      let d = Drc.check_flat ~domains:1 flat in
      same ("drc " ^ spec)
        (Json.Obj
           [ ("clean", Json.Bool (Drc.clean d));
             ("violations", Json.Int (List.length d.Drc.r_violations));
             ("boxes", Json.Int d.Drc.r_boxes);
             ("deck", Json.String d.Drc.r_deck) ])
        (answer "drc" spec []);
      let e = Erc.check_cell ~domains:1 (cell spec) in
      same ("erc " ^ spec)
        (Json.Obj
           [ ("clean", Json.Bool (Erc.clean e));
             ("nets", Json.Int e.Erc.r_nets);
             ("devices", Json.Int e.Erc.r_devices);
             ("rails", Json.Int e.Erc.r_rails);
             ("levels", Json.Int (List.length e.Erc.r_levels));
             ("cached", Json.Int e.Erc.r_cached);
             ( "diagnostics",
               Json.Int (List.length (Erc.to_diags e).Diag.r_diags) ) ])
        (answer "erc" spec []);
      let n =
        Extract.of_items ~domains:1
          (Rsg_compact.Scanline.items_of_flat flat)
          (Array.to_list flat.Flatten.flat_labels)
      in
      same ("extract " ^ spec)
        (Json.Obj
           [ ("nets", Json.Int n.Extract.n_nets);
             ("devices", Json.Int (Extract.n_devices n)) ])
        (answer "extract" spec []))
    [ "pla"; "ram"; "multiplier"; "decoder" ];
  List.iter
    (fun spec ->
      match Jobspec.lint_builtin spec with
      | None -> Alcotest.fail (spec ^ " is no lint builtin")
      | Some (file, cfg, text) ->
        let r = Rsg_lint.Design_lint.check_string ~file cfg text in
        same ("lint " ^ spec)
          (Json.Obj
             [ ("clean", Json.Bool (Diag.clean r));
               ("errors", Json.Int (List.length (Diag.errors r)));
               ("warnings", Json.Int (List.length (Diag.warnings r)));
               ("checked", Json.Int r.Diag.r_checked) ])
          (answer "lint" spec []))
    [ "mult"; "pla" ];
  Client.close c;
  stop srv

(* A started job is never preempted, so place's size fields are
   bounded when the request is parsed: an out-of-range value is a
   bad_request, and no job runs. *)
let test_place_bound field values () =
  let srv = start () in
  let c = connect srv in
  let jobs = counter c "serve.job" in
  List.iter
    (fun v ->
      let what = Printf.sprintf "%s=%d" field v in
      check_err what "bad_request"
        (rq c
           (request ~id:what "place"
              [ ("spec", str "pla"); (field, Json.Int v) ])))
    values;
  Alcotest.(check int) "no job ran" jobs (counter c "serve.job");
  Client.close c;
  stop srv

(* ---- drain ----------------------------------------------------------- *)

let test_drain_completes_inflight () =
  let srv = start ~workers:1 () in
  let c = connect srv in
  (* shutdown lands while the sleep is running: the drain must let the
     job finish and deliver its response before the socket dies *)
  let responses =
    match
      Client.pipeline c
        [
          request ~id:"slow" "sleep" [ ("ms", Json.Int 250) ];
          request ~id:"bye" "shutdown" [];
        ]
    with
    | Ok rs -> rs
    | Error m -> Alcotest.fail m
  in
  let find id =
    List.find_opt (fun r -> id_of r = Some (Json.String id)) responses
  in
  (match find "bye" with
  | Some r -> check_ok "shutdown acknowledged" r
  | None -> Alcotest.fail "no shutdown response");
  (match find "slow" with
  | Some r ->
    check_ok "in-flight job completed" r;
    Alcotest.(check (option int))
      "slept the full duration" (Some 250)
      (Option.bind (Json.member "result" r) (Json.mem_int "slept_ms"))
  | None -> Alcotest.fail "in-flight response lost in drain");
  Client.close c;
  Thread.join srv.s_thread;
  Alcotest.(check bool)
    "socket removed" false
    (Sys.file_exists srv.s_socket);
  (* new work after the drain began would have been refused; here the
     daemon is fully gone, so connecting fails cleanly *)
  match Client.connect srv.s_socket with
  | Error _ -> ()
  | Ok c2 ->
    Client.close c2;
    Alcotest.fail "connected to a drained daemon"

(* ---- library readers on pipes ---------------------------------------- *)

(* A reader must give the same value from a named pipe as from a
   regular file at the same path: a writer thread feeds the FIFO while
   [read] consumes it.  [read] renders the value canonically. *)
let same_through_fifo what text read =
  let path = Filename.temp_file "rsg-fifo" ".in" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let regular = read path in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  let writer =
    Thread.create
      (fun () ->
        try Out_channel.with_open_bin path (fun oc -> output_string oc text)
        with Sys_error _ -> ())
      ()
  in
  let piped =
    Fun.protect
      ~finally:(fun () ->
        Thread.join writer;
        Sys.remove path)
      (fun () -> read path)
  in
  Alcotest.(check string) (what ^ " through a pipe") regular piped

let test_readers_on_pipes () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let module Cif = Rsg_layout.Cif in
  let module Def = Rsg_layout.Def in
  let cell =
    (Rsg_pla.Gen.generate
       (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
      .Rsg_pla.Gen.cell
  in
  let top what = function
    | Some c -> Cif.to_string c
    | None -> Alcotest.fail (what ^ ": no top cell")
  in
  same_through_fifo "cif" (Cif.to_string cell) (fun p ->
      top "cif" (Cif.read_file p).Cif.top);
  same_through_fifo "def" (Def.to_string cell) (fun p ->
      top "def" (Def.read_file p).Def.top);
  same_through_fifo "param" "; personality\nsize=4\nrows=3\n" (fun p ->
      let t = Rsg_lang.Param.parse_file p in
      String.concat ";"
        (List.map (fun (k, v) -> k ^ "=" ^ v) t.Rsg_lang.Param.directives
        @ List.map
            (fun (k, v) -> Format.asprintf "%s:%a" k Rsg_lang.Value.pp v)
            t.Rsg_lang.Param.bindings));
  same_through_fifo "deck"
    (Rsg_drc.Deck.to_string
       (Rsg_drc.Deck.of_compact_rules Rsg_compact.Rules.default))
    (fun p -> Rsg_drc.Deck.to_string (Rsg_drc.Deck.read_file p));
  same_through_fifo "codec"
    (Rsg_store.Codec.encode ~label:"pla" cell)
    (fun p ->
      let e = Rsg_store.Codec.read_file p in
      e.Rsg_store.Codec.e_label ^ "\n" ^ Cif.to_string e.Rsg_store.Codec.e_cell);
  same_through_fifo "jobspec table" "10 110\n01 101\n" (fun p ->
      match Jobspec.parse_line 1 ("p pla table=" ^ p) with
      | Ok (Some j) ->
        Rsg_store.Store.key_hex j.Rsg_store.Batch.j_key
        ^ " " ^ j.Rsg_store.Batch.j_label
      | Ok None -> Alcotest.fail "jobspec: no job"
      | Error msg -> Alcotest.fail ("jobspec: " ^ msg));
  same_through_fifo "jobspec target" (Cif.to_string cell) (fun p ->
      match Jobspec.target_cell p with
      | Ok c -> Cif.to_string c
      | Error msg -> Alcotest.fail ("target: " ^ msg));
  let srv = start () in
  let c = connect srv in
  same_through_fifo "serve lint"
    "(macro mrow (n)\n  (mk_instance a tile)\n  (connect a b 1))\n"
    (fun p ->
      let r = rq c (request ~id:"l" "lint" [ ("spec", str p) ]) in
      check_ok "lint" r;
      match Json.member "result" r with
      | Some v -> Json.to_string v
      | None -> Alcotest.fail "lint: no result");
  Client.close c;
  stop srv

let () =
  Alcotest.run "rsg_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip and rejection" `Quick
            test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "jobspec",
        [ Alcotest.test_case "manifest grammar" `Quick test_jobspec_grammar ] );
      ( "pipes",
        [ Alcotest.test_case "library readers read FIFOs" `Quick
            test_readers_on_pipes ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed frames" `Quick test_malformed_frames;
          Alcotest.test_case "oversized request" `Quick test_oversized_request;
          Alcotest.test_case "half-closed socket" `Quick
            test_half_closed_socket;
        ] );
      ( "admission",
        [
          Alcotest.test_case "deadline expired" `Quick test_deadline_expired;
          Alcotest.test_case "queue full" `Quick test_queue_full;
        ] );
      ( "coalesce",
        [ Alcotest.test_case "identical generates share" `Quick test_coalescing ]
      );
      ( "generate",
        [
          Alcotest.test_case "warm drc answered from memory" `Quick
            test_generate_drc_warm;
          Alcotest.test_case "drc after a plain entry" `Quick
            test_generate_drc_after_plain;
          Alcotest.test_case "mixed drc flags on one leader" `Quick
            test_generate_mixed_flags;
          Alcotest.test_case "entry charge" `Quick test_mcache_charge;
          prop_mcache_reference_lru;
        ] );
      ( "ops",
        [
          Alcotest.test_case "compact" `Quick test_compact_op;
          Alcotest.test_case "every op agrees with a direct call" `Quick
            test_ops_agree;
          Alcotest.test_case "place blocks bound" `Quick
            (test_place_bound "blocks" [ 0; 17 ]);
          Alcotest.test_case "place iters bound" `Quick
            (test_place_bound "iters" [ -1; 257 ]);
          Alcotest.test_case "place chains bound" `Quick
            (test_place_bound "chains" [ 0; 5 ]);
        ] );
      ( "drain",
        [
          Alcotest.test_case "in-flight completes" `Quick
            test_drain_completes_inflight;
        ] );
    ]
