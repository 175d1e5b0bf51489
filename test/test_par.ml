(* Tests for the domain pool: results must be identical to a
   sequential Array.map for every pool size and chunking, worker
   exceptions must surface on the calling domain without hanging, and
   every fan-out runs on one resident crew of workers. *)

open Rsg_par
module Obs = Rsg_obs.Obs

let squares n = Array.init n (fun i -> i)

let test_map_matches_sequential () =
  List.iter
    (fun n ->
      let xs = squares n in
      let expected = Array.map (fun x -> (x * x) + 1) xs in
      List.iter
        (fun domains ->
          let got = Par.map ~domains (fun x -> (x * x) + 1) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "map n=%d domains=%d" n domains)
            expected got)
        [ 1; 2; 3; 4 ])
    [ 0; 1; 2; 7; 100; 1_000 ]

let test_chunked_map_matches_sequential () =
  let xs = squares 257 in
  let expected = Array.map (fun x -> x * 3) xs in
  List.iter
    (fun domains ->
      List.iter
        (fun chunk ->
          let got = Par.chunked_map ~domains ~chunk (fun x -> x * 3) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "chunked domains=%d chunk=%d" domains chunk)
            expected got)
        [ 1; 2; 16; 300 ])
    [ 1; 2; 4 ]

(* Reduction over the mapped array is deterministic: the pool writes
   each slot by index, so element order never depends on scheduling. *)
let test_deterministic_order () =
  let xs = Array.init 500 (fun i -> i) in
  let seq = Par.map ~domains:1 (fun x -> x * 7) xs in
  for _ = 1 to 5 do
    let par = Par.map ~domains:4 (fun x -> x * 7) xs in
    Alcotest.(check bool) "same array" true (par = seq)
  done

exception Boom of int

let self () = (Domain.self () :> int)

let ids xs = List.sort_uniq Int.compare (Array.to_list xs)

(* [meet ~domains f] maps [f] over [0 .. domains - 1] on [domains]
   participants, pairing each result with the id of the domain that
   computed it.  Every task waits until all of them have started, so
   each participant runs exactly one task and the fan-out shows every
   worker it used.  A participant that never comes fails the fan-out
   instead of hanging it. *)
let meet ~domains f =
  let arrived = Atomic.make 0 in
  let give_up = Unix.gettimeofday () +. 30. in
  Par.map ~domains
    (fun x ->
      Atomic.incr arrived;
      while Atomic.get arrived < domains do
        if Unix.gettimeofday () > give_up then
          failwith "meet: a participant never started";
        Unix.sleepf 0.0002
      done;
      (f x, self ()))
    (Array.init domains Fun.id)

let meet_ids ~domains = ids (Array.map snd (meet ~domains Fun.id))

let test_exception_propagates () =
  let before = meet_ids ~domains:2 in
  let xs = Array.init 100 (fun i -> i) in
  List.iter
    (fun domains ->
      match Par.map ~domains (fun x -> if x = 63 then raise (Boom x) else x) xs
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 63 -> ()
      | exception e ->
        Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e))
    [ 1; 2; 4 ];
  (* the workers outlive a raising task *)
  let after = meet ~domains:2 (fun x -> x * 5) in
  Alcotest.(check (array int)) "next fan-out right" [| 0; 5 |]
    (Array.map fst after);
  Alcotest.(check (list int)) "same workers" before
    (ids (Array.map snd after))

(* A fan-out reuses the crew's workers instead of spawning its own. *)
let test_crew_reuse () =
  let seen = Hashtbl.create 8 in
  for _ = 1 to 300 do
    Array.iter
      (fun (_, id) -> Hashtbl.replace seen id ())
      (meet ~domains:2 Fun.id)
  done;
  Alcotest.(check int) "caller plus one worker" 2 (Hashtbl.length seen)

(* The crew grows to the largest request and then stays put. *)
let test_crew_growth () =
  let first = meet_ids ~domains:4 in
  Alcotest.(check int) "four participants" 4 (List.length first);
  for _ = 1 to 100 do
    List.iter
      (fun domains ->
        let later = meet_ids ~domains in
        Alcotest.(check bool)
          (Printf.sprintf "no new worker at %d domains" domains)
          true
          (List.for_all (fun id -> List.mem id first) later))
      [ 2; 4 ]
  done

(* A task that fans out itself finds the crew held and runs inline. *)
let test_crew_nested () =
  let xs = Array.init 20 Fun.id in
  let inner map x = Array.fold_left ( + ) 0 (map (fun y -> (x * y) + 1) xs) in
  let expected = Array.map (inner Array.map) xs in
  let got = Par.map ~domains:2 (inner (Par.map ~domains:2)) xs in
  Alcotest.(check (array int)) "nested equals sequential" expected got

(* Fan-outs from two domains at once: one holds the crew, the other
   runs inline, and both are right. *)
let test_crew_concurrent () =
  let xs = Array.init 64 Fun.id in
  let expected = Array.map (fun x -> (x * x) - 3) xs in
  let run () =
    let ok = ref true in
    for _ = 1 to 100 do
      if Par.map ~domains:2 (fun x -> (x * x) - 3) xs <> expected then
        ok := false
    done;
    !ok
  in
  let a = Domain.spawn run and b = Domain.spawn run in
  let ok_a = Domain.join a and ok_b = Domain.join b in
  Alcotest.(check bool) "first domain" true ok_a;
  Alcotest.(check bool) "second domain" true ok_b

(* Each participant records its share of a fan-out under its own
   [par.domain<k>] node of the submitter's tree. *)
let test_fanout_spans_graft () =
  let domains = 4 in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      ignore
        (meet ~domains (fun _ -> Obs.span "t" (fun () -> Obs.count "c")));
      let participant s =
        match s.Obs.sp_children with
        | [ t ] when t.Obs.sp_name = "t" && t.Obs.sp_children = [] ->
          (s.Obs.sp_name, t.Obs.sp_count)
        | _ -> Alcotest.failf "%s: not one leaf span t" s.Obs.sp_name
      in
      match Obs.spans () with
      | [ m ] when m.Obs.sp_name = "par.map" ->
        let shares = List.map participant m.Obs.sp_children in
        Alcotest.(check (list string)) "one node per participant"
          (List.init domains (Printf.sprintf "par.domain%d"))
          (List.sort compare (List.map fst shares));
        Alcotest.(check int) "every task's span" domains
          (List.fold_left (fun a (_, n) -> a + n) 0 shares);
        Alcotest.(check (list (pair string int))) "every task's count"
          [ ("c", domains) ] (Obs.counters ())
      | _ -> Alcotest.fail "expected one top-level par.map span")

let test_default_domains_env () =
  Alcotest.(check bool) "recommended >= 1" true (Par.recommended () >= 1);
  Alcotest.(check bool) "default >= 1" true (Par.default_domains () >= 1)

let () =
  Alcotest.run "rsg_par"
    [ ("map",
       [ Alcotest.test_case "matches sequential" `Quick
           test_map_matches_sequential;
         Alcotest.test_case "chunked matches sequential" `Quick
           test_chunked_map_matches_sequential;
         Alcotest.test_case "deterministic order" `Quick
           test_deterministic_order ]);
      ("failure",
       [ Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates ]);
      ("crew",
       [ Alcotest.test_case "reuse" `Quick test_crew_reuse;
         Alcotest.test_case "growth" `Quick test_crew_growth;
         Alcotest.test_case "nested" `Quick test_crew_nested;
         Alcotest.test_case "concurrent" `Quick test_crew_concurrent ]);
      ("obs",
       [ Alcotest.test_case "fan-out spans graft under the submitter" `Quick
           test_fanout_spans_graft ]);
      ("config",
       [ Alcotest.test_case "domain counts" `Quick test_default_domains_env ])
    ]
