(* Tests for lib/obs: span nesting/aggregation, counters, the
   disabled-by-default no-op path, and the JSON rendering. *)

module Obs = Rsg_obs.Obs

let fresh () =
  Obs.reset ();
  Obs.enable ()

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  Obs.count "ignored";
  let r = Obs.span "ignored" (fun () -> 42) in
  Alcotest.(check int) "span passes value through" 42 r;
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.counters ());
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()))

let test_counters_accumulate () =
  fresh ();
  Obs.count "a";
  Obs.count ~n:5 "a";
  Obs.count ~n:2 "b";
  Obs.disable ();
  Obs.count "a";
  (* ignored: disabled *)
  Alcotest.(check (list (pair string int)))
    "sorted totals"
    [ ("a", 6); ("b", 2) ]
    (Obs.counters ())

let test_spans_nest_and_aggregate () =
  fresh ();
  for _ = 1 to 3 do
    Obs.span "outer" (fun () ->
        Obs.span "inner" (fun () -> ());
        Obs.span "inner" (fun () -> ()))
  done;
  Obs.disable ();
  match Obs.spans () with
  | [ outer ] ->
    Alcotest.(check string) "outer name" "outer" outer.Obs.sp_name;
    Alcotest.(check int) "outer entered 3x" 3 outer.Obs.sp_count;
    (match outer.Obs.sp_children with
    | [ inner ] ->
      (* same name under the same parent aggregates: 2 entries x 3 loops *)
      Alcotest.(check string) "inner name" "inner" inner.Obs.sp_name;
      Alcotest.(check int) "inner entered 6x" 6 inner.Obs.sp_count;
      Alcotest.(check bool) "child time <= parent time" true
        (inner.Obs.sp_total <= outer.Obs.sp_total +. 1e-9)
    | l ->
      Alcotest.fail
        (Printf.sprintf "expected one aggregated child, got %d"
           (List.length l)))
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected one top-level span, got %d" (List.length l))

let test_span_survives_raise () =
  fresh ();
  (try Obs.span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  (* the stack was unwound: a sibling span lands at top level, not
     under "boom" *)
  Obs.span "after" (fun () -> ());
  Obs.disable ();
  let names = List.map (fun s -> s.Obs.sp_name) (Obs.spans ()) in
  Alcotest.(check (list string)) "both top-level" [ "boom"; "after" ] names

let test_json_mentions_everything () =
  fresh ();
  Obs.span "phase \"one\"" (fun () -> Obs.count "widgets");
  Obs.disable ();
  let j = Rsg_obs.Json.to_string (Obs.to_json ()) in
  let contains sub =
    let n = String.length sub and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped span name" true
    (contains "phase \\\"one\\\"");
  Alcotest.(check bool) "counter present" true (contains "\"widgets\"");
  Alcotest.(check bool) "top-level keys" true
    (contains "\"spans\"" && contains "\"counters\"")

let test_reset_clears () =
  fresh ();
  Obs.count "a";
  Obs.span "s" (fun () -> ());
  Obs.reset ();
  Obs.disable ();
  Alcotest.(check (list (pair string int))) "counters gone" []
    (Obs.counters ());
  Alcotest.(check int) "spans gone" 0 (List.length (Obs.spans ()))

(* Each domain records its own span tree: spans opened on several
   domains at once never nest into one another's. *)
let test_concurrent_domains () =
  fresh ();
  let rec paths prefix s =
    let p = prefix ^ "/" ^ s.Obs.sp_name in
    (p, s.Obs.sp_count) :: List.concat_map (paths p) s.Obs.sp_children
  in
  let run () =
    for _ = 1 to 10_000 do
      Obs.span "a" (fun () -> Obs.span "b" ignore)
    done;
    List.concat_map (paths "") (Obs.spans ())
  in
  let others = List.init 2 (fun _ -> Domain.spawn run) in
  let mine = run () in
  let trees = mine :: List.map Domain.join others in
  Obs.disable ();
  List.iteri
    (fun i tree ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "domain %d's own tree" i)
        [ ("/a", 10_000); ("/a/b", 10_000) ]
        tree)
    trees

let () =
  Alcotest.run "rsg_obs"
    [ ("obs",
       [ Alcotest.test_case "disabled is a no-op" `Quick
           test_disabled_records_nothing;
         Alcotest.test_case "counters accumulate" `Quick
           test_counters_accumulate;
         Alcotest.test_case "spans nest and aggregate" `Quick
           test_spans_nest_and_aggregate;
         Alcotest.test_case "span survives raise" `Quick
           test_span_survives_raise;
         Alcotest.test_case "json rendering" `Quick
           test_json_mentions_everything;
         Alcotest.test_case "reset clears" `Quick test_reset_clears;
         Alcotest.test_case "spans on concurrent domains never interleave"
           `Quick test_concurrent_domains ]) ]
