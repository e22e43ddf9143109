(* Tests of the benchmark's own logic: tail-percentile selection, the
   span self-time fold, and the answer oracles on a 2-source
   federation. *)

open Disco
open Perfbench

(* -- percentiles -- *)

let test_supported () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) expected
      (Quantile.supported n)
  in
  check 10_000 (Some 99.0);
  check 1000 (Some 99.0);
  check 999 (Some 90.0);
  check 100 (Some 90.0);
  check 99 (Some 50.0);
  check 20 (Some 50.0);
  check 19 None

let test_tail () =
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "p99 of 1..1000" (99.0, 990.0)
    (Quantile.tail a);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "p90 of 1..100" (90.0, 90.0)
    (Quantile.tail (Array.init 100 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (pair (float 0.0) (float 0.0))) "max of a tiny sample" (100.0, 5.0)
    (Quantile.tail [| 3.0; 5.0; 1.0 |]);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Quantile.median [| 4.0; 1.0; 3.0; 2.0 |])

(* -- span self time -- *)

let span id parent start stop =
  {
    Span.id;
    parent;
    req = 0;
    name = "s";
    start_ns = Int64.of_int start;
    stop_ns = Int64.of_int stop;
    attrs = [];
  }

let test_self_times () =
  let spans =
    [
      span 0 (-1) 0 100;
      (* two overlapping children (parallel work) count once *)
      span 1 0 10 40;
      span 2 0 30 60;
      span 3 0 80 90;
      (* a child running past its parent is clipped to the parent *)
      span 4 0 95 120;
      span 5 1 15 20;
    ]
  in
  let self = Span.self_times spans in
  let get id = Int64.to_int (Hashtbl.find self id) in
  Alcotest.(check int) "root" (100 - 50 - 10 - 5) (get 0);
  Alcotest.(check int) "child with a grandchild" 25 (get 1);
  Alcotest.(check int) "leaf" 30 (get 2);
  Alcotest.(check int) "clipped leaf keeps its own time" 25 (get 4);
  Alcotest.(check int) "grandchild" 5 (get 5)

let test_recorder () =
  let t = Span.create () in
  let r = Span.with_span t ~parent:(-1) ~req:7 "outer" (fun id ->
      Span.with_span t ~parent:id ~req:7 "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "result" 42 r;
  match Span.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "inner" inner.Span.name;
      Alcotest.(check int) "parent link" outer.Span.id inner.Span.parent;
      Alcotest.(check int) "request" 7 inner.Span.req
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

(* -- oracles on a 2-source federation -- *)

let spec ?(schedule = fun _ -> Schedule.always_up) () =
  {
    Fed.sources = 2;
    rows = 10;
    latency = Fed.seeded_latency ~seed:3;
    schedule;
    cache = false;
  }

let queries n =
  [
    Fed.names_above ~n 200;
    Fed.window ~n ~lo:100 ~hi:300;
    Fed.id_and_salary ~n ~k:150 ~bound:5;
    Fed.join ~left:0 ~right:1 ~k:100 ~bound:400;
  ]

let answer (fed : Fed.t) (q : Fed.query) = (Mediator.query fed.Fed.med q.Fed.text).Mediator.answer

let test_complete () =
  let fed = Fed.build ~seed:3 (spec ()) in
  let rows_of = Fed.current_rows fed in
  List.iter
    (fun (q : Fed.query) ->
      let v = Fed.check ~rows_of ~down:[] q (answer fed q) in
      Alcotest.(check bool) q.Fed.text true (v.Fed.ok && v.Fed.complete);
      (* the oracle rejects the answer when every row is expected twice *)
      let other i = rows_of i @ rows_of i in
      let v' = Fed.check ~rows_of:other ~down:[] q (answer fed q) in
      Alcotest.(check bool) ("detects a wrong answer: " ^ q.Fed.text) false v'.Fed.ok)
    (queries 2)

let test_after_write () =
  let fed = Fed.build ~seed:3 (spec ()) in
  let q = Fed.names_above ~n:2 10 in
  Table.insert fed.Fed.tables.(1) (Fed.to_array { Fed.id = 99; name = "late"; salary = 400 });
  let v = Fed.check ~rows_of:(Fed.current_rows fed) ~down:[] q (answer fed q) in
  Alcotest.(check bool) "sees the written row" true v.Fed.ok

let test_partial () =
  let fed =
    Fed.build ~seed:3
      (spec ~schedule:(fun i -> if i = 1 then Schedule.always_down else Schedule.always_up) ())
  in
  let rows_of = Fed.current_rows fed in
  let q = Fed.window ~n:2 ~lo:50 ~hi:450 in
  let a = answer fed q in
  (match a with
  | Mediator.Partial _ -> ()
  | _ -> Alcotest.fail "expected a partial answer");
  let v = Fed.check ~rows_of ~down:[ 1 ] q a in
  Alcotest.(check bool) "residual completes to the answer" true v.Fed.ok;
  Alcotest.(check (float 1e-9)) "half the sources answered" 0.5 v.Fed.fraction;
  let v' = Fed.check ~rows_of ~down:[] q a in
  Alcotest.(check bool) "unavailable must have been down" false v'.Fed.ok

let test_serve_oracle () =
  let fed = Fed.build ~seed:3 (spec ()) in
  let q = Fed.names_above ~n:2 100 in
  let expected =
    Runtime.answer_oql (Runtime.Complete (q.Fed.expected (Fed.current_rows fed)))
  in
  Alcotest.(check string) "rendered answers match" expected (Mediator.answer_oql (answer fed q))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "supported level" `Quick test_supported;
          Alcotest.test_case "tail value" `Quick test_tail;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self-time fold" `Quick test_self_times;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "complete answers" `Quick test_complete;
          Alcotest.test_case "after a source write" `Quick test_after_write;
          Alcotest.test_case "partial answer" `Quick test_partial;
          Alcotest.test_case "serve rendering" `Quick test_serve_oracle;
        ] );
    ]
