(* Tests of the benchmark's own measurement helpers. *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))
let check_float = Alcotest.(check (float 1e-9))

let test_percentile_exact () =
  (* 1000 samples: the nearest-rank p99 (the 990th) has exactly 10 above. *)
  let p = Helpers.percentile ~q:0.99 (samples 1000) in
  check_float "value" 990.0 p.Helpers.value;
  check_float "q" 0.99 p.Helpers.q;
  Alcotest.(check int) "count" 1000 p.Helpers.samples

let test_percentile_steps_down () =
  (* 999 samples: the nearest-rank p99 would leave 9 above, so step down. *)
  let p = Helpers.percentile ~q:0.99 (samples 999) in
  check_float "value" 989.0 p.Helpers.value;
  check_float "q" (989.0 /. 999.0) p.Helpers.q;
  (* 100 samples support p90 at most. *)
  let p = Helpers.percentile ~q:0.99 (samples 100) in
  check_float "value" 90.0 p.Helpers.value;
  check_float "q" 0.90 p.Helpers.q

let test_percentile_few_samples () =
  let p = Helpers.percentile ~q:0.5 [| 3.0; 1.0; 2.0 |] in
  check_float "minimum" 1.0 p.Helpers.value;
  Alcotest.(check int) "count" 3 p.Helpers.samples;
  Alcotest.check_raises "empty" (Invalid_argument "Helpers.percentile: no samples") (fun () ->
      ignore (Helpers.percentile ~q:0.5 [||]))

let test_percentile_unsorted () =
  let a = Array.init 50 (fun i -> float_of_int ((i * 37) mod 50)) in
  let p = Helpers.percentile ~q:0.5 a in
  check_float "median rank" 24.0 p.Helpers.value;
  Alcotest.(check bool) "input untouched" true (a.(1) = 37.0)

let test_median () =
  check_float "odd" 2.0 (Helpers.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Helpers.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_fastest () =
  let f = Helpers.fastest [ [| 3.0; 1.0; 5.0 |]; [| 2.0; 4.0 |]; [| 9.0; 0.5; 1.0 |] ] in
  Alcotest.(check (array (float 0.0))) "element-wise minimum, shortest length" [| 2.0; 0.5 |] f;
  Alcotest.check_raises "no repetitions" (Invalid_argument "Helpers.fastest: no repetitions")
    (fun () -> ignore (Helpers.fastest []))

(* A hand-advanced clock: each reading returns the next scripted time. *)
let scripted times =
  let q = Queue.of_seq (List.to_seq times) in
  fun () -> Queue.pop q

let test_self_time () =
  (* A [0,100] holds B [10,40] (which holds C [20,25]) and B [50,60]. *)
  let clock = scripted [ 0; 10; 20; 25; 40; 50; 60; 100 ] in
  let s = Helpers.Spans.create ~clock [| "a"; "b"; "c" |] in
  Helpers.Spans.span s 0 (fun () ->
      Helpers.Spans.span s 1 (fun () -> Helpers.Spans.span s 2 ignore);
      Helpers.Spans.span s 1 ignore);
  let self k = Helpers.Spans.self s k in
  Alcotest.(check int) "a self" 60 (self 0);
  Alcotest.(check int) "b self" 35 (self 1);
  Alcotest.(check int) "c self" 5 (self 2);
  Alcotest.(check int) "b count" 2 (Helpers.Spans.count s 1);
  Alcotest.(check int) "self times partition the root" 100 (Helpers.Spans.self_sum s)

let test_self_time_exception () =
  let clock = scripted [ 0; 5; 7; 10 ] in
  let s = Helpers.Spans.create ~clock [| "a"; "b" |] in
  Helpers.Spans.span s 0 (fun () ->
      try Helpers.Spans.span s 1 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "a self" 8 (Helpers.Spans.self s 0);
  Alcotest.(check int) "b self" 2 (Helpers.Spans.self s 1)

let test_mismatched_exit () =
  let s = Helpers.Spans.create ~clock:(fun () -> 0) [| "a"; "b" |] in
  Helpers.Spans.enter s 0;
  Alcotest.check_raises "wrong span"
    (Invalid_argument "Spans.exit: b is not the innermost open span") (fun () ->
      Helpers.Spans.exit s 1)

let test_names () =
  let ok = [ "ops_per_s"; "net.msgs_per_op.copy_grant"; "9lives"; String.make 64 'x' ] in
  let bad = [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'x' ] in
  List.iter (fun n -> Alcotest.(check bool) n true (Helpers.valid_name n)) ok;
  List.iter (fun n -> Alcotest.(check bool) n false (Helpers.valid_name n)) bad;
  List.iter (fun u -> Alcotest.(check bool) u true (Helpers.valid_unit u)) [ "ms"; "1/s"; "%"; "msg/op" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Helpers.valid_unit u))
    [ ""; "m s"; "µs"; String.make 17 'u' ]

let test_catalog () =
  let all = Helpers.end_to_end @ Helpers.per_layer in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool) name true (Helpers.valid_name name && Helpers.valid_unit unit))
    all;
  let names = List.map fst all in
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s in seconds" true (List.assoc_opt "setup_s" Helpers.end_to_end = Some "s")

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "exact p99" `Quick test_percentile_exact;
          Alcotest.test_case "steps down to 10 beyond" `Quick test_percentile_steps_down;
          Alcotest.test_case "few samples" `Quick test_percentile_few_samples;
          Alcotest.test_case "unsorted input" `Quick test_percentile_unsorted;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "fastest repetitions" `Quick test_fastest;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_self_time;
          Alcotest.test_case "exception closes span" `Quick test_self_time_exception;
          Alcotest.test_case "mismatched exit" `Quick test_mismatched_exit;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name and unit rules" `Quick test_names;
          Alcotest.test_case "catalog" `Quick test_catalog;
        ] );
    ]
