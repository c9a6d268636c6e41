(* The benchmark's own arithmetic, its request generator, and a tiny-size
   smoke run of each workload. *)

open Perfbench
module J = Sun_serve.Json

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let test_percentile () =
  let xs = List.rev (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "p50 is the 5th of 10" 5. (Stats.percentile xs 50.);
  Alcotest.check close "p90 is the 9th of 10" 9. (Stats.percentile xs 90.);
  Alcotest.check close "p91 is the 10th of 10" 10. (Stats.percentile xs 91.);
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile xs 0.);
  Alcotest.check close "p100 is the maximum" 10. (Stats.percentile xs 100.);
  Alcotest.check close "one sample" 3. (Stats.percentile [ 3. ] 90.);
  (* two modes of equal size: the median is a sample of the lower mode *)
  Alcotest.check close "no invented latency in a gap" 30.
    (Stats.percentile [ 10.; 30.; 700.; 1000.; 10.; 30.; 700.; 1000. ] 50.);
  Alcotest.check close "median of an even count" 5.5 (Stats.median xs);
  Alcotest.check close "median of an odd count" 2. (Stats.median [ 3.; 1.; 2. ])

let test_column_medians () =
  let rows = [ [| 1.; 30. |]; [| 3.; 10. |]; [| 2.; 20. |]; [| 100.; 40. |] ] in
  Alcotest.(check (list close)) "median of each column" [ 2.5; 25. ] (Stats.column_medians rows);
  Alcotest.(check (list close)) "one row" [ 1.; 30. ] (Stats.column_medians [ List.hd rows ])

let test_percentile_choice () =
  let pick n = Option.value ~default:0. (Stats.highest_supported n) in
  Alcotest.(check int) "100 samples keep 10 beyond p90" 10 (Stats.beyond ~n:100 90.);
  Alcotest.check close "100 samples support p90" 90. (pick 100);
  Alcotest.check close "99 samples support only p50" 50. (pick 99);
  Alcotest.check close "200 samples support p95" 95. (pick 200);
  Alcotest.check close "1000 samples support p99" 99. (pick 1000);
  Alcotest.check close "20 samples support p50" 50. (pick 20);
  Alcotest.(check bool) "19 samples support nothing" true (Stats.highest_supported 19 = None)

let test_geomean () =
  Alcotest.check close "geomean 1, 100" 10. (Stats.geomean [ 1.; 100. ]);
  Alcotest.check close "geomean 2, 8" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check (Alcotest.float 1e6) "geomean of large EDPs" 1e20 (Stats.geomean [ 1e18; 1e22 ]);
  Alcotest.check_raises "zero is rejected" (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

let test_quartiles_match_python () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let q xs = Stats.python_quartiles xs in
  let check name (a, b, c) (x, y, z) =
    Alcotest.check close (name ^ " q1") a x;
    Alcotest.check close (name ^ " q2") b y;
    Alcotest.check close (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check "five unsorted" (2.375, 4.0, 8.25) (q [ 3.5; 1.25; 9.0; 4.0; 7.5 ]);
  check "two" (0.75, 1.5, 2.25) (q [ 2.0; 1.0 ]);
  Alcotest.check close "iqr of 1..10" 5.5
    (Stats.iqr (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "iqr of one sample" 0. (Stats.iqr [ 4. ])

let test_self_time () =
  Alcotest.check close "no children" 10. (Stats.self_time ~start:0. ~stop:10. []);
  (* [1,3] and [2,5] overlap into [1,5]; [8,12] is clipped to [8,10] *)
  Alcotest.check close "overlapping and clipped children" 4.
    (Stats.self_time ~start:0. ~stop:10. [ (1., 3.); (2., 5.); (8., 12.) ]);
  Alcotest.check close "a child outside the span" 10.
    (Stats.self_time ~start:0. ~stop:10. [ (11., 12.) ]);
  Alcotest.check close "a child covering the span" 0.
    (Stats.self_time ~start:2. ~stop:4. [ (0., 10.) ])

let test_server_wait () =
  Alcotest.check close "latency minus wall_s" 10.
    (Stats.server_wait_ms ~latency_s:0.012 ~wall_s:0.002);
  Alcotest.check close "a negative difference reads as no wait" 0.
    (Stats.server_wait_ms ~latency_s:0.001 ~wall_s:0.0011)

let test_span_summary () =
  let t = Spans.create ~enabled:true in
  let root = Spans.record t ~req:0 "request" ~start:0. ~stop:10. in
  ignore (Spans.record t ~parent:root ~req:0 "optimize" ~start:1. ~stop:7.);
  match Spans.summary t with
  | [ ("optimize", (1, 6., 6.)); ("request", (1, 10., 4.)) ] -> ()
  | _ -> Alcotest.fail "unexpected span summary"

(* ------------------------------------------------------------------ *)
(* The serve-mix generator                                             *)
(* ------------------------------------------------------------------ *)

let lines ?tiny seed n = List.map (fun r -> r.Gen.line) (Gen.take (Gen.create ?tiny ~seed ()) n)

let test_generator_deterministic () =
  let a = lines ~tiny:true 7 400 and b = lines ~tiny:true 7 400 in
  Alcotest.(check string) "same seed, same bytes" (String.concat "\n" a) (String.concat "\n" b);
  Alcotest.(check bool) "another seed, another stream" true (a <> lines ~tiny:true 8 400)

let test_generator_mix () =
  let g = Gen.create ~seed:11 () in
  let reqs = Gen.take g 4000 in
  let frac p = float_of_int (List.length (List.filter p reqs)) /. 4000. in
  let ill = frac (fun r -> match r.Gen.kind with Gen.Ill_formed _ -> true | _ -> false) in
  let eval = frac (fun r -> match r.Gen.kind with Gen.Evaluate _ -> true | _ -> false) in
  let has field r = Result.is_ok (Result.bind (J.of_string r.Gen.line) (J.field field)) in
  let deadline = frac (has "deadline_ms") in
  Alcotest.(check bool) "a few ill-formed archs" true (ill > 0.01 && ill < 0.04);
  Alcotest.(check bool) "about one in ten evaluates" true (eval > 0.07 && eval < 0.13);
  Alcotest.(check bool) "about half carry a deadline" true (deadline > 0.45 && deadline < 0.55);
  let fixed = Gen.fixed_count g in
  let first_new =
    List.filter_map (fun r -> match r.Gen.kind with Gen.Search i -> Some i | _ -> None) reqs
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "the whole fixed set appears" true
    (List.for_all (fun i -> List.mem i first_new) (List.init fixed Fun.id));
  Alcotest.(check bool) "every line is a JSON object with an id" true
    (List.for_all (has "id") reqs)

(* ------------------------------------------------------------------ *)
(* Smoke runs                                                          *)
(* ------------------------------------------------------------------ *)

let benchmark_names key =
  let ic = open_in "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Result.bind (J.of_string text) (J.field key) with
  | Ok (J.List ms) ->
    List.map
      (fun m ->
        match (J.member "name" m, J.member "unit" m) with
        | Some (J.String n), Some (J.String u) -> (n, u)
        | _ -> Alcotest.fail "BENCHMARK.json metric without name or unit")
      ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let test_names_match_benchmark_json () =
  Alcotest.(check (list (pair string string))) "end_to_end" (benchmark_names "end_to_end")
    Metric_names.end_to_end;
  Alcotest.(check (list (pair string string))) "per_layer" (benchmark_names "per_layer")
    Metric_names.per_layer

let check_report ~trace (r : Report.t) =
  Alcotest.(check int) "no failures" 0 r.Report.failed;
  Alcotest.(check bool) "attempted" true (r.Report.attempted > 0);
  let expected = if trace then Metric_names.per_layer else Metric_names.end_to_end in
  Alcotest.(check (list (pair string string))) "metric names and units" expected
    (List.map (fun m -> (m.Report.name, m.Report.unit)) r.Report.metrics);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Report.name ^ " is finite") true (Float.is_finite m.Report.value);
      if not trace then
        Alcotest.(check bool) (m.Report.name ^ " is positive") true (m.Report.value > 0.))
    r.Report.metrics;
  ignore (Report.json_line r)

let smoke_search names trace () =
  check_report ~trace
    (Search_wl.run ~names:(fun () -> names) ~label:"smoke" ~seed:1 ~seconds:0.001 ~trace ~setups:1
       ~out_dir:".")

let smoke_serve trace () =
  check_report ~trace
    (Serve_wl.run ~tiny:true ~label:"smoke" ~seed:1 ~seconds:0.001 ~trace ~setups:1 ~out_dir:"." ())

let () =
  Serve_wl.daemon_entry ();
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "column medians" `Quick test_column_medians;
          Alcotest.test_case "percentile choice keeps 10 beyond" `Quick test_percentile_choice;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "server wait subtraction" `Quick test_server_wait;
          Alcotest.test_case "span summary" `Quick test_span_summary;
        ] );
      ( "generator",
        [
          Alcotest.test_case "same seed, byte-identical stream" `Quick test_generator_deterministic;
          Alcotest.test_case "request mix" `Quick test_generator_mix;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick
            test_names_match_benchmark_json;
          Alcotest.test_case "dnn-simba (one layer)" `Quick
            (smoke_search [ "resnet18/conv5_ds" ] false);
          Alcotest.test_case "dnn-simba traced (one layer)" `Quick
            (smoke_search [ "resnet18/conv5_ds" ] true);
          Alcotest.test_case "tensor-simba (one layer)" `Quick
            (smoke_search [ "sddmm/cant" ] false);
          Alcotest.test_case "serve-mix (tiny universe)" `Quick (smoke_serve false);
          Alcotest.test_case "serve-mix traced (tiny universe)" `Quick (smoke_serve true);
        ] );
    ]
