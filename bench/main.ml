(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (run with no arguments or a subset of
   table1/table3/table6/fig6/fig7/fig8/fig9, plus the extra
   ablation/versatility/scalability studies), and exposes a Bechamel
   micro-benchmark suite ("micro") with one Test.make per experiment
   driver to time the generators themselves. *)

let run_experiment name driver =
  Printf.printf "==============================================================\n";
  Printf.printf "== %s\n" name;
  Printf.printf "==============================================================\n%!";
  let started = Unix.gettimeofday () in
  let output = driver () in
  print_string output;
  if output <> "" && output.[String.length output - 1] <> '\n' then print_newline ();
  Printf.printf "-- %s done in %.1fs\n\n%!" name (Unix.gettimeofday () -. started)

let micro_suite () =
  let open Bechamel in
  let quick_tests =
    [
      Test.make ~name:"table1:space-sizes"
        (Staged.stage (fun () -> ignore (Sun_experiments.Figures.table1 ())));
      Test.make ~name:"table3:reuse-inference"
        (Staged.stage (fun () -> ignore (Sun_experiments.Figures.table3 ())));
      Test.make ~name:"table6:one-layer-ablation"
        (Staged.stage (fun () -> ignore (Sun_experiments.Figures.table6 ~layers:1 ())));
      Test.make ~name:"fig6:one-mttkrp-schedule"
        (Staged.stage (fun () ->
             let w = (List.hd Sun_workloads.Non_dnn.mttkrp_suite).Sun_workloads.Non_dnn.workload in
             ignore (Sun_core.Optimizer.optimize w Sun_arch.Presets.conventional)));
      Test.make ~name:"fig7:one-weight-update-schedule"
        (Staged.stage (fun () ->
             let l = List.hd (Sun_workloads.Inception.weight_update_layers ()) in
             ignore
               (Sun_core.Optimizer.optimize l.Sun_workloads.Inception.workload
                  Sun_arch.Presets.conventional)));
      Test.make ~name:"fig8:one-resnet-simba-schedule"
        (Staged.stage (fun () ->
             let l = List.hd (Sun_workloads.Resnet18.layers ~batch:16 ()) in
             ignore
               (Sun_core.Optimizer.optimize l.Sun_workloads.Resnet18.workload
                  Sun_arch.Presets.simba_like)));
      Test.make ~name:"fig9:one-diannao-simulation"
        (Staged.stage (fun () ->
             let l = List.hd (Sun_workloads.Resnet18.layers ()) in
             let w = l.Sun_workloads.Resnet18.workload in
             match Sun_core.Optimizer.optimize w Sun_arch.Presets.diannao_like with
             | Ok r ->
               let p = Sun_diannao.Compiler.compile w r.Sun_core.Optimizer.mapping in
               ignore (Sun_diannao.Simulator.run w p)
             | Error _ -> ()));
    ]
  in
  let test = Test.make_grouped ~name:"experiments" quick_tests in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-44s %14.0f ns/run\n" name est
      | _ -> Printf.printf "%-44s (no estimate)\n" name)
    results

(* Serving-layer micro-benchmark, two parts:
   1. cache behaviour — schedule a batch twice through one persistent cache:
      run 1 pays for the searches (repeated ResNet blocks already collide
      via fingerprinting); run 2 must be cache-dominated;
   2. worker-pool scaling — a cold-cache registry sweep at increasing
      --jobs, so the fork-based pool's throughput gain is measurable
      (expect ~linear until the core count, ~flat beyond it). *)
let serve_bench () =
  let requests =
    List.concat_map
      (fun name -> [ Printf.sprintf {|{"v":1,"workload":%S,"arch":"toy"}|} name ])
      (List.filter
         (fun n ->
           String.length n > 9 && String.sub n 0 9 = "resnet18/")
         (List.map fst (Sun_serve.Registry.workloads ())))
  in
  let reqs_path = Filename.temp_file "sunstone_serve" ".jsonl" in
  let oc = open_out reqs_path in
  List.iter (fun l -> output_string oc (l ^ "\n")) requests;
  close_out oc;
  let fresh_dir () =
    let d = Filename.temp_file "sunstone_cache" "" in
    Sys.remove d;
    d
  in
  let run ?(jobs = 1) ~cache_dir label =
    let cache = Sun_serve.Cache.create ~dir:cache_dir () in
    let started = Unix.gettimeofday () in
    let summary =
      Sun_serve.Pipeline.run_files ~cache ~jobs ~input:reqs_path ~output:Filename.null ()
    in
    Printf.printf "%-18s %6.3fs  %s\n%!" label
      (Unix.gettimeofday () -. started)
      (Sun_serve.Pipeline.summary_line summary);
    summary
  in
  let cache_dir = fresh_dir () in
  Printf.printf "serve: %d requests (resnet18 layers on toy), cache at %s\n%!"
    (List.length requests) cache_dir;
  let first = run ~cache_dir "run 1 (cold)" in
  let second = run ~cache_dir "run 2 (warm)" in
  let hit_rate s =
    if s.Sun_serve.Pipeline.requests = 0 then 0.0
    else
      100.0 *. float_of_int s.Sun_serve.Pipeline.hits /. float_of_int s.Sun_serve.Pipeline.requests
  in
  Printf.printf "hit rate: %.0f%% cold, %.0f%% warm\n\n" (hit_rate first) (hit_rate second);
  (* jobs sweep: every run starts from a fresh cache directory so each one
     pays for the same searches; the only variable is the worker count. *)
  Printf.printf "serve: cold-cache --jobs sweep (%d cores available)\n%!"
    (try
       let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
       let n = try int_of_string (String.trim (input_line ic)) with _ -> 1 in
       ignore (Unix.close_process_in ic);
       n
     with _ -> 1);
  let baseline = ref None in
  List.iter
    (fun jobs ->
      let started = Unix.gettimeofday () in
      let s = run ~jobs ~cache_dir:(fresh_dir ()) (Printf.sprintf "cold --jobs %d" jobs) in
      let elapsed = Unix.gettimeofday () -. started in
      let throughput = float_of_int s.Sun_serve.Pipeline.requests /. elapsed in
      (match !baseline with
      | None -> baseline := Some throughput
      | Some _ -> ());
      let speedup =
        match !baseline with Some b when b > 0.0 -> throughput /. b | _ -> 1.0
      in
      Printf.printf "  jobs %-2d %8.2f req/s  %5.2fx vs jobs 1\n%!" jobs throughput speedup)
    [ 1; 2; 4 ];
  Sys.remove reqs_path

(* Daemon latency: fork a `serve` daemon on a Unix socket, then drive it
   closed-loop (one request in flight) through three replays of the same
   resnet18-on-toy catalog. Round 1 pays for the searches; rounds 2-3 must
   be cache-dominated, so per-request latency percentiles collapse and the
   hit rate climbs. Persists per-round p50/p95/p99 and hit rates to
   BENCH_serve.json and exits non-zero if the warm rounds fail to go
   fully cache-resident. *)
let serve_daemon_bench () =
  let module Json = Sun_serve.Json in
  let module Server = Sun_serve.Server in
  let requests =
    List.map
      (fun name -> Printf.sprintf {|{"v":1,"workload":%S,"arch":"toy"}|} name)
      (List.filter
         (fun n -> String.length n > 9 && String.sub n 0 9 = "resnet18/")
         (List.map fst (Sun_serve.Registry.workloads ())))
  in
  let tmp_base = Filename.temp_file "sunstone_daemon" "" in
  Sys.remove tmp_base;
  Unix.mkdir tmp_base 0o755;
  let sock_path = Filename.concat tmp_base "sunstone.sock" in
  let addr = Server.Unix_socket sock_path in
  let listen_fd =
    match Server.listener addr with
    | Ok fd -> fd
    | Error msg ->
      Printf.eprintf "serve-daemon: cannot listen: %s\n" msg;
      exit 2
  in
  let child = Unix.fork () in
  if child = 0 then begin
    (* daemon process: fresh disk cache, two workers, drain on SIGTERM *)
    let drain = ref false in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
    let cache = Sun_serve.Cache.create ~dir:(Filename.concat tmp_base "cache") () in
    ignore (Server.serve ~cache ~jobs:2 ~drain_flag:drain ~listen_fd ());
    Unix._exit 0
  end;
  Unix.close listen_fd;
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let round _i =
    match Server.connect addr with
    | Error msg ->
      Printf.eprintf "serve-daemon: cannot connect: %s\n" msg;
      exit 2
    | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let latencies =
        List.map
          (fun req ->
            let t0 = Sun_util.Stopwatch.monotonic_now () in
            output_string oc (req ^ "\n");
            flush oc;
            let resp = input_line ic in
            let dt = Sun_util.Stopwatch.monotonic_now () -. t0 in
            let hit =
              match Json.of_string resp with
              | Ok j -> Json.member "status" j = Some (Json.String "hit")
              | Error _ -> false
            in
            (dt, hit))
          requests
      in
      close_out_noerr oc;
      (try close_in ic with Sys_error _ -> ());
      let sorted = Array.of_list (List.map fst latencies) in
      Array.sort compare sorted;
      let hits = List.length (List.filter snd latencies) in
      let n = List.length latencies in
      let hit_rate = if n = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int n in
      ( 1e3 *. percentile sorted 0.50,
        1e3 *. percentile sorted 0.95,
        1e3 *. percentile sorted 0.99,
        hit_rate )
  in
  (* wait until the daemon accepts (the listener already exists, so one
     connect attempt is normally enough) *)
  Printf.printf "serve-daemon: %d requests/round on %s, 3 rounds\n%!" (List.length requests)
    sock_path;
  let rounds = List.map round [ 1; 2; 3 ] in
  List.iteri
    (fun i (p50, p95, p99, rate) ->
      Printf.printf "  round %d: p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  hit rate %5.1f%%\n%!"
        (i + 1) p50 p95 p99 rate)
    rounds;
  Unix.kill child Sys.sigterm;
  let _, status = Unix.waitpid [] child in
  let drained = status = Unix.WEXITED 0 in
  let rates = List.map (fun (_, _, _, r) -> r) rounds in
  let cold_rate = List.nth rates 0 in
  let warm_rates = List.tl rates in
  let pass = drained && List.for_all (fun r -> r >= 99.0 && r > cold_rate) warm_rates in
  Printf.printf "  drain: %s; hit rate %s\n%!"
    (if drained then "clean (exit 0)" else "FAILED")
    (if List.for_all (fun r -> r > cold_rate) warm_rates then "climbs" else "DOES NOT CLIMB");
  let out = "BENCH_serve.json" in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "serve_daemon",
              Json.Obj
                [
                  ("requests_per_round", Json.Int (List.length requests));
                  ( "rounds",
                    Json.List
                      (List.map
                         (fun (p50, p95, p99, rate) ->
                           Json.Obj
                             [
                               ("p50_ms", Json.Float p50);
                               ("p95_ms", Json.Float p95);
                               ("p99_ms", Json.Float p99);
                               ("hit_rate_pct", Json.Float rate);
                             ])
                         rounds) );
                  ("drained_clean", Json.Bool drained);
                  ("pass", Json.Bool pass);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "serve-daemon: wrote %s\n" out;
  if not pass then exit 1

(* Auditor scaling: time Audit.check_kernels over growing prefixes of the
   bundled kernel family and persist the curve (plus the per-kernel
   exhaustive-enumeration sizes that drive it) to BENCH_audit.json, so the
   differential oracle's cost stays visible as kernels are added. *)
let audit_bench () =
  let module Audit = Sun_analysis.Audit in
  let module Json = Sun_serve.Json in
  let total = List.length (Audit.kernels ()) in
  Printf.printf "audit: differential oracle over %d bundled kernels\n%!" total;
  let rows =
    List.map
      (fun limit ->
        let started = Unix.gettimeofday () in
        let reports = Audit.check_kernels ~limit () in
        let elapsed = Unix.gettimeofday () -. started in
        let mappings =
          List.fold_left (fun acc r -> acc + r.Audit.mappings_enumerated) 0 reports
        in
        let diags =
          List.fold_left (fun acc r -> acc + List.length r.Audit.diagnostics) 0 reports
        in
        Printf.printf "  kernels %-2d %8.3fs  %7d mappings enumerated, %d diagnostics\n%!"
          limit elapsed mappings diags;
        Json.Obj
          [
            ("kernels", Json.Int limit);
            ("wall_s", Json.Float elapsed);
            ("mappings_enumerated", Json.Int mappings);
            ("diagnostics", Json.Int diags);
            ( "reports",
              Json.List
                (List.map
                   (fun r ->
                     Json.Obj
                       [
                         ("kernel", Json.String r.Audit.kernel);
                         ("orders_kept", Json.Int r.Audit.orders_kept);
                         ("orders_total", Json.Int r.Audit.orders_total);
                         ("frontier_checked", Json.Int r.Audit.frontier_checked);
                         ("mappings_enumerated", Json.Int r.Audit.mappings_enumerated);
                         ("exhaustive_edp", Json.Float r.Audit.exhaustive_edp);
                         ("search_edp", Json.Float r.Audit.search_edp);
                       ])
                   reports) );
          ])
      (List.init total (fun i -> i + 1))
  in
  let out = "BENCH_audit.json" in
  let oc = open_out out in
  output_string oc (Json.to_string_pretty (Json.Obj [ ("audit", Json.List rows) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "audit: wrote %s\n" out

(* Telemetry overhead: the instrumentation promises to be ~free when
   disabled (the default), so time the same searches with telemetry off and
   on, interleaved min-of-N to shed scheduler noise, and assert the
   *enabled* cost stays within the 2%% budget — the disabled path does
   strictly less work (one flag load per site), so it is bounded by the
   same measurement. Persists the curve to BENCH_telemetry.json and exits
   non-zero on a budget violation so ci.sh can gate on it. *)
let telemetry_bench () =
  let module Tel = Sun_telemetry.Metrics in
  let module Json = Sun_serve.Json in
  let workloads =
    List.filteri (fun i _ -> i < 2) (Sun_workloads.Resnet18.layers ())
    |> List.map (fun l -> l.Sun_workloads.Resnet18.workload)
  in
  let arch = Sun_arch.Presets.simba_like in
  let search () =
    List.iter (fun w -> ignore (Sun_core.Optimizer.optimize w arch)) workloads
  in
  let time_once () =
    let started = Unix.gettimeofday () in
    search ();
    Unix.gettimeofday () -. started
  in
  let reps = 9 in
  Printf.printf "telemetry: %d resnet18 searches on simba, interleaved min-of-%d\n%!"
    (List.length workloads) reps;
  (* warm up allocators and caches before anything is timed *)
  search ();
  let off = ref infinity and on = ref infinity in
  for _ = 1 to reps do
    Tel.set_enabled false;
    off := Float.min !off (time_once ());
    Tel.set_enabled true;
    Tel.reset ();
    on := Float.min !on (time_once ())
  done;
  Tel.set_enabled false;
  let budget = 0.02 in
  let overhead = (!on -. !off) /. !off in
  (* sub-millisecond searches would make the ratio pure noise *)
  let pass = !on <= (!off *. (1.0 +. budget)) +. 1e-4 in
  Printf.printf "  disabled %8.4fs  enabled %8.4fs  overhead %+.2f%% (budget %.0f%%)  %s\n%!"
    !off !on (100.0 *. overhead) (100.0 *. budget)
    (if pass then "ok" else "OVER BUDGET");
  let out = "BENCH_telemetry.json" in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "telemetry",
              Json.Obj
                [
                  ("reps", Json.Int reps);
                  ("searches", Json.Int (List.length workloads));
                  ("disabled_s", Json.Float !off);
                  ("enabled_s", Json.Float !on);
                  ("overhead_frac", Json.Float overhead);
                  ("budget_frac", Json.Float budget);
                  ("pass", Json.Bool pass);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "telemetry: wrote %s\n" out;
  if not pass then exit 1

(* Time a full srclint scan of the shipping tree (lib/, bin/, bench/),
   min-of-N over a warmed page cache, and persist the corpus size plus the
   best wall time to BENCH_lint.json. Exits non-zero if the tree is not
   clean, so ci.sh can gate on the same run it times. *)
let lint_bench () =
  let module Srclint = Sun_analysis.Srclint in
  let module Json = Sun_serve.Json in
  let roots =
    List.filter (fun p -> Sys.file_exists p && Sys.is_directory p) [ "lib"; "bin"; "bench" ]
  in
  if roots = [] then begin
    Printf.eprintf "lint: no lib/, bin/ or bench/ under %s\n" (Sys.getcwd ());
    exit 2
  end;
  let scan () = Srclint.scan ~roots () in
  let r = scan () in
  let reps = 5 in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Sun_util.Stopwatch.monotonic_now () in
    ignore (scan ());
    best := Float.min !best (Sun_util.Stopwatch.monotonic_now () -. t0)
  done;
  let hits = List.length r.Srclint.hits in
  let stale = List.length r.Srclint.stale in
  let throughput = float_of_int r.Srclint.tokens_seen /. !best in
  Printf.printf
    "lint: %d files, %d tokens, %d hit(s), %d stale, min-of-%d %.4fs (%.0f ktok/s)\n%!"
    r.Srclint.files_scanned r.Srclint.tokens_seen hits stale reps !best
    (throughput /. 1e3);
  let out = "BENCH_lint.json" in
  (* regression gate against the committed baseline, before overwriting it:
     the interprocedural passes must not halve the scan throughput *)
  let regressed =
    match
      if Sys.file_exists out then Json.of_string (In_channel.with_open_text out In_channel.input_all)
      else Error "no baseline"
    with
    | Error _ -> false
    | Ok j -> (
      let get f conv = Result.bind (Result.bind (Json.field "lint" j) (Json.field f)) conv in
      match (get "tokens" Json.as_int, get "wall_s" Json.as_float) with
      | Ok tokens, Ok wall_s when tokens > 0 && wall_s > 0.0 ->
        let baseline = float_of_int tokens /. wall_s in
        if throughput < 0.5 *. baseline then begin
          Printf.eprintf
            "lint: throughput %.0f tok/s is below 0.5x the %s baseline (%.0f tok/s)\n"
            throughput out baseline;
          true
        end
        else begin
          Printf.printf "lint: throughput gate ok (%.2fx the committed baseline)\n%!"
            (throughput /. baseline);
          false
        end
      | _ -> false)
  in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "lint",
              Json.Obj
                [
                  ("reps", Json.Int reps);
                  ("files", Json.Int r.Srclint.files_scanned);
                  ("tokens", Json.Int r.Srclint.tokens_seen);
                  ("hits", Json.Int hits);
                  ("suppressed", Json.Int r.Srclint.suppressed);
                  ("stale", Json.Int stale);
                  ("wall_s", Json.Float !best);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "lint: wrote %s\n" out;
  if hits > 0 || regressed then exit 1

(* Cost-model hot path: evaluations/sec of the allocation-free evaluator
   (full and score-only) against the frozen pre-PR evaluator (Model_ref) on
   the registry's hardest kernels, min-of-N interleaved-free reps. The
   structural check every search candidate pays first, [Mapping.make] on
   the same mapping's levels, is reported beside them in ns/call (not
   gated).
   Persists everything to BENCH_evaluate.json and exits non-zero unless
   the hardest kernel clears the 2x evaluations/sec gate and every
   kernel's costs are bit-identical across evaluators. *)
let evaluate_bench () =
  let module Model = Sun_cost.Model in
  let module Ref = Sun_cost.Model_ref in
  let module Json = Sun_serve.Json in
  let arch_name = "conventional" in
  let arch = Sun_arch.Presets.conventional in
  (* hardest last: tcl (6 dims, 64^3 x 32^3) carries the acceptance gate *)
  let kernel_names = [ "mmc"; "ttmc"; "tcl" ] in
  let hardest = "tcl" in
  let reps = 7 and evals = 1000 in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to evals do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  Printf.printf "evaluate: %d evaluations/rep, min-of-%d, arch %s\n%!" evals reps arch_name;
  let gate = 2.0 in
  let gate_speedup = ref nan in
  let all_identical = ref true in
  let rows =
    List.map
      (fun name ->
        let w =
          match Sun_serve.Registry.find_workload name with
          | Ok w -> w
          | Error msg ->
            Printf.eprintf "evaluate: %s\n" msg;
            exit 2
        in
        let m =
          match Sun_core.Optimizer.optimize w arch with
          | Ok r -> r.Sun_core.Optimizer.mapping
          | Error msg ->
            Printf.eprintf "evaluate: no mapping for %s: %s\n" name msg;
            exit 2
        in
        let ctx = Model.context w arch in
        let ref_ctx = Ref.context w arch in
        (* bit-identity spot check before timing anything *)
        let identical =
          match (Model.evaluate_ctx ctx m, Ref.evaluate_ctx ref_ctx m) with
          | Ok c, Ok c' ->
            Int64.bits_of_float c.Model.energy_pj = Int64.bits_of_float c'.Ref.energy_pj
            && Int64.bits_of_float c.Model.cycles = Int64.bits_of_float c'.Ref.cycles
            && Int64.bits_of_float c.Model.edp = Int64.bits_of_float c'.Ref.edp
          | _ -> false
        in
        if not identical then all_identical := false;
        (* interleave the three evaluators rep by rep, min-of-N each, so a
           load spike hits all of them rather than skewing one ratio *)
        let levels = Array.to_list m.Sun_mapping.Mapping.levels in
        let ref_best = ref infinity and full_best = ref infinity and score_best = ref infinity in
        let make_best = ref infinity in
        for _ = 1 to reps do
          ref_best := Float.min !ref_best (time_once (fun () -> ignore (Ref.evaluate_ctx ref_ctx m)));
          full_best :=
            Float.min !full_best (time_once (fun () -> ignore (Model.evaluate_ctx ctx m)));
          score_best :=
            Float.min !score_best (time_once (fun () -> ignore (Model.score_ctx ctx m)));
          make_best :=
            Float.min !make_best
              (time_once (fun () -> ignore (Sun_mapping.Mapping.make w levels)))
        done;
        let ref_eps = float_of_int evals /. !ref_best in
        let full_eps = float_of_int evals /. !full_best in
        let score_eps = float_of_int evals /. !score_best in
        let speedup_full = full_eps /. ref_eps in
        let speedup_score = score_eps /. ref_eps in
        let make_ns = !make_best /. float_of_int evals *. 1e9 in
        if name = hardest then gate_speedup := speedup_score;
        Printf.printf
          "  %-5s ref %9.0f/s  full %9.0f/s (%.2fx)  score %9.0f/s (%.2fx)  make %5.0f ns  %s\n%!"
          name ref_eps full_eps speedup_full score_eps speedup_score make_ns
          (if identical then "bit-identical" else "COSTS DIFFER");
        Json.Obj
          [
            ("kernel", Json.String name);
            ("arch", Json.String arch_name);
            ("ref_evals_per_s", Json.Float ref_eps);
            ("full_evals_per_s", Json.Float full_eps);
            ("score_evals_per_s", Json.Float score_eps);
            ("speedup_full", Json.Float speedup_full);
            ("speedup_score", Json.Float speedup_score);
            ("make_ns_per_call", Json.Float make_ns);
            ("bit_identical", Json.Bool identical);
          ])
      kernel_names
  in
  let pass = !all_identical && !gate_speedup >= gate in
  Printf.printf "evaluate: hardest kernel %s speedup %.2fx (gate %.1fx)  %s\n%!" hardest
    !gate_speedup gate
    (if pass then "ok" else "FAILED");
  let out = "BENCH_evaluate.json" in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "evaluate",
              Json.Obj
                [
                  ("reps", Json.Int reps);
                  ("evals_per_rep", Json.Int evals);
                  ("kernels", Json.List rows);
                  ("hardest", Json.String hardest);
                  ("gate_speedup", Json.Float gate);
                  ("measured_speedup", Json.Float !gate_speedup);
                  ("bit_identical", Json.Bool !all_identical);
                  ("pass", Json.Bool pass);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "evaluate: wrote %s\n" out;
  if not pass then exit 1

(* Cross-request mapping transfer ({!Sun_serve.Transfer}): for each
   catalog (resnet18, inception on simba_like), a cold pass searches every
   layer from scratch and stores its result, then a warm pass re-runs the
   catalog against that populated cache — the steady state of a server
   that has already scheduled the rest of the network — seeding each layer
   from its nearest family member. A layer never seeds itself
   ([~exclude_self]); the exact-fingerprint repeat is the pipeline's cache
   hit, which skips the search entirely, so the bench isolates what
   cross-layer nearest-neighbor transfer buys a search that must still
   run. Each search is timed min-of-3 (the searches are deterministic, so
   the repeats differ only by the machine's noise): the wall-time columns
   say whether the evaluations a seed saves are also time saved. Persists
   per-layer evaluated counts, wall times and EDPs to BENCH_transfer.json
   and exits non-zero unless the warm resnet18 pass evaluates >= 25% fewer
   mappings than cold with per-layer EDP equal or better on both catalogs. *)
let transfer_bench () =
  let module Json = Sun_serve.Json in
  let module Cache = Sun_serve.Cache in
  let module Transfer = Sun_serve.Transfer in
  let module Codec = Sun_serve.Codec in
  let module Opt = Sun_core.Optimizer in
  let module Model = Sun_cost.Model in
  let arch = Sun_arch.Presets.simba_like in
  let config = Opt.default_config in
  let catalog prefix =
    let pl = String.length prefix in
    List.filter
      (fun (n, _) -> String.length n > pl && String.sub n 0 pl = prefix)
      (Sun_serve.Registry.workloads ())
  in
  let search ?seed w =
    let timed () =
      let t0 = Sun_util.Stopwatch.monotonic_now () in
      let r = Opt.optimize ~config ?seed w arch in
      (r, Sun_util.Stopwatch.monotonic_now () -. t0)
    in
    let r, t1 = timed () in
    let _, t2 = timed () in
    let _, t3 = timed () in
    let wall = Float.min t1 (Float.min t2 t3) in
    match r with
    | Ok r -> (r.Opt.stats.Opt.evaluated, r.Opt.cost.Model.edp, r.Opt.mapping, wall)
    | Error msg ->
      Printf.eprintf "transfer: optimize failed: %s\n" msg;
      exit 2
  in
  let run_catalog name prefix =
    let layers = catalog prefix in
    let cold = List.map (fun (n, w) -> (n, search w)) layers in
    let cache = Cache.create ~capacity:(List.length layers + 1) () in
    List.iter2
      (fun (n, w) (_, (_, _, m, _)) ->
        Cache.store cache n
          (Json.Obj
             (("mapping", Codec.encode_mapping m) :: Transfer.family_fields ~config w arch)))
      layers cold;
    let warm =
      List.map
        (fun (n, w) ->
          let seed = Transfer.find_seed ~exclude_self:true ~cache ~config w arch in
          (n, search ?seed w, seed <> None))
        layers
    in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
    let sum_s f = List.fold_left (fun acc x -> acc +. f x) 0.0 in
    let cold_evals = sum (fun (_, (e, _, _, _)) -> e) cold in
    let warm_evals = sum (fun (_, (e, _, _, _), _) -> e) warm in
    let cold_wall = sum_s (fun (_, (_, _, _, t)) -> t) cold in
    let warm_wall = sum_s (fun (_, (_, _, _, t), _) -> t) warm in
    let seeded = sum (fun (_, _, s) -> if s then 1 else 0) warm in
    let edp_ok = ref true in
    let rows =
      List.map2
        (fun (n, (ce, cedp, _, ct)) (_, (we, wedp, _, wt), s) ->
          (* "equal or better" up to float-print jitter: one part in 1e9 *)
          if wedp > cedp *. (1.0 +. 1e-9) then begin
            Printf.eprintf "transfer: %s warm EDP %.6g worse than cold %.6g\n" n wedp cedp;
            edp_ok := false
          end;
          Json.Obj
            [
              ("layer", Json.String n);
              ("seeded", Json.Bool s);
              ("cold_evaluated", Json.Int ce);
              ("warm_evaluated", Json.Int we);
              ("cold_wall_s", Json.Float ct);
              ("warm_wall_s", Json.Float wt);
              ("cold_edp", Json.Float cedp);
              ("warm_edp", Json.Float wedp);
            ])
        cold warm
    in
    let reduction =
      if cold_evals = 0 then 0.0
      else 1.0 -. (float_of_int warm_evals /. float_of_int cold_evals)
    in
    Printf.printf
      "transfer: %-10s %d layers, %d seeded; evaluated cold %d -> warm %d (%.1f%% fewer); \
       wall (min of 3) cold %.3f s -> warm %.3f s (%+.1f%%)\n%!"
      name (List.length layers) seeded cold_evals warm_evals (100.0 *. reduction) cold_wall
      warm_wall
      (100.0 *. ((warm_wall /. cold_wall) -. 1.0));
    ( Json.Obj
        [
          ("layers", Json.Int (List.length layers));
          ("seeded", Json.Int seeded);
          ("cold_evaluated", Json.Int cold_evals);
          ("warm_evaluated", Json.Int warm_evals);
          ("reduction", Json.Float reduction);
          ("cold_wall_s", Json.Float cold_wall);
          ("warm_wall_s", Json.Float warm_wall);
          ("per_layer", Json.List rows);
        ],
      reduction, !edp_ok )
  in
  let resnet, resnet_reduction, resnet_edp_ok = run_catalog "resnet18" "resnet18/" in
  let inception, _, inception_edp_ok = run_catalog "inception" "inception/" in
  let gate = 0.25 in
  let pass = resnet_reduction >= gate && resnet_edp_ok && inception_edp_ok in
  let out = "BENCH_transfer.json" in
  let oc = open_out out in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ( "transfer",
              Json.Obj
                [
                  ("arch", Json.String "simba_like");
                  ("gate_reduction", Json.Float gate);
                  ("resnet18", resnet);
                  ("inception", inception);
                  ("pass", Json.Bool pass);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "transfer: wrote %s\n" out;
  if not pass then begin
    if resnet_reduction < gate then
      Printf.eprintf "transfer: resnet18 reduction %.1f%% below the %.0f%% gate\n"
        (100.0 *. resnet_reduction) (100.0 *. gate);
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let known = List.map fst Sun_experiments.Figures.all in
  match args with
  | [ "micro" ] -> micro_suite ()
  | [ "serve" ] -> serve_bench ()
  | [ "serve-daemon" ] -> serve_daemon_bench ()
  | [ "audit" ] -> audit_bench ()
  | [ "telemetry" ] -> telemetry_bench ()
  | [ "evaluate" ] -> evaluate_bench ()
  | [ "lint" ] -> lint_bench ()
  | [ "transfer" ] -> transfer_bench ()
  | [] -> List.iter (fun (name, driver) -> run_experiment name driver) Sun_experiments.Figures.all
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name Sun_experiments.Figures.all with
        | Some driver -> run_experiment name driver
        | None ->
          Printf.eprintf
            "unknown experiment %S; known: %s, 'micro', 'serve', 'serve-daemon', 'audit', \
             'telemetry', 'evaluate', 'lint' or 'transfer'\n"
            name
            (String.concat ", " known);
          exit 2)
      names
