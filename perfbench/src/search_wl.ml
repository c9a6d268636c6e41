(* In-process search workloads: a single closed-loop caller runs
   [Optimizer.optimize] over a fixed layer set, cold (no cache, no seed),
   in whole passes until the run's time is up.

   Untraced runs report the end-to-end metrics. Traced runs alternate
   untraced and traced passes: the traced ones enable telemetry around each
   search and record bench spans, and give the per-layer metrics; each
   neighbouring pair gives one reading of the tracing overhead. Every pass,
   warm-up passes included, is checked by the oracle as soon as it ends and
   must reproduce the first pass's EDP and [Optimizer.stats] counts
   exactly; only its timings and totals are kept. *)

module Opt = Sun_core.Optimizer
module Tel = Sun_telemetry.Metrics
module Model = Sun_cost.Model

type layer = { name : string; w : Sun_tensor.Workload.t; a : Sun_arch.Arch.t }

let dnn_layer_names () = Gen.registry_layers ()
let tensor_layer_names = [ "mttkrp/netflix"; "ttmc/netflix"; "sddmm/bcsstk17"; "sddmm/cant" ]

let make_layers names =
  let a = Gen.find_arch "simba" in
  Array.of_list (List.map (fun name -> { name; w = Gen.find_workload name; a }) names)

type counts = {
  examined : int;
  evaluated : int;
  pruned : int;
  build_errors : int;
  eval_errors : int;
}

let zero = { examined = 0; evaluated = 0; pruned = 0; build_errors = 0; eval_errors = 0 }

let counts_of (s : Opt.stats) =
  {
    examined = s.Opt.examined;
    evaluated = s.Opt.evaluated;
    pruned = s.Opt.pruned_alpha_beta;
    build_errors = s.Opt.build_errors;
    eval_errors = s.Opt.eval_errors;
  }

let add a b =
  {
    examined = a.examined + b.examined;
    evaluated = a.evaluated + b.evaluated;
    pruned = a.pruned + b.pruned;
    build_errors = a.build_errors + b.build_errors;
    eval_errors = a.eval_errors + b.eval_errors;
  }

type pass = {
  traced : bool;
  latencies : float array;  (** seconds, in layer-index order *)
  wall : float;  (** the whole pass, bench bookkeeping included *)
  edps : float array;  (** per layer; nan where the search failed *)
  totals : counts;  (** [Optimizer.stats] summed over the layers *)
  tel : Tel.snapshot option;  (** telemetry of the traced searches *)
  micro : (string * float) list;  (** per-call timings of the traced pass *)
}

let now = Sun_util.Stopwatch.monotonic_now

(* One search, timed from outside. A traced request enables telemetry
   around the call and records a [request] span whose child is the
   [optimizer.optimize] call itself. *)
let search spans ~traced ~req layer =
  if not traced then begin
    let t0 = now () in
    let r = Opt.optimize layer.w layer.a in
    (r, now () -. t0)
  end
  else
    Spans.span spans ~req "request" @@ fun root ->
    Tel.set_enabled true;
    let t0 = now () in
    let r = Opt.optimize layer.w layer.a in
    let t1 = now () in
    Tel.set_enabled false;
    ignore (Spans.record spans ~parent:root ~req "optimizer.optimize" ~start:t0 ~stop:t1);
    (r, t1 -. t0)

(* The oracle and the determinism check on one answer. [reference] holds
   each layer's first (EDP bits, counts). *)
let check failures reference ~traced layer = function
  | Error e -> Report.fail failures "%s: optimize failed: %s" layer.name e
  | Ok r -> (
    match Oracle.check_result layer.w layer.a r with
    | Error e -> Report.fail failures "%s: %s" layer.name e
    | Ok () -> (
      let s = (Int64.bits_of_float r.Opt.cost.Model.edp, counts_of r.Opt.stats) in
      match Hashtbl.find_opt reference layer.name with
      | None -> Hashtbl.replace reference layer.name s
      | Some s0 when s0 = s -> ()
      | Some ((e0, c0) : int64 * counts) ->
        let e, c = s in
        Report.fail failures
          "%s: not deterministic (%s pass): edp %Lx/%Lx examined %d/%d evaluated %d/%d pruned \
           %d/%d build_errors %d/%d eval_errors %d/%d"
          layer.name
          (if traced then "traced" else "untraced")
          e0 e c0.examined c.examined c0.evaluated c.evaluated c0.pruned c.pruned c0.build_errors
          c.build_errors c0.eval_errors c.eval_errors))

let run_pass ~rng ~spans ~failures ~reference ~traced ~req_base layers =
  let n = Array.length layers in
  let latencies = Array.make n 0. and results = Array.make n (Error "not run") in
  let micro = ref [] in
  if traced then Tel.reset ();
  let t_pass = now () in
  Array.iteri
    (fun k i ->
      let layer = layers.(i) and req = req_base + k in
      let r, latency = search spans ~traced ~req layer in
      if traced then
        micro :=
          Micro.timings spans ~req layer.w layer.a
            (Result.to_option (Result.map (fun r -> r.Opt.mapping) r))
          :: !micro;
      latencies.(i) <- latency;
      results.(i) <- r)
    (Rng.shuffle rng (Array.init n Fun.id));
  let wall = now () -. t_pass in
  let tel = if traced then Some (Tel.snapshot ()) else None in
  Array.iteri (fun i r -> check failures reference ~traced layers.(i) r) results;
  let edps = Array.map (function Ok r -> r.Opt.cost.Model.edp | Error _ -> nan) results in
  let totals =
    Array.fold_left
      (fun acc r -> match r with Ok r -> add acc (counts_of r.Opt.stats) | Error _ -> acc)
      zero results
  in
  { traced; latencies; wall; edps; totals; tel; micro = Micro.means !micro }

let counter (s : Tel.snapshot) name = Option.value ~default:0 (List.assoc_opt name s.Tel.s_counters)

let run ~names ~label ~seed ~seconds ~trace ~setups ~out_dir =
  let failures = Report.failures () in
  let rng = Rng.create seed in
  let spans = Spans.create ~enabled:trace in
  let reference = Hashtbl.create 32 in
  let attempted = ref 0 in
  let pass ~layers ~traced =
    let p = run_pass ~rng ~spans ~failures ~reference ~traced ~req_base:!attempted layers in
    attempted := !attempted + Array.length layers;
    p
  in
  (* Set-up: build the inputs and run one warm-up pass, [setups] times; the
     reported set-up time is the median. *)
  let setups =
    List.init (max 1 setups) (fun _ ->
        let t0 = now () in
        let layers = make_layers (names ()) in
        let p = pass ~layers ~traced:false in
        (layers, p, now () -. t0))
  in
  let layers = match List.rev setups with (l, _, _) :: _ -> l | [] -> assert false in
  let setup_s = Stats.median (List.map (fun (_, _, t) -> t) setups) in
  (* Measure: whole passes while time is left; a traced run alternates
     untraced and traced passes and ends on a complete pair. *)
  let t_start = now () in
  let passes = ref [] in
  let count = ref 0 in
  while now () -. t_start < seconds || !count = 0 || (trace && !count mod 2 = 1) do
    let traced = trace && !count mod 2 = 1 in
    passes := pass ~layers ~traced :: !passes;
    incr count
  done;
  let measured = List.rev !passes in
  let untraced = List.filter (fun p -> not p.traced) measured in
  let traced = List.filter (fun p -> p.traced) measured in
  let n = List.length untraced * Array.length layers in
  (* Every pass runs the same deterministic searches, so the passes differ
     only by the machine's noise. A request's latency is read as its layer's
     median over the run, and the percentiles are taken over those (every
     layer has one request per pass, so each counts once). Raw latencies
     would put tensor-simba's median on the slowest of its ~30 ms sddmm
     searches: half its requests lie below the ~1 s netflix ones, so the
     nearest-rank p50 is the maximum of the fast mode. *)
  let latencies = Stats.column_medians (List.map (fun p -> p.latencies) untraced) in
  let ms x = x *. 1e3 in
  let edps = Array.to_list (List.hd measured).edps in
  let edp_geomean = if List.for_all (fun x -> x > 0.) edps then Stats.geomean edps else nan in
  let failed_frac = float_of_int failures.Report.count /. float_of_int !attempted in
  let supported =
    match Stats.highest_supported n with Some p -> Printf.sprintf "p%g" p | None -> "none"
  in
  let notes =
    [
      Printf.sprintf
        "%d layers x %d measured passes (%d traced); %d timed requests, highest percentile with \
         >=10 samples beyond: %s"
        (Array.length layers) (List.length measured) (List.length traced) n supported;
      Printf.sprintf "failed_frac %g (%d of %d requests)" failed_frac failures.Report.count
        !attempted;
      "layer median latencies (ms): "
      ^ String.concat " "
          (List.mapi (fun i x -> Printf.sprintf "%s=%.1f" layers.(i).name (ms x)) latencies);
      "pass walls (s, set-ups bracketed, t = traced): "
      ^ String.concat " "
          (List.map (fun (_, p, _) -> Printf.sprintf "[%.3f]" p.wall) setups
          @ List.map
              (fun p -> Printf.sprintf "%.3f%s" p.wall (if p.traced then "t" else ""))
              measured);
    ]
  in
  let metrics =
    if not trace then
      [
        Report.metric "setup_s" "s" setup_s;
        Report.metric "req_p50_ms" "ms" (ms (Stats.percentile latencies 50.));
        Report.metric "req_p90_ms" "ms" (ms (Stats.percentile latencies 90.));
        Report.metric "req_per_s" "1/s"
          (float_of_int n /. List.fold_left (fun acc p -> acc +. p.wall) 0. untraced);
        Report.metric "edp_geomean" "pJ.cycle" edp_geomean;
        Report.metric "peak_rss_mb" "MiB" (Proc.self_peak_rss_mb ());
      ]
    else begin
      let last = List.hd (List.rev traced) in
      let c name = float_of_int (counter (Option.get last.tel) name) in
      let t = last.totals in
      let examined = float_of_int t.examined and evaluated = float_of_int t.evaluated in
      let eval_errors = float_of_int t.eval_errors in
      let ratio a b = if b = 0. then 0. else a /. b in
      let micro name =
        match List.filter_map (fun p -> List.assoc_opt name p.micro) traced with
        | [] -> 0.
        | xs -> Stats.median xs
      in
      (* one overhead reading per (untraced, traced) neighbour pair *)
      let rec pairs = function
        | u :: t :: rest when (not u.traced) && t.traced ->
          let sum p = Array.fold_left ( +. ) 0. p.latencies in
          ((sum t /. sum u) -. 1.) :: pairs rest
        | _ :: rest -> pairs rest
        | [] -> []
      in
      let overheads = pairs measured in
      [
        ( "optimizer.search_ms",
          Stats.median (List.map (fun p -> ms (Stats.mean (Array.to_list p.latencies))) traced) );
        ("optimizer.examined", examined);
        ("optimizer.evaluated", evaluated);
        ("optimizer.pruned_alpha_beta", float_of_int t.pruned);
        ("optimizer.build_errors", float_of_int t.build_errors);
        ("optimizer.eval_errors", eval_errors);
        ("optimizer.legal_frac", ratio (evaluated -. eval_errors) evaluated);
        ("order_trie.kept", c "optimizer.orders_kept");
        ("order_trie.dropped", c "optimizer.orders_dropped");
        ("order_trie.candidates_ms", micro "order_trie.candidates_ms");
        ("tile_tree.candidates", c "optimizer.tile_candidates");
        ("unroll.candidates", c "optimizer.unroll_candidates");
        ("tile_tree.nodes_per_eval", ratio examined evaluated);
        ("mapping.make_us", micro "mapping.make_us");
        ("model.evaluations", c "model.evaluations");
        ("model.evaluate_rejected", c "model.evaluate_rejected");
        ("model.score_ns", micro "model.score_ns");
        ("model.evaluate_ns", micro "model.evaluate_ns");
        ( "probe.hit_frac",
          ratio (c "model.probe_hits") (c "model.probe_hits" +. c "model.probe_misses") );
        ("trace.overhead_frac", Stats.median_or_zero overheads);
        ("trace.overhead_iqr", Stats.iqr overheads);
        ("failed_frac", failed_frac);
      ]
      |> Metric_names.complete
    end
  in
  if trace then
    Spans.write spans (Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" label seed));
  Report.print_failures failures;
  let failed = failures.Report.count in
  { Report.workload = label; attempted = !attempted; failed; notes; metrics }
