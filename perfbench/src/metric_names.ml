(* The end-to-end metrics every untraced run prints, in this order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("req_p50_ms", "ms");
    ("req_p90_ms", "ms");
    ("req_per_s", "1/s");
    ("edp_geomean", "pJ.cycle");
    ("peak_rss_mb", "MiB");
  ]

(* The per-layer metrics every traced run prints, in a fixed order, with
   their units. A layer a workload does not exercise reads 0 there (the
   search workloads have no daemon; serve-mix has no in-process search). *)

let per_layer =
  [
    ("optimizer.search_ms", "ms");
    ("optimizer.examined", "count");
    ("optimizer.evaluated", "count");
    ("optimizer.pruned_alpha_beta", "count");
    ("optimizer.build_errors", "count");
    ("optimizer.eval_errors", "count");
    ("optimizer.legal_frac", "frac");
    ("order_trie.kept", "count");
    ("order_trie.dropped", "count");
    ("order_trie.candidates_ms", "ms");
    ("tile_tree.candidates", "count");
    ("unroll.candidates", "count");
    ("tile_tree.nodes_per_eval", "count");
    ("mapping.make_us", "us");
    ("model.evaluations", "count");
    ("model.evaluate_rejected", "count");
    ("model.score_ns", "ns");
    ("model.evaluate_ns", "ns");
    ("probe.hit_frac", "frac");
    ("pipeline.parse_ms", "ms");
    ("pipeline.gate_ms", "ms");
    ("pipeline.cache_ms", "ms");
    ("pipeline.compute_ms", "ms");
    ("pipeline.recheck_ms", "ms");
    ("cache.hit_frac", "frac");
    ("cache.stores", "count");
    ("cache.evictions", "count");
    ("transfer.seeded_frac", "frac");
    ("transfer.seed_rejected", "count");
    ("server.wait_p50_ms", "ms");
    ("server.wait_p90_ms", "ms");
    ("parpool.job_ms", "ms");
    ("parpool.crashed", "count");
    ("parpool.respawned", "count");
    ("server.expired", "count");
    ("server.overloaded", "count");
    ("trace.overhead_frac", "frac");
    ("trace.overhead_iqr", "frac");
    ("failed_frac", "frac");
  ]

let complete values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        invalid_arg ("Metric_names.complete: unknown " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      Report.metric name unit (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer
