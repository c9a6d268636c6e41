(* Timings of single layers on one answered request, taken outside every
   request latency: the ordering trie of the workload, and [Mapping.make],
   [Model.score_ctx] and [Model.evaluate_ctx] on the returned mapping. Each
   is the mean over enough calls to rise well above the clock's
   resolution. *)

module Model = Sun_cost.Model

let names = [ "order_trie.candidates_ms"; "mapping.make_us"; "model.score_ns"; "model.evaluate_ns" ]
let now = Sun_util.Stopwatch.monotonic_now

(* Mean time of one [f ()] over [reps] calls. *)
let time_per_call ~reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps

let timings spans ~req w a mapping =
  Spans.span spans ~req "layer.timings" @@ fun parent ->
  let timed name scale reps f =
    (name, scale *. Spans.span spans ~parent ~req name (fun _ -> time_per_call ~reps f))
  in
  timed "order_trie.candidates_ms" 1e3 3 (fun () -> Sun_core.Order_trie.candidates_with_stats w)
  ::
  (match mapping with
  | None -> []
  | Some m ->
    let levels = Array.to_list m.Sun_mapping.Mapping.levels in
    let ctx = Model.context w a in
    [
      timed "mapping.make_us" 1e6 200 (fun () -> Sun_mapping.Mapping.make w levels);
      timed "model.score_ns" 1e9 200 (fun () -> Model.score_ctx ctx m);
      timed "model.evaluate_ns" 1e9 200 (fun () -> Model.evaluate_ctx ctx m);
    ])

(* Per-name means over many [timings] results. *)
let means all =
  List.filter_map
    (fun name ->
      match List.filter_map (List.assoc_opt name) all with
      | [] -> None
      | xs -> Some (name, Stats.mean xs))
    names
