(* The serve-mix workload: a forked scheduling daemon (the calls
   [sunstone serve] makes: memory-only cache, one pool worker, Unix socket)
   driven closed-loop by this process over two connections, one request in
   flight on each, with the seeded stream of {!Gen}.

   An untraced run measures one segment. A traced run measures several
   shorter segments, alternately with the daemon's telemetry off and on
   (enabled in the daemon before it forks its worker); the traced segments
   give the per-layer metrics and each neighbouring pair one reading of the
   tracing overhead. Every segment replays the stream from its start. *)

module J = Sun_serve.Json
module Server = Sun_serve.Server
module Cache = Sun_serve.Cache
module Codec = Sun_serve.Codec
module Tel = Sun_telemetry.Metrics
module Opt = Sun_core.Optimizer
module Model = Sun_cost.Model

let now = Sun_util.Stopwatch.monotonic_now
let connections = 2

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; addr : Server.listen; summary_fd : Unix.file_descr }

let summary_json (s : Server.summary) =
  let cache =
    match s.Server.cache_stats with
    | None -> []
    | Some c ->
      [
        ( "cache",
          J.Obj
            [
              ("hits", J.Int c.Cache.hits);
              ("misses", J.Int c.Cache.misses);
              ("evictions", J.Int c.Cache.evictions);
              ("stores", J.Int c.Cache.stores);
            ] );
      ]
  in
  J.Obj
    ([
       ("requests", J.Int s.Server.requests);
       ("hits", J.Int s.Server.hits);
       ("computed", J.Int s.Server.computed);
       ("errors", J.Int s.Server.errors);
       ("overloaded", J.Int s.Server.overloaded);
       ("expired", J.Int s.Server.expired);
     ]
    @ cache)

(* The daemon is this executable started afresh with [daemon_flag], so its
   memory holds nothing of the client's: the calls [sunstone serve] makes,
   with telemetry enabled (when traced) before the pool forks its worker.
   Once SIGTERM has drained it, it prints its summary on stdout. *)
let daemon_flag = "--perfbench-daemon"

let daemon_main ~sock ~telemetry =
  let addr = Server.Unix_socket sock in
  let listen_fd =
    match Server.listener addr with Ok fd -> fd | Error e -> failwith ("listen: " ^ e)
  in
  let drain = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
  Tel.set_enabled telemetry;
  Tel.reset ();
  let s = Server.serve ~cache:(Cache.create ()) ~jobs:1 ~drain_flag:drain ~listen_fd () in
  Server.close_listener addr listen_fd;
  print_endline (J.to_string (summary_json s))

(* Call first thing in any executable that runs serve-mix: in a process
   started as the daemon it serves, then exits. *)
let daemon_entry () =
  match Array.to_list Sys.argv with
  | _ :: flag :: sock :: telemetry :: _ when flag = daemon_flag ->
    daemon_main ~sock ~telemetry:(telemetry = "1");
    exit 0
  | _ -> ()

let start_daemon ~sock ~telemetry =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  let exe = Sys.executable_name in
  let argv = [| exe; daemon_flag; sock; (if telemetry then "1" else "0") |] in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  { pid; addr = Server.Unix_socket sock; summary_fd = rd }

let read_line_fd fd =
  let buf = Buffer.create 256 and b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf b 0 n;
      if not (Bytes.contains (Bytes.sub b 0 n) '\n') then go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  String.trim (Buffer.contents buf)

(* Peak RSS of the daemon and its pool worker, summed. *)
let daemon_rss_mb d =
  List.fold_left
    (fun acc pid -> acc +. Option.value ~default:0. (Proc.peak_rss_mb pid))
    0. (d.pid :: Proc.children d.pid)

let wait_exit pid ~timeout =
  let t0 = now () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () -. t0 < timeout ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      ignore (Unix.waitpid [] pid);
      false
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Drain the daemon; its summary, or [None] if it did not exit cleanly. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let line =
    match Unix.select [ d.summary_fd ] [] [] 30. with
    | [], _, _ -> ""
    | _ -> read_line_fd d.summary_fd
    | exception Unix.Unix_error (_, _, _) -> ""
  in
  Unix.close d.summary_fd;
  let clean = wait_exit d.pid ~timeout:20. in
  match J.of_string line with Ok j when clean -> Some j | _ -> None

(* Run [f]; if it raises, kill and reap the daemon (its pool worker exits
   when its job pipe closes) before passing the exception on, so a failed
   run leaves no process behind. *)
let with_daemon d f =
  match f () with
  | v -> v
  | exception e ->
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error (_, _, _) -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* The client                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable inflight : (int * float) option;  (** stream index, send time *)
}

type record = { index : int; sent : float; received : float; response : string }

let rec connect addr tries =
  match Server.connect addr with
  | Ok fd -> fd
  | Error e when tries <= 0 -> failwith ("connect: " ^ e)
  | Error _ ->
    Unix.sleepf 0.01;
    connect addr (tries - 1)

let send c line =
  let s = line ^ "\n" in
  let rec go ofs =
    if ofs < String.length s then
      go (ofs + Unix.write_substring c.fd s ofs (String.length s - ofs))
  in
  go 0

(* Read whatever is available; the first complete line, if any. *)
let read_available c =
  let b = Bytes.create 65536 in
  match Unix.read c.fd b 0 (Bytes.length b) with
  | 0 -> failwith "daemon closed the connection"
  | n -> (
    Buffer.add_subbytes c.inbuf b 0 n;
    let s = Buffer.contents c.inbuf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i))

let rec read_line c = match read_available c with Some l -> l | None -> read_line c

(* A control round trip, e.g. [{"control":"stats"}]. *)
let control c line =
  send c line;
  read_line c

(* The growing request stream: lines are generated on demand, always in the
   same order, so every segment replays the same prefix. *)
type stream = { gen : Gen.t; mutable reqs : Gen.request array; mutable len : int }

let stream_make gen n =
  let reqs = Array.of_list (Gen.take gen n) in
  { gen; reqs; len = Array.length reqs }

let stream_get s i =
  while i >= s.len do
    let more = Array.of_list (Gen.take s.gen (max 256 s.len)) in
    s.reqs <- Array.append (Array.sub s.reqs 0 s.len) more;
    s.len <- Array.length s.reqs
  done;
  s.reqs.(i)

(* Closed loop: each connection sends its next request as soon as the
   previous answer arrives, while [more ~elapsed ~prev next] holds; the
   answers in flight then complete. [at_cycle_end] runs once, just before
   the first request of cycle 1 is sent. *)
let drive conns stream ~more ~at_cycle_end =
  let t0 = now () in
  let next = ref 0 in
  let records = ref [] in
  let cycle_ended = ref false in
  let issue c =
    let r = stream_get stream !next in
    let prev = if !next = 0 then None else Some (stream_get stream (!next - 1)) in
    if more ~elapsed:(now () -. t0) ~prev r then begin
      if r.Gen.cycle > 0 && not !cycle_ended then begin
        cycle_ended := true;
        at_cycle_end ()
      end;
      c.inflight <- Some (!next, now ());
      incr next;
      send c r.Gen.line
    end
  in
  Array.iter issue conns;
  let busy () = List.filter (fun c -> c.inflight <> None) (Array.to_list conns) in
  let rec loop () =
    match busy () with
    | [] -> ()
    | active ->
      let ready =
        match Unix.select (List.map (fun c -> c.fd) active) [] [] 60. with
        | [], _, _ -> failwith "no answer from the daemon for 60 s"
        | ready, _, _ -> ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match read_available c with
            | None -> ()
            | Some response ->
              let received = now () in
              let index, sent = Option.get c.inflight in
              records := { index; sent; received; response } :: !records;
              c.inflight <- None;
              if Buffer.length c.inbuf > 0 then failwith "unrequested bytes from the daemon";
              issue c)
        active;
      loop ()
  in
  loop ();
  List.rev !records

(* ------------------------------------------------------------------ *)
(* The oracle over one segment's answers                               *)
(* ------------------------------------------------------------------ *)

let member name j = Option.value ~default:J.Null (J.member name j)
let str name j = match member name j with J.String s -> s | _ -> ""
let num name j = match J.as_float (member name j) with Ok f -> f | Error _ -> nan

let check_search failures (item : Gen.item) label j =
  match J.member "mapping" j with
  | None -> Report.fail failures "%s: answer has no mapping" label
  | Some mj -> (
    match Codec.decode_mapping_raw mj with
    | Error e -> Report.fail failures "%s: mapping does not decode: %s" label e
    | Ok levels -> (
      match
        Oracle.check item.Gen.w item.Gen.a levels ~energy_pj:(num "energy_pj" j)
          ~cycles:(num "cycles" j) ~edp:(num "edp" j)
      with
      | Ok () -> ()
      | Error e -> Report.fail failures "%s: %s" label e))

type checked = {
  records : (record * Gen.request * J.t) list;
  fixed_edps : float list;  (** first answer of each fixed-set item *)
}

let check_segment failures stream records =
  let parsed =
    List.filter_map
      (fun r ->
        let req = stream_get stream r.index in
        match J.of_string r.response with
        | Ok j -> Some (r, req, j)
        | Error e ->
          Report.fail failures "q%d: unparsable answer: %s" r.index e;
          None)
      records
  in
  let universe = Gen.universe stream.gen in
  let targets = Gen.targets stream.gen in
  let fingerprints = Hashtbl.create 256 in
  let fingerprint i =
    match Hashtbl.find_opt fingerprints i with
    | Some fp -> fp
    | None ->
      let fp = Sun_serve.Fingerprint.request universe.(i).Gen.w universe.(i).Gen.a in
      Hashtbl.replace fingerprints i fp;
      fp
  in
  let answer j = (J.to_string (member "mapping" j), J.to_string (member "cost" j)) in
  (* computed answers by fingerprint, for the hit check *)
  let computed = Hashtbl.create 256 in
  List.iter
    (fun (_, _, j) ->
      if str "status" j = "computed" then Hashtbl.add computed (str "fingerprint" j) (answer j))
    parsed;
  (* answers by universe item, for the evaluation check *)
  let by_item = Hashtbl.create 256 in
  List.iter
    (fun (_, (req : Gen.request), j) ->
      match req.Gen.kind with
      | Gen.Search i when not (Hashtbl.mem by_item i) -> Hashtbl.replace by_item i j
      | _ -> ())
    (List.sort (fun ((a : record), _, _) ((b : record), _, _) -> compare a.index b.index) parsed);
  List.iter
    (fun ((r : record), (req : Gen.request), j) ->
      let status = str "status" j in
      let label = Printf.sprintf "q%d" r.index in
      match req.Gen.kind with
      | Gen.Search i -> (
        let item = universe.(i) in
        let label = label ^ " " ^ item.Gen.label in
        let fp = fingerprint i in
        if str "fingerprint" j <> fp then Report.fail failures "%s: fingerprint differs" label
        else
          match status with
          | "computed" -> check_search failures item label j
          | "hit" ->
            if not (List.mem (answer j) (Hashtbl.find_all computed fp)) then
              Report.fail failures "%s: cache hit differs from the computed answer" label
            else check_search failures item label j
          | s -> Report.fail failures "%s: status %s: %s" label s (str "error" j))
      | Gen.Evaluate ti -> (
        let tg = targets.(ti) in
        let item = universe.(tg.Gen.item) in
        let label = label ^ " evaluate " ^ item.Gen.label in
        let claimed j =
          Oracle.same_cost tg.Gen.cost ~energy_pj:(num "energy_pj" j) ~cycles:(num "cycles" j)
            ~edp:(num "edp" j)
        in
        (* the daemon's own first answer for the evaluated search must be
           this same mapping and cost *)
        let searched_agrees =
          match Hashtbl.find_opt by_item tg.Gen.item with
          | Some s ->
            J.to_string (member "mapping" s) = J.to_string tg.Gen.mapping_json && claimed s
          | None -> true
        in
        match status with
        | "evaluated" when not (claimed j) ->
          Report.fail failures "%s: cost differs from the cost its search reported" label
        | "evaluated" when not searched_agrees ->
          Report.fail failures "%s: the daemon's search answered another mapping or cost" label
        | "evaluated" -> check_search failures item label j
        | s -> Report.fail failures "%s: status %s: %s" label s (str "error" j))
      | Gen.Ill_formed _ -> (
        match (status, member "diagnostics" j) with
        | "error", J.List (_ :: _) -> ()
        | s, _ ->
          Report.fail failures "%s: ill-formed arch answered %s without diagnostics: %s" label s
            (str "error" j)))
    parsed;
  let fixed = Gen.fixed_count stream.gen in
  let fixed_edps =
    Hashtbl.fold (fun i j acc -> if i < fixed then num "edp" j :: acc else acc) by_item []
  in
  if List.length fixed_edps <> fixed then
    Report.fail failures "only %d of the %d fixed-set searches were answered"
      (List.length fixed_edps) fixed;
  { records = parsed; fixed_edps }

(* ------------------------------------------------------------------ *)
(* Segments and the run                                                *)
(* ------------------------------------------------------------------ *)

type segment = {
  telemetry : bool;
  checked : checked;
  wall : float;  (** first send to last answer *)
  stats : J.t;  (** the daemon's [{"control":"stats"}] answer *)
  summary : J.t;  (** the daemon's own summary after the drain *)
  rss_mb : float;  (** after cycle 0 *)
  rss_end_mb : float;
}

type session = { daemon : daemon; conns : conn array }

(* Set-up: fork the daemon and connect; one stats round trip per
   connection warms the accept and read paths without touching the cache. *)
let open_session ~sock ~telemetry =
  let daemon = start_daemon ~sock ~telemetry in
  with_daemon daemon @@ fun () ->
  let conns =
    Array.init connections (fun _ ->
        { fd = connect daemon.addr 500; inbuf = Buffer.create 4096; inflight = None })
  in
  Array.iteri
    (fun i c -> ignore (control c (Printf.sprintf {|{"control":"stats","id":"warm%d"}|} i)))
    conns;
  { daemon; conns }

let close_session failures s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()) s.conns;
  match stop_daemon s.daemon with
  | Some j -> j
  | None ->
    Report.fail failures "the daemon did not drain cleanly";
    J.Null

(* The daemon's peak RSS is read when cycle 0 is done (or at the end, for
   a segment of one cycle), so it reflects a fixed amount of work however
   fast the daemon gets through it. *)
let run_segment failures stream session ~telemetry ~more =
  let rss_mb = ref None in
  let read_rss () = rss_mb := Some (daemon_rss_mb session.daemon) in
  let records, stats, rss_end_mb =
    with_daemon session.daemon @@ fun () ->
    let records = drive session.conns stream ~more ~at_cycle_end:read_rss in
    let final = control session.conns.(0) {|{"control":"stats","id":"final"}|} in
    let stats = match J.of_string final with Ok j -> j | Error _ -> J.Null in
    (records, stats, daemon_rss_mb session.daemon)
  in
  let rss_mb = Option.value ~default:rss_end_mb !rss_mb in
  let summary = close_session failures session in
  let wall =
    match records with
    | [] -> 0.
    | first :: _ -> List.fold_left (fun acc r -> Float.max acc r.received) 0. records -. first.sent
  in
  let checked = check_segment failures stream records in
  { telemetry; checked; wall; stats; summary; rss_mb; rss_end_mb }

let latency ((r : record), _, _) = r.received -. r.sent

(* Sums over segments of an integer at [path] in the daemon's stats answer
   ([`Stats]) or its drained summary ([`Summary]). *)
let total segs src path =
  let int_at j =
    List.fold_left (fun j k -> member k j) j path |> J.as_int |> Result.value ~default:0
  in
  float_of_int
    (List.fold_left
       (fun acc s -> acc + int_at (match src with `Stats -> s.stats | `Summary -> s.summary))
       0 segs)

(* Mean of a daemon latency histogram over segments, in ms. *)
let hist_mean_ms segs name =
  let field k =
    List.fold_left
      (fun acc s -> acc +. num k (member name (member "histograms" (member "telemetry" s.stats))))
      0. segs
  in
  let count = field "count" in
  if count > 0. then field "sum" /. count *. 1e3 else 0.

(* Single-layer timings on the distinct searches the traced segments
   answered (at most 64), in stream order. *)
let answer_timings spans universe segments =
  let seen = Hashtbl.create 64 in
  List.concat_map (fun s -> s.checked.records) segments
  |> List.filter_map (fun ((r : record), (req : Gen.request), j) ->
         match req.Gen.kind with
         | Gen.Search i
           when str "status" j = "computed"
                && (not (Hashtbl.mem seen i))
                && Hashtbl.length seen < 64 -> (
           Hashtbl.replace seen i ();
           let item = universe.(i) in
           match Codec.decode_mapping item.Gen.w (member "mapping" j) with
           | Ok m -> Some (Micro.timings spans ~req:r.index item.Gen.w item.Gen.a (Some m))
           | Error _ -> None)
         | _ -> None)

let segment_note s =
  let n = List.length s.checked.records in
  let statuses = Hashtbl.create 8 in
  List.iter
    (fun (_, _, j) ->
      let st = str "status" j in
      Hashtbl.replace statuses st (1 + Option.value ~default:0 (Hashtbl.find_opt statuses st)))
    s.checked.records;
  let counts = Hashtbl.fold (fun k v acc -> Printf.sprintf "%d %s" v k :: acc) statuses [] in
  Printf.sprintf
    "segment (telemetry %b): %d requests in %.2fs, %s; highest percentile with >=10 samples \
     beyond: %s; daemon peak RSS %.1f MiB after cycle 0, %.1f MiB at the end"
    s.telemetry n s.wall
    (String.concat ", " (List.sort compare counts))
    (match Stats.highest_supported n with Some p -> Printf.sprintf "p%g" p | None -> "none")
    s.rss_mb s.rss_end_mb

let end_to_end ~setup_s s =
  let lat = List.map latency s.checked.records in
  [
    Report.metric "setup_s" "s" setup_s;
    Report.metric "req_p50_ms" "ms" (1e3 *. Stats.percentile lat 50.);
    Report.metric "req_p90_ms" "ms" (1e3 *. Stats.percentile lat 90.);
    Report.metric "req_per_s" "1/s" (float_of_int (List.length lat) /. s.wall);
    Report.metric "edp_geomean" "pJ.cycle"
      (match s.checked.fixed_edps with [] -> nan | edps -> Stats.geomean edps);
    Report.metric "peak_rss_mb" "MiB" s.rss_mb;
  ]

let per_layer ~spans ~universe ~failed_frac segments =
  let traced = List.filter (fun s -> s.telemetry) segments in
  let c name = total traced `Stats [ "telemetry"; "counters"; name ] in
  let ratio a b = if b = 0. then 0. else a /. b in
  let waits =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun ((_, _, j) as x) ->
            match J.member "wall_s" j with
            | Some _ -> Some (Stats.server_wait_ms ~latency_s:(latency x) ~wall_s:(num "wall_s" j))
            | None -> None)
          s.checked.records)
      traced
  in
  let pct xs p = match xs with [] -> 0. | xs -> Stats.percentile xs p in
  (* one overhead reading per (untraced, traced) neighbour pair *)
  let rec pairs = function
    | u :: t :: rest when (not u.telemetry) && t.telemetry ->
      let rps s = float_of_int (List.length s.checked.records) /. s.wall in
      ((rps u /. rps t) -. 1.) :: pairs rest
    | _ :: rest -> pairs rest
    | [] -> []
  in
  let overheads = pairs segments in
  let examined = c "optimizer.examined" and evaluated = c "optimizer.evaluated" in
  let micro = Micro.means (answer_timings spans universe traced) in
  let micro name = Option.value ~default:0. (List.assoc_opt name micro) in
  let cache name = total traced `Summary [ "cache"; name ] in
  Metric_names.complete
    [
      ("optimizer.search_ms", hist_mean_ms traced "optimizer.search_s");
      ("optimizer.examined", examined);
      ("optimizer.evaluated", evaluated);
      ("optimizer.pruned_alpha_beta", c "optimizer.pruned_alpha_beta");
      ("optimizer.build_errors", c "optimizer.build_errors");
      ("optimizer.eval_errors", c "optimizer.eval_errors");
      ("optimizer.legal_frac", ratio (evaluated -. c "optimizer.eval_errors") evaluated);
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
      ("pipeline.parse_ms", hist_mean_ms traced "serve.parse_s");
      ("pipeline.gate_ms", hist_mean_ms traced "serve.gate_s");
      ("pipeline.cache_ms", hist_mean_ms traced "serve.cache_s");
      ("pipeline.compute_ms", hist_mean_ms traced "serve.compute_s");
      ("pipeline.recheck_ms", hist_mean_ms traced "serve.recheck_s");
      ("cache.hit_frac", ratio (cache "hits") (cache "hits" +. cache "misses"));
      ("cache.stores", cache "stores");
      ("cache.evictions", cache "evictions");
      ("transfer.seeded_frac", ratio (c "transfer.seeded") (c "optimizer.searches"));
      ("transfer.seed_rejected", c "transfer.seed_rejected");
      ("server.wait_p50_ms", pct waits 50.);
      ("server.wait_p90_ms", pct waits 90.);
      ("parpool.job_ms", hist_mean_ms traced "parpool.job_s");
      ("parpool.crashed", c "parpool.crashed");
      ("parpool.respawned", c "parpool.respawned");
      ("server.expired", total traced `Stats [ "server"; "expired" ]);
      ("server.overloaded", total traced `Stats [ "server"; "overloaded" ]);
      ("trace.overhead_frac", Stats.median_or_zero overheads);
      ("trace.overhead_iqr", Stats.iqr overheads);
      ("failed_frac", failed_frac);
    ]

let run ?tiny ~label ~seed ~seconds ~trace ~setups ~out_dir () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let failures = Report.failures () in
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let spans = Spans.create ~enabled:trace in
  (* Set-up, [setups] times: generate the inputs (the evaluation targets
     are searched in-process), fork the daemon, connect. All but the last
     session are drained unused. *)
  let setup () =
    let t0 = now () in
    let stream = stream_make (Gen.create ?tiny ~seed ()) 8192 in
    let session = open_session ~sock ~telemetry:false in
    (stream, session, now () -. t0)
  in
  let rec setups_loop k acc =
    let ((_, session, _) as s) = setup () in
    if k <= 1 then (s, List.rev (s :: acc))
    else begin
      ignore (close_session failures session);
      setups_loop (k - 1) (s :: acc)
    end
  in
  let (stream, first_session, _), all_setups = setups_loop (max 1 setups) [] in
  let setup_s = Stats.median (List.map (fun (_, _, t) -> t) all_setups) in
  (* Measure whole cycles of the stream (every universe item searched once
     per cycle), so the work a run measures has the same make-up whatever
     the seed. An untraced run keeps going until [seconds] have passed and
     its cycle is complete. A traced run measures cycle 0 again and again,
     alternately with telemetry off and on, in at least two complete pairs. *)
  let same_cycle ~prev (r : Gen.request) =
    match prev with Some (p : Gen.request) -> p.Gen.cycle = r.Gen.cycle | None -> true
  in
  let segments =
    if not trace then
      [
        run_segment failures stream first_session ~telemetry:false
          ~more:(fun ~elapsed ~prev r -> elapsed < seconds || same_cycle ~prev r);
      ]
    else begin
      let t_start = now () in
      let rec loop k acc =
        if k >= 4 && k mod 2 = 0 && now () -. t_start >= seconds then List.rev acc
        else begin
          let telemetry = k mod 2 = 1 in
          let session = if k = 0 then first_session else open_session ~sock ~telemetry in
          let t0 = now () in
          let seg =
            run_segment failures stream session ~telemetry ~more:(fun ~elapsed:_ ~prev:_ r ->
                r.Gen.cycle = 0)
          in
          let parent =
            Spans.record spans ~req:k
              (if telemetry then "segment.traced" else "segment.untraced")
              ~start:t0 ~stop:(now ())
          in
          List.iter
            (fun ((r : record), _, _) ->
              ignore
                (Spans.record spans ~parent ~req:r.index "request" ~start:r.sent ~stop:r.received))
            seg.checked.records;
          loop (k + 1) (seg :: acc)
        end
      in
      loop 0 []
    end
  in
  let attempted = List.fold_left (fun acc s -> acc + List.length s.checked.records) 0 segments in
  let failed_frac = float_of_int failures.Report.count /. float_of_int (max 1 attempted) in
  let notes =
    List.map segment_note segments
    @ [
        Printf.sprintf "failed_frac %g (%d of %d requests)" failed_frac failures.Report.count
          attempted;
      ]
  in
  let metrics =
    if trace then per_layer ~spans ~universe:(Gen.universe stream.gen) ~failed_frac segments
    else end_to_end ~setup_s (List.hd segments)
  in
  if trace then
    Spans.write spans (Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" label seed));
  Report.print_failures failures;
  { Report.workload = label; attempted; failed = failures.Report.count; notes; metrics }
