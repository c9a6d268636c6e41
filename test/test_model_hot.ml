(* Golden bit-identity and hot-path coverage for the allocation-free
   evaluator: the rewritten [Model] must return byte-identical cost records
   to the frozen pre-rewrite evaluator ([Model_ref]) on every registry
   workload under both the Eyeriss-like and Simba presets; the capacity
   kernel must agree with direct [W.footprint] sums and with [Model_ref]'s
   legality verdicts; the batch entry points must equal the scalar ones;
   and the gid assignment order of [Model.context] is pinned (serialized
   caches depend on it). *)

module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module P = Sun_arch.Presets
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Ref = Sun_cost.Model_ref
module Opt = Sun_core.Optimizer
module Tel = Sun_telemetry.Metrics

let presets = [ ("conventional", P.conventional); ("simba", P.simba_like) ]

let bits = Int64.bits_of_float

let check_bits what a b = Alcotest.(check int64) what (bits a) (bits b)

let find_workload name =
  match Sun_serve.Registry.find_workload name with
  | Ok w -> w
  | Error msg -> Alcotest.fail msg

(* A non-streaming companion to [M.single_level]: peel the smallest prime
   factor of every dim down to level 0, leaving the rest at the top. *)
let smallest_factor n =
  if n <= 1 then 1
  else begin
    let rec go p = if p * p > n then n else if n mod p = 0 then p else go (p + 1) in
    go 2
  end

let split_mapping w ~num_levels =
  let dims = W.dim_names w in
  let ones = List.map (fun d -> (d, 1)) dims in
  let lm temporal = { M.temporal; order = dims; spatial = ones } in
  let bottom = lm (List.map (fun d -> (d, smallest_factor (W.bound w d))) dims) in
  let top = lm (List.map (fun d -> (d, W.bound w d / smallest_factor (W.bound w d))) dims) in
  let mids = List.init (num_levels - 2) (fun _ -> lm ones) in
  M.make w ((bottom :: mids) @ [ top ])

(* [Ref]'s cost/transfer types are re-exported equalities of [Model]'s, so
   one comparator covers both. *)
let check_cost what (c : Model.cost) (c' : Model.cost) =
  check_bits (what ^ ": energy") c'.Model.energy_pj c.Model.energy_pj;
  check_bits (what ^ ": cycles") c'.Model.cycles c.Model.cycles;
  check_bits (what ^ ": edp") c'.Model.edp c.Model.edp;
  check_bits (what ^ ": macs") c'.Model.macs c.Model.macs;
  check_bits (what ^ ": utilization") c'.Model.spatial_utilization c.Model.spatial_utilization;
  Alcotest.(check int)
    (what ^ ": transfer count") (List.length c'.Model.transfers) (List.length c.Model.transfers);
  List.iter2
    (fun (t : Model.transfer) (t' : Model.transfer) ->
      Alcotest.(check string) (what ^ ": transfer operand") t'.Model.operand t.Model.operand;
      Alcotest.(check int) (what ^ ": transfer from") t'.Model.from_level t.Model.from_level;
      Alcotest.(check int) (what ^ ": transfer to") t'.Model.to_level t.Model.to_level;
      check_bits (what ^ ": transfer reads") t'.Model.reads t.Model.reads;
      check_bits (what ^ ": transfer fills") t'.Model.fills t.Model.fills;
      check_bits (what ^ ": transfer noc") t'.Model.noc_deliveries t.Model.noc_deliveries)
    c.Model.transfers c'.Model.transfers;
  Alcotest.(check (list string))
    (what ^ ": breakdown names")
    (List.map fst c'.Model.breakdown)
    (List.map fst c.Model.breakdown);
  List.iter2
    (fun (n, v) (_, v') -> check_bits (what ^ ": breakdown " ^ n) v' v)
    c.Model.breakdown c'.Model.breakdown

let compare_on what ctx rctx m =
  match (Model.evaluate_ctx ctx m, Ref.evaluate_ctx rctx m) with
  | Ok c, Ok c' ->
    check_cost what c c';
    (* the score triple must be the same floats as the full evaluation *)
    (match Model.score_ctx ctx m with
    | Ok s ->
      check_bits (what ^ ": score energy") c.Model.energy_pj s.Model.s_energy_pj;
      check_bits (what ^ ": score cycles") c.Model.cycles s.Model.s_cycles;
      check_bits (what ^ ": score edp") c.Model.edp s.Model.s_edp
    | Error msg -> Alcotest.failf "%s: score_ctx rejected an evaluable mapping: %s" what msg)
  | Error e, Error e' -> Alcotest.(check string) (what ^ ": error") e' e
  | Ok _, Error e -> Alcotest.failf "%s: rewritten accepts, reference rejects (%s)" what e
  | Error e, Ok _ -> Alcotest.failf "%s: rewritten rejects (%s), reference accepts" what e

(* every registry workload x preset, on the streaming and one split mapping *)
let test_golden_registry () =
  List.iter
    (fun (aname, arch) ->
      let nl = List.length arch.A.levels in
      List.iter
        (fun (wname, w) ->
          let ctx = Model.context w arch in
          let rctx = Ref.context w arch in
          let what mname = Printf.sprintf "%s on %s (%s)" wname aname mname in
          compare_on (what "streaming") ctx rctx (M.single_level w ~num_levels:nl);
          match split_mapping w ~num_levels:nl with
          | Ok m -> compare_on (what "split") ctx rctx m
          | Error _ -> ())
        (Sun_serve.Registry.workloads ()))
    presets

(* search-produced mappings: richer orders, spatial unrolling, bypasses *)
let test_golden_optimized () =
  List.iter
    (fun (wname, aname, arch) ->
      let w = find_workload wname in
      match Opt.optimize w arch with
      | Error msg -> Alcotest.failf "optimize %s on %s: %s" wname aname msg
      | Ok r ->
        let ctx = Model.context w arch in
        let rctx = Ref.context w arch in
        let what = Printf.sprintf "%s on %s (optimized)" wname aname in
        compare_on what ctx rctx r.Opt.mapping;
        (* the optimizer's reported cost is itself a real evaluation *)
        (match Ref.evaluate_ctx rctx r.Opt.mapping with
        | Ok c' -> check_bits (what ^ ": reported edp") c'.Model.edp r.Opt.cost.Model.edp
        | Error msg -> Alcotest.failf "%s: reference rejects the optimum: %s" what msg))
    [
      ("conv1d", "conventional", P.conventional);
      ("matmul", "conventional", P.conventional);
      ("conv2d", "simba", P.simba_like);
    ]

(* gid order pin: level-major, declaration order within a level *)
let test_gid_order () =
  let w = find_workload "conv2d" in
  Alcotest.(check (list (pair string int)))
    "simba gid order"
    [ ("Wreg", 0); ("Wbuf", 1); ("Ibuf", 1); ("Obuf", 1); ("L2", 2); ("DRAM", 3) ]
    (Array.to_list (Model.partitions (Model.context w P.simba_like)));
  Alcotest.(check (list (pair string int)))
    "conventional gid order"
    [ ("L1", 0); ("L2", 1); ("DRAM", 2) ]
    (Array.to_list (Model.partitions (Model.context w P.conventional)))

(* batch entry points = scalar entry points, including rejected members *)
let test_batch_equals_scalar () =
  let w = find_workload "matmul" in
  let arch = P.conventional in
  let nl = List.length arch.A.levels in
  let streaming = M.single_level w ~num_levels:nl in
  let split =
    match split_mapping w ~num_levels:nl with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  let short = M.single_level w ~num_levels:(nl - 1) in
  let ms = [| streaming; split; short; streaming |] in
  let ctx = Model.context w arch in
  let batch = Model.evaluate_batch_ctx ctx ms in
  Array.iteri
    (fun i m ->
      let what = Printf.sprintf "batch member %d" i in
      match (batch.(i), Model.evaluate_ctx ctx m) with
      | Ok c, Ok c' -> check_cost what c c'
      | Error e, Error e' -> Alcotest.(check string) what e' e
      | _ -> Alcotest.failf "%s: batch and scalar disagree on acceptance" what)
    ms;
  let sbatch = Model.score_batch_ctx ctx ms in
  Array.iteri
    (fun i m ->
      let what = Printf.sprintf "score batch member %d" i in
      match (sbatch.(i), Model.score_ctx ctx m) with
      | Ok s, Ok s' ->
        check_bits (what ^ ": energy") s'.Model.s_energy_pj s.Model.s_energy_pj;
        check_bits (what ^ ": cycles") s'.Model.s_cycles s.Model.s_cycles;
        check_bits (what ^ ": edp") s'.Model.s_edp s.Model.s_edp
      | Error e, Error e' -> Alcotest.(check string) what e' e
      | _ -> Alcotest.failf "%s: batch and scalar disagree on acceptance" what)
    ms

(* ------------------------------------------------------------------ *)
(* Gc ground truth: the dynamic oracle the SA070 static lint is pinned  *)
(* to. Each side covers the other's blind spots — the lint sees code the *)
(* harness never executes, the harness sees allocations the token-level  *)
(* approximation cannot (closure captures, compiler-inserted boxing).    *)
(* CI fails if either side disagrees with the other.                     *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per call, after a warmup that faults in lazy state
   (grow-on-demand scratch) and pays any one-time
   boxing. [reps] large enough to expose even a single boxed float. *)
let words_per_call ~reps f =
  for _ = 1 to 100 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let test_gc_score_ctx_zero_alloc () =
  List.iter
    (fun (pname, arch) ->
      let w = find_workload "conv2d" in
      let nl = List.length arch.A.levels in
      let ctx = Model.context w arch in
      List.iter
        (fun (mname, m) ->
          (* only accepted mappings are the zero-allocation contract; the
             reject path legitimately builds its [Error] *)
          if Model.validate_ctx ctx m = Ok () then begin
            let score () =
              match Model.score_ctx ctx m with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e
            in
            let words = words_per_call ~reps:2000 score in
            if words <> 0.0 then
              Alcotest.failf "score_ctx allocates %.2f words/call (%s, %s) — want 0" words
                pname mname
          end)
        [
          ("single_level", M.single_level w ~num_levels:nl);
          ("split", match split_mapping w ~num_levels:nl with
                    | Ok m -> m
                    | Error e -> Alcotest.fail e);
        ])
    presets

(* the tile-tree fit test: both verdicts, at every level *)
let test_gc_fits_zero_alloc () =
  List.iter
    (fun (pname, arch) ->
      let w = find_workload "conv2d" in
      let ctx = Model.context w arch in
      List.iter
        (fun (tname, tile) ->
          for level = 0 to List.length arch.A.levels - 1 do
            let fits () = ignore (Model.fits_ctx ctx ~level tile) in
            let words = words_per_call ~reps:2000 fits in
            if words <> 0.0 then
              Alcotest.failf "fits_ctx allocates %.2f words/call (%s, %s tile, level %d) — want 0"
                words pname tname level
          done)
        [
          ("unit", Model.extent_vector ctx (fun _ -> 1));
          ("whole", Model.extent_vector ctx (W.bound w));
        ])
    presets

(* The tile-tree walk: what it allocates must not grow with the nodes it
   visits. Two walks over the same ladders (four dims of 512, ten rungs
   each) with the same one-tile frontier, box-bounded at 8 and at 64:
   256 and 2,401 fitting nodes. Growing the seen set past the minor heap's
   largest block lands in the major heap, so the minor words differ by
   less than one word per node of the smaller walk. *)
let test_gc_walk_flat () =
  let module Tree = Sun_core.Tile_tree in
  let walk lim =
    let fits f = f.(0) <= lim && f.(1) <= lim && f.(2) <= lim && f.(3) <= lim in
    let before = Gc.minor_words () in
    let out = Tree.search ~grow_dims:[ "A"; "B"; "C"; "D" ] ~remaining:(fun _ -> 512) ~fits () in
    (Gc.minor_words () -. before, out)
  in
  ignore (walk 8);
  let small_words, small = walk 8 in
  let large_words, large = walk 64 in
  Alcotest.(check (list int)) "explored" [ 256; 2401 ] [ small.Tree.explored; large.Tree.explored ];
  Alcotest.(check (list int)) "one-tile frontiers" [ 1; 1 ]
    [ List.length small.Tree.frontier; List.length large.Tree.frontier ];
  if large_words -. small_words >= float_of_int small.Tree.explored then
    Alcotest.failf
      "tile-tree walk allocation grows with nodes: %.0f minor words at 256 nodes, %.0f at 2401"
      small_words large_words

let test_gc_edf_zero_alloc () =
  let q = Sun_serve.Edf.create () in
  (* pre-warm capacity: steady-state daemons reach a working-set size and
     stay there; growth beyond it is the allocation being amortized *)
  for i = 0 to 63 do
    Sun_serve.Edf.push q ~deadline:(float_of_int i) ~seq:i ()
  done;
  for _ = 0 to 63 do
    ignore (Sun_serve.Edf.pop q)
  done;
  (* deadlines pre-boxed the way the daemon's request records hold them: a
     freshly computed float would be boxed by the caller at the call
     boundary, which is the caller's allocation, not the heap's *)
  let deadlines = Array.init 8 (fun i -> ("req", float_of_int (i * 37 mod 11))) in
  let seq = ref 0 in
  let pairs () =
    for i = 0 to 7 do
      incr seq;
      let _, d = deadlines.(i) in
      Sun_serve.Edf.push q ~deadline:d ~seq:!seq ()
    done;
    for _ = 0 to 7 do
      ignore (Sun_serve.Edf.pop q)
    done
  in
  let words = words_per_call ~reps:2000 pairs /. 8.0 in
  if words <> 0.0 then
    Alcotest.failf "Edf push/pop allocates %.2f words/pair — want 0" words

(* Static/dynamic agreement: the production tree must carry zero SA070
   diagnostics (the static side of the gate) while the Gc assertions above
   hold (the dynamic side). A disagreement in either direction — a finding
   on a path the harness measures at zero, or measured allocation on a path
   the lint passes — fails this suite. *)
let test_static_dynamic_agreement () =
  let rec find d =
    if Sys.file_exists (Filename.concat d "dune-project") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else find parent
  in
  match find (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
    let roots =
      List.filter Sys.file_exists (List.map (Filename.concat root) [ "lib"; "bin"; "bench" ])
    in
    if roots <> [] then begin
      let module Srclint = Sun_analysis.Srclint in
      let module D = Sun_analysis.Diagnostic in
      let r = Srclint.scan ~roots () in
      let hot_codes = [ "SA070"; "SA071"; "SA072"; "SA073"; "SA074" ] in
      let hot_hits =
        List.filter
          (fun (h : Srclint.hit) -> List.mem (D.code_id h.Srclint.h_diag.D.code) hot_codes)
          r.Srclint.hits
      in
      Alcotest.(check (list string))
        "static lint agrees with the Gc oracle: zero hot-path findings" []
        (List.map Srclint.hit_string hot_hits)
    end

(* A random mapping: each prime factor of each bound lands at a random
   level, temporally or (at fanout levels, less often) spatially, with
   DRAM weighted up so that legal mappings and both kinds of violation
   come up (over the four pairs below: ~80% legal, ~11% fanout, ~8% capacity). *)
let random_mapping rs w (arch : A.t) =
  let nl = List.length arch.A.levels in
  let dims = W.dim_names w in
  let t = Array.make_matrix nl (List.length dims) 1 and s = Array.make_matrix nl (List.length dims) 1 in
  List.iteri
    (fun di d ->
      List.iter
        (fun (p, k) ->
          for _ = 1 to k do
            let l = if Random.State.int rs 3 = 0 then nl - 1 else Random.State.int rs nl in
            let spatial = (A.level arch l).A.fanout > 1 && Random.State.int rs 3 = 0 in
            let row = if spatial then s.(l) else t.(l) in
            row.(di) <- row.(di) * p
          done)
        (Sun_util.Factor.prime_factorization (W.bound w d)))
    dims;
  let assoc row = List.mapi (fun di d -> (d, row.(di))) dims in
  M.make w (List.init nl (fun l -> { M.temporal = assoc t.(l); order = dims; spatial = assoc s.(l) }))

let qcheck_props =
  let open QCheck in
  (* occupancy = the W.footprint sum of the operands each partition
     stores, bit for bit, seen through every verdict derived from it *)
  let occupancy_matches_footprints wname (aname, (arch : A.t)) =
    let w = find_workload wname in
    let ctx = Model.context w arch in
    let dims = W.dim_names w in
    Test.make ~count:200
      ~name:(Printf.sprintf "%s/%s occupancy" wname aname)
      (list_of_size (Gen.return (List.length dims)) (int_range 1 16))
      (fun extents ->
        let tbl = List.combine dims extents in
        let ext d = List.assoc d tbl in
        let tile = Model.extent_vector ctx ext in
        List.for_all
          (fun level ->
            let lvl = A.level arch level in
            let used (p : A.partition) =
              Sun_util.Listx.sum_by
                (fun (op : W.operand) ->
                  match A.partition_for lvl ~role:op.W.name with
                  | Some p' when p'.A.part_name = p.A.part_name -> W.footprint ext op
                  | _ -> 0.0)
                w.W.operands
            in
            let over =
              if lvl.A.unbounded then []
              else
                List.filter
                  (fun (p : A.partition) -> used p > float_of_int p.A.capacity_words +. 1e-9)
                  lvl.A.partitions
            in
            let reported = Model.over_capacity_ctx ctx ~level tile in
            let fraction =
              List.fold_left
                (fun acc (p : A.partition) ->
                  if p.A.capacity_words > 0 then
                    Float.max acc (used p /. float_of_int p.A.capacity_words)
                  else acc)
                0.0 lvl.A.partitions
            in
            Model.fits_ctx ctx ~level tile = (over = [])
            && bits (Model.fill_fraction_ctx ctx ~level tile) = bits fraction
            && List.length reported = List.length over
            && List.for_all2
                 (fun (p : A.partition) v ->
                   match v with
                   | Model.Capacity { partition; footprint; capacity; level = l } ->
                     partition = p.A.part_name && bits footprint = bits (used p)
                     && capacity = p.A.capacity_words && l = level
                   | _ -> false)
                 over reported)
          (List.init (List.length arch.A.levels) Fun.id))
  in
  (* the typed first violation is Model_ref's verdict, message included *)
  let legality_matches_reference wname (aname, arch) =
    let w = find_workload wname in
    let ctx = Model.context w arch in
    let rctx = Ref.context w arch in
    Test.make ~count:200
      ~name:(Printf.sprintf "%s/%s legality" wname aname)
      (int_range 0 1_000_000)
      (fun seed ->
        match random_mapping (Random.State.make [| seed |]) w arch with
        | Error msg -> Test.fail_report msg
        | Ok m -> (
          match (Model.violation_ctx ctx m, Ref.evaluate_ctx rctx m) with
          | None, Ok _ -> true
          | Some v, Error e -> Model.violation_message ctx v = e
          | _ -> false))
  in
  List.concat_map
    (fun wname ->
      List.concat_map
        (fun preset ->
          [ occupancy_matches_footprints wname preset; legality_matches_reference wname preset ])
        presets)
    [ "conv2d"; "mmc" ]

let () =
  Alcotest.run "model hot path"
    [
      ( "golden bit-identity",
        [
          Alcotest.test_case "registry x presets" `Quick test_golden_registry;
          Alcotest.test_case "optimized mappings" `Quick test_golden_optimized;
        ] );
      ( "context",
        [ Alcotest.test_case "gid assignment order" `Quick test_gid_order ] );
      ( "batch",
        [ Alcotest.test_case "batch = scalar" `Quick test_batch_equals_scalar ] );
      ( "gc oracle",
        [
          Alcotest.test_case "score_ctx is allocation-free" `Quick
            test_gc_score_ctx_zero_alloc;
          Alcotest.test_case "fits_ctx is allocation-free" `Quick test_gc_fits_zero_alloc;
          Alcotest.test_case "tile-tree walk allocation is flat in nodes" `Quick test_gc_walk_flat;
          Alcotest.test_case "Edf push/pop is allocation-free" `Quick
            test_gc_edf_zero_alloc;
          Alcotest.test_case "static lint agrees" `Quick test_static_dynamic_agreement;
        ] );
      ("capacity properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
