module W = Sun_tensor.Workload
module C = Sun_tensor.Catalog
module P = Sun_arch.Presets
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Trie = Sun_core.Order_trie
module Tree = Sun_core.Tile_tree
module Unroll = Sun_core.Unroll
module Opt = Sun_core.Optimizer
module Mapspace = Sun_search.Mapspace

let conv1d = C.conv1d ~k:4 ~c:4 ~p:14 ~r:3 ()

(* ----------------------------- trie ------------------------------- *)

let find_suffix cands suffix =
  List.find_opt (fun c -> c.Trie.suffix = suffix) cands

let test_trie_fig4 () =
  let cands = Trie.candidates conv1d in
  (* xxCR (R innermost, then C): ofmap reused via both, ifmap partial.
     Fig 4 keeps it and prunes xxxC. *)
  (match find_suffix cands [ "R"; "C" ] with
  | Some c ->
    Alcotest.(check (list string)) "reuses ofmap" [ "ofmap" ] c.Trie.reused_operands;
    Alcotest.(check bool) "ifmap partial" true (List.mem ("ifmap", Trie.Partial) c.Trie.signature)
  | None -> Alcotest.fail "expected suffix [R;C] (the paper's xxCR) to survive");
  Alcotest.(check bool) "xxxC pruned (subsumed by xxCR)" true (find_suffix cands [ "C" ] = None);
  (* far fewer orders than 4! = 24 *)
  Alcotest.(check bool) "pruned hard" true (List.length cands <= 8);
  Alcotest.(check int) "unpruned count" 24 (Trie.all_orders_count conv1d)

let test_trie_orders_are_permutations () =
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        "permutation"
        (List.sort String.compare (W.dim_names conv1d))
        (List.sort String.compare c.Trie.order))
    (Trie.candidates conv1d)

let test_trie_signature_scan () =
  (* signature of [P] (innermost loop P): weight fully reused, ifmap
     partially (sliding), ofmap not (P indexes it) *)
  let s = Trie.suffix_signature conv1d [ "P" ] in
  Alcotest.(check bool) "weight full" true (List.mem ("weight", Trie.Full) s);
  Alcotest.(check bool) "ifmap partial" true (List.mem ("ifmap", Trie.Partial) s);
  Alcotest.(check bool) "no ofmap" true (not (List.mem_assoc "ofmap" s));
  (* [K] innermost: ifmap fully reused *)
  let s2 = Trie.suffix_signature conv1d [ "K" ] in
  Alcotest.(check bool) "ifmap full across K" true (List.mem ("ifmap", Trie.Full) s2)

let test_trie_matmul () =
  let mm = C.matmul ~m:8 ~n:8 ~k:8 () in
  let cands = Trie.candidates mm in
  (* each of the three operands can be the reused one *)
  let reused = List.concat_map (fun c -> c.Trie.reused_operands) cands in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " coverable") true (List.mem op reused))
    [ "a"; "b"; "out" ];
  Alcotest.(check bool) "small" true (List.length cands <= 6)

let test_trie_covers_deeper_reuse () =
  (* MTTKRP: out[i,j] reused across both K and L; the trie must offer an
     order reusing it across both. *)
  let w = C.mttkrp ~i:4 ~j:4 ~k:4 ~l:4 () in
  let cands = Trie.candidates w in
  Alcotest.(check bool) "two-deep reduction suffix" true
    (List.exists
       (fun c ->
         List.sort String.compare c.Trie.suffix = [ "K"; "L" ]
         && List.mem "out" c.Trie.reused_operands)
       cands)

(* --------------------------- tile tree ---------------------------- *)

(* The assoc-list walk the packed lattice walk replaced, frozen as the
   reference for the differential property below (the way [Model_ref] is
   kept for the cost model): a node is an assignment list, [seen] hashes
   it, and every child's fit is tested before any is visited. *)
module Tree_ref = struct
  let canonical grow_dims assignment =
    List.map (fun d -> (d, Tree.factor_of assignment d)) grow_dims

  let thin max_steps divisors =
    let n = List.length divisors in
    if n <= max_steps then divisors
    else begin
      let arr = Array.of_list divisors in
      let picked = List.init max_steps (fun i -> arr.(i * (n - 1) / (max_steps - 1))) in
      Sun_util.Listx.unique compare picked
    end

  let search ?(max_steps = max_int) ~grow_dims ~remaining ~fits () =
    let ladder =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun d ->
          Hashtbl.replace tbl d (thin max_steps (Sun_util.Factor.divisors (remaining d))))
        grow_dims;
      fun d -> Hashtbl.find tbl d
    in
    let next_step d current =
      let rec go = function
        | [] -> None
        | x :: _ when x > current -> Some x
        | _ :: rest -> go rest
      in
      go (ladder d)
    in
    let explored = ref 0 in
    let seen = Hashtbl.create 64 in
    let frontier = ref [] in
    let rec visit assignment =
      let key = canonical grow_dims assignment in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        incr explored;
        let grown =
          List.filter_map
            (fun d ->
              match next_step d (Tree.factor_of assignment d) with
              | Some f' ->
                let child = (d, f') :: List.remove_assoc d assignment in
                if fits child then Some child else None
              | None -> None)
            grow_dims
        in
        if grown = [] then frontier := key :: !frontier else List.iter visit grown
      end
    in
    let root = canonical grow_dims [] in
    if fits root then visit root else incr explored;
    { Tree.frontier = List.rev !frontier; explored = !explored }
end

(* Fig 5: unified L1 of 8 entries, grow P and K for the xxCR ordering;
   the frontier is K=2, P=2 (footprint 8: ofmap 4 + weight 2 + ifmap 2). *)
let test_tile_tree_fig5 () =
  let remaining = function "P" -> 14 | "K" -> 4 | _ -> 1 in
  let fits f =
    let p = f.(0) and k = f.(1) in
    (* C = R = 1 tile: ofmap k*p, weight k, ifmap p *)
    (k * p) + k + p <= 8
  in
  let out = Tree.search ~grow_dims:[ "P"; "K" ] ~remaining ~fits () in
  Alcotest.(check int) "single frontier tile" 1 (List.length out.Tree.frontier);
  let tile = List.hd out.Tree.frontier in
  Alcotest.(check int) "K=2" 2 (Tree.factor_of tile "K");
  Alcotest.(check int) "P=2" 2 (Tree.factor_of tile "P");
  Alcotest.(check bool) "explored counted" true (out.Tree.explored >= 4)

let test_tile_tree_root_too_big () =
  let out =
    Tree.search ~grow_dims:[ "K" ] ~remaining:(fun _ -> 4) ~fits:(fun _ -> false) ()
  in
  Alcotest.(check int) "no candidates" 0 (List.length out.Tree.frontier);
  Alcotest.(check int) "root counted" 1 out.Tree.explored

let test_tile_tree_factors_divide () =
  let remaining = function "A" -> 12 | "B" -> 9 | _ -> 1 in
  let fits_tile a = Tree.factor_of a "A" * Tree.factor_of a "B" <= 10 in
  let fits f = f.(0) * f.(1) <= 10 in
  let out = Tree.search ~grow_dims:[ "A"; "B" ] ~remaining ~fits () in
  List.iter
    (fun tile ->
      Alcotest.(check bool) "A divides" true (12 mod Tree.factor_of tile "A" = 0);
      Alcotest.(check bool) "B divides" true (9 mod Tree.factor_of tile "B" = 0);
      Alcotest.(check bool) "fits" true (fits_tile tile))
    out.Tree.frontier;
  (* frontier maximality: no grow step keeps it fitting *)
  List.iter
    (fun tile ->
      List.iter
        (fun d ->
          match Sun_util.Factor.next_divisor (remaining d) (Tree.factor_of tile d) with
          | Some f' ->
            let bigger = (d, f') :: List.remove_assoc d tile in
            Alcotest.(check bool) "maximal" false (fits_tile bigger)
          | None -> ())
        [ "A"; "B" ])
    out.Tree.frontier

(* 24^14 > max_int: packed keys would wrap, so the walk must refuse before
   it calls [fits] even once. 720720 has 240 divisors, thinned to 24. *)
let test_tile_tree_key_overflow () =
  let grow n = List.init n (fun i -> Printf.sprintf "D%d" i) in
  let walk n fits =
    Tree.search ~max_steps:24 ~grow_dims:(grow n) ~remaining:(fun _ -> 720720) ~fits ()
  in
  (match walk 14 (fun _ -> Alcotest.fail "fits called on an overflowing lattice") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let dims = "[" ^ String.concat "; " (grow 14) ^ "]" in
    let rec has i =
      i + String.length dims <= String.length msg
      && (String.sub msg i (String.length dims) = dims || has (i + 1))
    in
    Alcotest.(check bool) ("message names the grow dims: " ^ msg) true (has 0));
  (* 24^13 < max_int still walks *)
  Alcotest.(check int) "13 dims walk" 1 (walk 13 (fun _ -> false)).Tree.explored

(* ---------------------------- unroll ------------------------------ *)

let test_unroll_maximal () =
  let out =
    Unroll.candidates ~fanout:16 ~dims:[ "K"; "P" ]
      ~remaining:(function "K" -> 8 | "P" -> 14 | _ -> 1)
      ()
  in
  List.iter
    (fun a ->
      let p = List.fold_left (fun acc (_, f) -> acc * f) 1 a in
      Alcotest.(check bool) "within fanout" true (p <= 16))
    out.Unroll.candidates;
  (* K=8,P=2 is maximal and must be present *)
  Alcotest.(check bool) "K8 P2 found" true
    (List.exists
       (fun a -> Tree.factor_of a "K" = 8 && Tree.factor_of a "P" = 2)
       out.Unroll.candidates)

let test_unroll_fanout_one () =
  let out = Unroll.candidates ~fanout:1 ~dims:[ "K" ] ~remaining:(fun _ -> 8) () in
  Alcotest.(check int) "single trivial candidate" 1 (List.length out.Unroll.candidates)

let test_unroll_min_utilization () =
  let out =
    Unroll.candidates ~fanout:16 ~dims:[ "K" ]
      ~remaining:(function "K" -> 4 | _ -> 1)
      ~min_utilization:0.5 ()
  in
  (* best possible is 4/16 = 25% < 50%: the maximal assignment is still
     returned as the best available spatial reuse *)
  Alcotest.(check (list (list (pair string int)))) "fallback" [ [ ("K", 4) ] ] out.Unroll.candidates

(* --------------------------- optimizer ---------------------------- *)

let toy = P.toy ~l1_words:64 ~l2_words:512 ~pes:4 ()

let test_optimizer_finds_valid () =
  match Opt.optimize conv1d toy with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r ->
    (match Model.validate conv1d toy r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "returned invalid mapping: %s" msg);
    Alcotest.(check bool) "examined counted" true (r.Opt.stats.Opt.examined > 0);
    Alcotest.(check bool) "evaluated counted" true (r.Opt.stats.Opt.evaluated > 0);
    Alcotest.(check int) "no build errors on a natural search" 0 r.Opt.stats.Opt.build_errors

(* Regression: Optimizer.score used to swallow Mapping.make failures
   silently. An injected corruption of the first scored candidate (its
   first temporal factor is doubled, breaking exact dimension coverage)
   must surface in stats.build_errors while the search still succeeds on
   the remaining candidates. *)
let test_optimizer_counts_build_errors () =
  match Opt.optimize ~inject:Opt.Corrupt_first_build conv1d toy with
  | Error msg -> Alcotest.failf "search should survive one corrupt candidate: %s" msg
  | Ok r ->
    Alcotest.(check bool) "injected build failure counted" true
      (r.Opt.stats.Opt.build_errors >= 1);
    (match Model.validate conv1d toy r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "returned invalid mapping: %s" msg);
    (* and the same count is visible through telemetry when it is enabled *)
    let module Tel = Sun_telemetry.Metrics in
    Tel.set_enabled true;
    Tel.reset ();
    Fun.protect
      ~finally:(fun () ->
        Tel.reset ();
        Tel.set_enabled false)
      (fun () ->
        (match Opt.optimize ~inject:Opt.Corrupt_first_build conv1d toy with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "telemetry-enabled search failed: %s" msg);
        let snap = Tel.snapshot () in
        match List.assoc_opt "optimizer.build_errors" snap.Tel.s_counters with
        | Some n -> Alcotest.(check bool) "optimizer.build_errors >= 1" true (n >= 1)
        | None -> Alcotest.fail "optimizer.build_errors missing from telemetry")

(* Ground truth: on a tiny problem Sunstone must match the exhaustive
   optimum over the full (order x tile x unroll) space. *)
let test_optimizer_matches_exhaustive () =
  let w = C.matmul ~m:4 ~n:4 ~k:4 () in
  let arch = P.toy ~l1_words:12 ~l2_words:48 ~pes:4 () in
  let space = Mapspace.create w arch in
  let best_exhaustive =
    Seq.fold_left
      (fun best m ->
        match Model.evaluate w arch m with
        | Ok c -> Float.min best c.Model.edp
        | Error _ -> best)
      Float.infinity (Mapspace.enumerate space)
  in
  match Opt.optimize ~config:{ Opt.default_config with min_spatial_utilization = 0.0 } w arch with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "sunstone %.4g within 1.05x of optimum %.4g" r.Opt.cost.Model.edp
         best_exhaustive)
      true
      (r.Opt.cost.Model.edp <= best_exhaustive *. 1.05 +. 1e-9)

let test_optimizer_beats_naive () =
  match Opt.optimize conv1d toy with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r ->
    let naive = M.single_level conv1d ~num_levels:3 in
    let naive_cost = Model.evaluate_exn conv1d toy naive in
    Alcotest.(check bool) "better than streaming" true
      (r.Opt.cost.Model.edp < naive_cost.Model.edp)

let test_optimizer_conv_conventional () =
  let layer = C.conv2d ~n:1 ~k:16 ~c:16 ~p:14 ~q:14 ~r:3 ~s:3 () in
  match Opt.optimize layer P.conventional with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r -> (
    match Model.validate layer P.conventional r.Opt.mapping with
    | Ok () ->
      Alcotest.(check bool) "uses the PE array" true (M.total_spatial r.Opt.mapping > 1)
    | Error msg -> Alcotest.failf "invalid: %s" msg)

let test_optimizer_simba () =
  let layer = C.conv2d ~n:1 ~k:32 ~c:16 ~p:8 ~q:8 ~r:3 ~s:3 () in
  match Opt.optimize layer P.simba_like with
  | Error msg -> Alcotest.failf "optimizer failed: %s" msg
  | Ok r -> (
    match Model.validate layer P.simba_like r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invalid: %s" msg)

let test_optimizer_non_dnn () =
  List.iter
    (fun (name, w) ->
      match Opt.optimize w P.conventional with
      | Error msg -> Alcotest.failf "%s failed: %s" name msg
      | Ok r -> (
        match Model.validate w P.conventional r.Opt.mapping with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s invalid: %s" name msg))
    [
      ("mttkrp", C.mttkrp ~i:64 ~j:32 ~k:16 ~l:16 ());
      ("ttmc", C.ttmc ~i:32 ~j:16 ~k:16 ~l:8 ~m:8 ());
      ("sddmm", C.sddmm ~i:64 ~j:64 ~k:32 ());
    ]

let test_top_down_works () =
  let cfg = { Opt.default_config with Opt.direction = Opt.Top_down; beam_width = 16 } in
  match Opt.optimize ~config:cfg conv1d toy with
  | Error msg -> Alcotest.failf "top-down failed: %s" msg
  | Ok r -> (
    match Model.validate conv1d toy r.Opt.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "top-down invalid: %s" msg)

(* Warm-started search: a legal seed can only help, an illegal one must
   leave the search exactly as unseeded. *)
let test_optimizer_seeded () =
  let unseeded =
    match Opt.optimize conv1d toy with
    | Ok r -> r
    | Error msg -> Alcotest.failf "unseeded optimize failed: %s" msg
  in
  (* the unseeded winner itself as seed: trivially legal, so the seeded
     search must end at the same EDP (it starts from the optimum) *)
  let seed = Array.to_list unseeded.Opt.mapping.M.levels in
  (match Opt.optimize ~seed conv1d toy with
  | Error msg -> Alcotest.failf "seeded optimize failed: %s" msg
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "seeded EDP %.6g <= unseeded %.6g" r.Opt.cost.Model.edp
         unseeded.Opt.cost.Model.edp)
      true
      (r.Opt.cost.Model.edp <= unseeded.Opt.cost.Model.edp *. (1.0 +. 1e-9)));
  (* an illegal seed (per-dim products no longer cover the bounds) is
     dropped silently and the result is bit-identical with unseeded *)
  let garbage =
    List.map
      (fun (lm : M.level_mapping) ->
        { lm with M.temporal = List.map (fun (d, f) -> (d, f * 7)) lm.M.temporal })
      seed
  in
  match Opt.optimize ~seed:garbage conv1d toy with
  | Error msg -> Alcotest.failf "garbage-seeded optimize failed: %s" msg
  | Ok r ->
    Alcotest.(check string) "mapping identical to unseeded"
      (M.to_string unseeded.Opt.mapping) (M.to_string r.Opt.mapping);
    Alcotest.(check int) "evaluated identical to unseeded" unseeded.Opt.stats.Opt.evaluated
      r.Opt.stats.Opt.evaluated

(* Regression for the stale-snapshot refine bug: moves were generated
   against the mapping from the start of the refinement round even after a
   move was accepted, so a later move could divide a factor the earlier
   move had already shrunk — [Mapping.make] then failed and the failure was
   miscounted as a search build error. With per-move re-snapshotting and
   the divisibility pre-check, an uninjected search must never record a
   build error, refinement included. Nor an evaluation error: every
   complete candidate passes the model's capacity kernel before it is
   built, so the registry layers whose bottom-up tiles used to overflow a
   level above (L1's Ibuf/Obuf on simba) and whose refine moves used to
   fill Wreg reach the model legal. *)
let test_refine_no_build_errors () =
  let registry name =
    match Sun_serve.Registry.find_workload name with
    | Ok w -> w
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (name, w, arch) ->
      match Opt.optimize ~config:{ Opt.default_config with Opt.refine = true } w arch with
      | Error msg -> Alcotest.failf "%s failed: %s" name msg
      | Ok r ->
        Alcotest.(check int) (name ^ ": build_errors") 0 r.Opt.stats.Opt.build_errors;
        Alcotest.(check int) (name ^ ": eval_errors") 0 r.Opt.stats.Opt.eval_errors)
    [
      ("conv1d/toy", conv1d, toy);
      ("conv2d/conventional", C.conv2d ~n:1 ~k:32 ~c:32 ~p:14 ~q:14 ~r:3 ~s:3 (), P.conventional);
      ("mttkrp/conventional", C.mttkrp ~i:64 ~j:32 ~k:16 ~l:16 (), P.conventional);
      ("resnet18/conv1/simba", registry "resnet18/conv1", P.simba_like);
      ("resnet18/conv2_x/simba", registry "resnet18/conv2_x", P.simba_like);
      ("inception/3x3_stem/simba", registry "inception/3x3_stem", P.simba_like);
    ]

(* Search golden: every ResNet-18 and Inception-v3 registry layer plus the
   four sparse tensor layers, on simba and conventional, must reproduce the
   committed fixture line for line — EDP and energy as float bits, the
   [Optimizer.stats] counts and a digest of the mapping. A drift in
   candidate dedup, beam keys or completion changes some line here. On a
   mismatch the full actual listing is written next to the test binary as
   [search_golden.actual]. *)
let golden_searches () =
  let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let dnn =
    List.filter
      (fun (n, _) -> has_prefix "resnet18/" n || has_prefix "inception/" n)
      (Sun_serve.Registry.workloads ())
  in
  let tensor =
    List.map
      (fun n ->
        match Sun_serve.Registry.find_workload n with Ok w -> (n, w) | Error m -> failwith m)
      [ "mttkrp/netflix"; "ttmc/netflix"; "sddmm/bcsstk17"; "sddmm/cant" ]
  in
  List.concat_map
    (fun arch_name ->
      let arch =
        match Sun_serve.Registry.find_arch arch_name with Ok a -> a | Error m -> failwith m
      in
      List.map (fun (n, w) -> (n ^ "@" ^ arch_name, w, arch)) (dnn @ tensor))
    [ "simba"; "conventional" ]

let golden_line (label, w, arch) =
  match Opt.optimize w arch with
  | Error msg -> Printf.sprintf "%s error=%s" label msg
  | Ok r ->
    let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
    let s = r.Opt.stats in
    Printf.sprintf
      "%s edp=%s energy=%s examined=%d evaluated=%d pruned=%d build_errors=%d eval_errors=%d \
       mapping=%s"
      label (bits r.Opt.cost.Model.edp) (bits r.Opt.cost.Model.energy_pj) s.Opt.examined
      s.Opt.evaluated s.Opt.pruned_alpha_beta s.Opt.build_errors s.Opt.eval_errors
      (Digest.to_hex (Digest.string (M.to_string r.Opt.mapping)))

let test_search_golden () =
  let expected =
    In_channel.with_open_text "fixtures/search_golden.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let actual = List.map golden_line (golden_searches ()) in
  if actual <> expected then begin
    Out_channel.with_open_text "search_golden.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff = function
      | e :: es, a :: as_ ->
        if e = a then first_diff (es, as_) else Printf.sprintf "want %s\n got %s" e a
      | e :: _, [] -> "missing " ^ e
      | [], a :: _ -> "extra " ^ a
      | [], [] -> "?"
    in
    Alcotest.failf "search golden drifted (%d lines want, %d got); first difference:\n%s"
      (List.length expected) (List.length actual) (first_diff (expected, actual))
  end

(* Table VI: the intra-level optimization order barely affects mapping
   quality on realistic layers (tiles cannot saturate the large channel
   dimensions, so every variant reaches comparable unrollings). *)
let test_intra_orders_same_quality () =
  let layer = C.conv2d ~n:1 ~k:64 ~c:64 ~p:14 ~q:14 ~r:3 ~s:3 () in
  let run intra =
    match Opt.optimize ~config:{ Opt.default_config with Opt.intra } layer P.conventional with
    | Ok r -> r.Opt.cost.Model.edp
    | Error msg -> Alcotest.failf "intra variant failed: %s" msg
  in
  let a = run Opt.Ordering_first in
  let b = run Opt.Tiling_first in
  let c = run Opt.Unrolling_first in
  let best = Float.min a (Float.min b c) in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within 1.3x of best (%.3g vs %.3g)" name v best)
        true
        (v <= best *. 1.3))
    [ ("ordering-first", a); ("tiling-first", b); ("unrolling-first", c) ]

(* A random monotone fit test over [n] grow dims: a weighted footprint sum
   (each operand a product over a subset of the dims) within [cap], and/or
   the product of every factor within [fanout] — as the capacity and the
   unrolling walks use it. The first operand spans every dim, so either
   test bounds the lattice the reference walk has to visit. *)
type walk_case = {
  bounds : int list;
  max_steps : int;
  operands : (bool list * int) list;  (** dim subset, weight *)
  cap : int option;
  fanout : int option;
}

let walk_case_gen =
  let open QCheck.Gen in
  (* every bound has more than 24 divisors, so thinning applies *)
  let pool = [ 720; 840; 1260; 1680; 2520; 5040; 7560; 10080; 27720 ] in
  int_range 1 5 >>= fun n ->
  list_repeat n (oneofl pool) >>= fun bounds ->
  oneofl [ max_int; 16; 20; 24 ] >>= fun max_steps ->
  list_size (int_range 0 3) (pair (list_repeat n bool) (int_range 1 4)) >>= fun operands ->
  oneofl [ `Cap; `Fanout; `Both ] >>= fun kind ->
  int_range 0 512 >>= fun cap ->
  int_range 1 256 >|= fun fanout ->
  {
    bounds;
    max_steps;
    operands = (List.map (fun _ -> true) bounds, 1) :: operands;
    cap = (if kind = `Fanout then None else Some cap);
    fanout = (if kind = `Cap then None else Some fanout);
  }

let print_walk_case c =
  Printf.sprintf "bounds=[%s] max_steps=%d operands=[%s] cap=%s fanout=%s"
    (String.concat ";" (List.map string_of_int c.bounds))
    c.max_steps
    (String.concat ";"
       (List.map
          (fun (mask, wt) ->
            Printf.sprintf "%d*%s" wt
              (String.concat "" (List.map (fun b -> if b then "1" else "0") mask)))
          c.operands))
    (match c.cap with Some x -> string_of_int x | None -> "-")
    (match c.fanout with Some x -> string_of_int x | None -> "-")

(* [factor i]: the factor of the [i]-th grow dim *)
let case_fits c factor =
  let n = List.length c.bounds in
  let footprint =
    List.fold_left
      (fun acc (mask, wt) ->
        let rec prod i m p =
          match m with
          | [] -> p
          | true :: rest -> prod (i + 1) rest (p *. float_of_int (factor i))
          | false :: rest -> prod (i + 1) rest p
        in
        acc +. (float_of_int wt *. prod 0 mask 1.0))
      0.0 c.operands
  in
  let product =
    List.fold_left (fun acc i -> acc *. float_of_int (factor i)) 1.0 (List.init n Fun.id)
  in
  (match c.cap with Some cap -> footprint <= float_of_int cap | None -> true)
  && match c.fanout with Some f -> product <= float_of_int f | None -> true

let walk_matches_reference c =
  let grow_dims = List.mapi (fun i _ -> Printf.sprintf "D%d" i) c.bounds in
  let remaining d = List.nth c.bounds (int_of_string (String.sub d 1 (String.length d - 1))) in
  let out =
    Tree.search ~max_steps:c.max_steps ~grow_dims ~remaining
      ~fits:(fun f -> case_fits c (fun i -> f.(i)))
      ()
  in
  let expected =
    Tree_ref.search ~max_steps:c.max_steps ~grow_dims ~remaining
      ~fits:(fun a -> case_fits c (fun i -> Tree.factor_of a (List.nth grow_dims i)))
      ()
  in
  out.Tree.frontier = expected.Tree.frontier && out.Tree.explored = expected.Tree.explored

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"tile tree walk = frozen assoc-list walk" ~count:200
      (make ~print:print_walk_case walk_case_gen)
      walk_matches_reference;
    Test.make ~name:"optimizer mappings always valid" ~count:25
      (make Gen.(tup4 (1 -- 4) (1 -- 4) (1 -- 4) (1 -- 3)))
      (fun (k2, c2, p2, r) ->
        let w = C.conv1d ~k:(2 * k2) ~c:(2 * c2) ~p:(4 * p2) ~r () in
        match Opt.optimize w toy with
        | Error _ -> true (* genuinely unmappable is acceptable *)
        | Ok res -> (
          match Model.validate w toy res.Opt.mapping with Ok () -> true | Error _ -> false));
    Test.make ~name:"trie candidates cover every operand's reuse" ~count:25
      (make Gen.(tup3 (2 -- 8) (2 -- 8) (2 -- 8)))
      (fun (m, n, k) ->
        let w = C.matmul ~m ~n ~k () in
        let cands = Trie.candidates w in
        let reused = List.concat_map (fun c -> c.Trie.reused_operands) cands in
        List.for_all (fun (op : W.operand) -> List.mem op.W.name reused) w.W.operands);
  ]

let () =
  Alcotest.run "sun_core"
    [
      ( "order trie",
        [
          Alcotest.test_case "fig 4 pruning" `Quick test_trie_fig4;
          Alcotest.test_case "orders are permutations" `Quick test_trie_orders_are_permutations;
          Alcotest.test_case "signature scan" `Quick test_trie_signature_scan;
          Alcotest.test_case "matmul coverage" `Quick test_trie_matmul;
          Alcotest.test_case "deep reduction suffix" `Quick test_trie_covers_deeper_reuse;
        ] );
      ( "tile tree",
        [
          Alcotest.test_case "fig 5 frontier" `Quick test_tile_tree_fig5;
          Alcotest.test_case "root too big" `Quick test_tile_tree_root_too_big;
          Alcotest.test_case "divisibility and maximality" `Quick test_tile_tree_factors_divide;
          Alcotest.test_case "packed key overflow" `Quick test_tile_tree_key_overflow;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "maximal candidates" `Quick test_unroll_maximal;
          Alcotest.test_case "fanout one" `Quick test_unroll_fanout_one;
          Alcotest.test_case "min utilization fallback" `Quick test_unroll_min_utilization;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "finds valid mapping" `Quick test_optimizer_finds_valid;
          Alcotest.test_case "counts injected build errors" `Quick
            test_optimizer_counts_build_errors;
          Alcotest.test_case "matches exhaustive optimum" `Slow test_optimizer_matches_exhaustive;
          Alcotest.test_case "beats naive streaming" `Quick test_optimizer_beats_naive;
          Alcotest.test_case "conv on conventional" `Quick test_optimizer_conv_conventional;
          Alcotest.test_case "conv on simba" `Quick test_optimizer_simba;
          Alcotest.test_case "non-DNN workloads" `Quick test_optimizer_non_dnn;
          Alcotest.test_case "seeded search" `Quick test_optimizer_seeded;
          Alcotest.test_case "refine produces no build errors" `Quick test_refine_no_build_errors;
          Alcotest.test_case "top-down variant" `Quick test_top_down_works;
          Alcotest.test_case "intra-level orders" `Quick test_intra_orders_same_quality;
          Alcotest.test_case "search golden (registry layers)" `Quick test_search_golden;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
