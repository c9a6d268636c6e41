module W = Sun_tensor.Workload
module C = Sun_tensor.Catalog
module M = Sun_mapping.Mapping

let conv1d = C.conv1d ~k:4 ~c:4 ~p:14 ~r:3 ()
let dims = [ "K"; "C"; "P"; "R" ]
let ones = List.map (fun d -> (d, 1)) dims

let lm ?(spatial = ones) ?(order = dims) temporal : M.level_mapping =
  let full = List.map (fun d -> match List.assoc_opt d temporal with Some f -> (d, f) | None -> (d, 1)) dims in
  let full_spatial =
    List.map (fun d -> match List.assoc_opt d spatial with Some f -> (d, f) | None -> (d, 1)) dims
  in
  { M.temporal = full; order; spatial = full_spatial }

(* the paper's Algorithm 4 mapping: L1 tile (K2,P7,C2,R3), L2 loops P2 K2 C2 *)
let algorithm4 =
  M.make_exn conv1d
    [
      lm [ ("K", 2); ("P", 7); ("C", 2); ("R", 3) ];
      lm ~order:[ "P"; "K"; "C"; "R" ] [ ("K", 2); ("P", 2); ("C", 2) ];
      lm [];
    ]

let test_make_ok () =
  Alcotest.(check int) "levels" 3 (M.num_levels algorithm4);
  Alcotest.(check int) "tile K at L1" 2 (M.tile_at algorithm4 ~level:0 "K");
  Alcotest.(check int) "tile K at L2" 4 (M.tile_at algorithm4 ~level:1 "K");
  Alcotest.(check int) "top tile P" 14 (M.tile_at algorithm4 ~level:2 "P");
  Alcotest.(check int) "top equals bound" (W.bound conv1d "P") (M.tile_at algorithm4 ~level:2 "P")

let test_make_rejects () =
  let bad_product =
    M.make conv1d [ lm [ ("K", 3) ]; lm []; lm [ ("C", 4); ("P", 14); ("R", 3) ] ]
  in
  (match bad_product with
  | Error msg -> Alcotest.(check bool) "names dim" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected product violation");
  let bad_order =
    M.make conv1d
      [
        { M.temporal = ones; order = [ "K"; "C"; "P" ]; spatial = ones };
        lm [];
        lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
      ]
  in
  (match bad_order with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected order violation");
  let bad_factor = M.make conv1d [ lm [ ("K", 0) ]; lm []; lm [] ] in
  match bad_factor with Error _ -> () | Ok _ -> Alcotest.fail "expected factor violation"

let expect_error what = function
  | Error msg -> Alcotest.(check bool) (what ^ " names the violation") true (String.length msg > 0)
  | Ok _ -> Alcotest.failf "%s: expected rejection" what

let test_make_missing_dimension () =
  (* a temporal factor list that omits a workload dimension entirely *)
  let missing_r d = List.filter (fun (d', _) -> d' <> d) ones in
  expect_error "missing dim in temporal"
    (M.make conv1d
       [
         { M.temporal = missing_r "R"; order = dims; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ]);
  (* an unknown extra dimension is just as invalid *)
  expect_error "unknown dim in temporal"
    (M.make conv1d
       [
         { M.temporal = ("Z", 1) :: ones; order = dims; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ]);
  expect_error "missing dim in spatial"
    (M.make conv1d
       [
         { M.temporal = ones; order = dims; spatial = missing_r "K" };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ])

let test_make_product_mismatch () =
  (* per-dimension factor product must equal the workload bound *)
  expect_error "product under bound"
    (M.make conv1d [ lm [ ("P", 7) ]; lm []; lm [ ("K", 4); ("C", 4); ("R", 3) ] ]);
  expect_error "product over bound"
    (M.make conv1d
       [ lm [ ("P", 14) ]; lm [ ("P", 2) ]; lm [ ("K", 4); ("C", 4); ("R", 3) ] ])

let test_make_duplicate_order () =
  expect_error "duplicate dims in order"
    (M.make conv1d
       [
         { M.temporal = ones; order = [ "K"; "K"; "C"; "P" ]; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ]);
  expect_error "order with foreign dim"
    (M.make conv1d
       [
         { M.temporal = ones; order = [ "K"; "C"; "P"; "Z" ]; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ])

let test_footprints () =
  (* L1 tile of Algorithm 4: ofmap 7*2, weight 2*2*3, ifmap (7+3-1)*2 *)
  let fp name = M.footprint_at conv1d algorithm4 ~level:0 (W.find_operand conv1d name) in
  Alcotest.(check (float 0.0)) "ofmap" 14.0 (fp "ofmap");
  Alcotest.(check (float 0.0)) "weight" 12.0 (fp "weight");
  Alcotest.(check (float 0.0)) "ifmap" 18.0 (fp "ifmap")

let test_spatial () =
  let m =
    M.make_exn conv1d
      [
        lm [ ("P", 7); ("R", 3) ];
        lm ~spatial:[ ("K", 2); ("C", 2) ] [ ("K", 2); ("C", 2); ("P", 2) ];
        lm [];
      ]
  in
  Alcotest.(check int) "spatial product L2" 4 (M.spatial_product m ~level:1);
  Alcotest.(check int) "total spatial" 4 (M.total_spatial m);
  (* spatial factors at level 1 are part of the level-1 tile *)
  Alcotest.(check int) "tile K at L2 includes unroll" 4 (M.tile_at m ~level:1 "K")

let test_single_level () =
  let m = M.single_level conv1d ~num_levels:3 in
  Alcotest.(check int) "levels" 3 (M.num_levels m);
  Alcotest.(check int) "inner tile is 1" 1 (M.tile_at m ~level:1 "P");
  Alcotest.(check int) "top covers bound" 14 (M.tile_at m ~level:2 "P")

let test_loops_outermost_first () =
  let loops = M.loops_outermost_first algorithm4 in
  (* bound-1 loops are dropped; outermost (highest level) first *)
  Alcotest.(check bool) "no unit loops" true (List.for_all (fun (_, _, b) -> b > 1) loops);
  let levels = List.map (fun (l, _, _) -> l) loops in
  Alcotest.(check bool) "descending levels" true (List.sort (fun a b -> compare b a) levels = levels);
  match loops with
  | (1, "P", 2) :: _ -> ()
  | (l, d, b) :: _ -> Alcotest.failf "outermost is L%d %s:%d, expected L1 P:2" l d b
  | [] -> Alcotest.fail "no loops"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_roundtrip_info () =
  let s = M.to_string algorithm4 in
  Alcotest.(check bool) "mentions L2 loops" true (contains s "for P in 2");
  Alcotest.(check bool) "mentions L1 tile loop" true (contains s "for R in 3")

(* The list-based [Mapping.validate] as it stood before validation became
   a single positional pass, frozen as the differential oracle for
   [Mapping.make]: same verdict, same mapping, same error string. *)
module Mapping_ref = struct
  let ( let* ) = Result.bind

  let factor assoc d = match List.assoc_opt d assoc with Some f -> f | None -> 1

  let tile_at_top (levels : M.level_mapping array) d =
    Array.fold_left
      (fun acc (lm : M.level_mapping) -> acc * factor lm.M.temporal d * factor lm.M.spatial d)
      1 levels

  let validate w levels =
    let dims = W.dim_names w in
    let sorted_dims = List.sort String.compare dims in
    let first_error f xs =
      List.fold_left (fun acc x -> match acc with Error _ -> acc | Ok () -> f x) (Ok ()) xs
    in
    let check_level (i, (lm : M.level_mapping)) =
      let known_factors assoc kind =
        first_error
          (fun (d, f) ->
            if not (List.mem d dims) then
              Error (Printf.sprintf "level %d: unknown dim %s in %s factors" i d kind)
            else if f < 1 then Error (Printf.sprintf "level %d: %s factor of %s is %d" i kind d f)
            else Ok ())
          assoc
      in
      let covers assoc kind =
        if List.sort String.compare (List.map fst assoc) <> sorted_dims then
          Error
            (Printf.sprintf "level %d: %s factors must cover each workload dim exactly once" i kind)
        else Ok ()
      in
      let* () = known_factors lm.M.temporal "temporal" in
      let* () = known_factors lm.M.spatial "spatial" in
      let* () = covers lm.M.temporal "temporal" in
      let* () = covers lm.M.spatial "spatial" in
      if List.sort String.compare lm.M.order <> sorted_dims then
        Error (Printf.sprintf "level %d: order is not a permutation of the workload dims" i)
      else Ok ()
    in
    let* () = first_error check_level (List.mapi (fun i lm -> (i, lm)) levels) in
    let arr = Array.of_list levels in
    let* () =
      first_error
        (fun d ->
          let placed = tile_at_top arr d in
          let bound = W.bound w d in
          if placed <> bound then
            Error (Printf.sprintf "dim %s: factors multiply to %d, bound is %d" d placed bound)
          else Ok ())
        dims
    in
    Ok arr
end

(* Random level lists for the differential: a valid mapping (every bound
   split across the levels' temporal and spatial factors, lists sometimes
   shuffled) with up to three mutations, each one of: an unknown dim, a
   zero or negative factor, a dropped or duplicated entry, a short, long,
   repeated or foreign order, or a factor that breaks the product. *)
let gen_level_list : (W.t * M.level_mapping list) QCheck.Gen.t =
 fun st ->
  let pick xs = List.nth xs (Random.State.int st (List.length xs)) in
  let w = pick [ conv1d; C.matmul ~m:12 ~n:8 ~k:5 (); C.conv1d ~k:2 ~c:1 ~p:6 ~r:2 () ] in
  let wdims = W.dim_names w in
  let nd = List.length wdims in
  let nlevels = Random.State.int st 5 in
  let tf = Array.make_matrix nlevels nd 1 and sf = Array.make_matrix nlevels nd 1 in
  List.iteri
    (fun j (_, bound) ->
      let rem = ref bound in
      for l = 0 to nlevels - 1 do
        let take slot =
          let f = pick (Sun_util.Factor.divisors !rem) in
          slot.(l).(j) <- f;
          rem := !rem / f
        in
        take sf;
        take tf
      done;
      if nlevels > 0 then tf.(nlevels - 1).(j) <- tf.(nlevels - 1).(j) * !rem)
    w.W.dims;
  let shuffle xs =
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) xs))
  in
  let maybe_shuffle xs = if Random.State.int st 4 = 0 then shuffle xs else xs in
  let levels =
    Array.init nlevels (fun l ->
        {
          M.temporal = maybe_shuffle (List.mapi (fun j d -> (d, tf.(l).(j))) wdims);
          order = shuffle wdims;
          spatial = maybe_shuffle (List.mapi (fun j d -> (d, sf.(l).(j))) wdims);
        })
  in
  let edit_nth xs f =
    match xs with
    | [] -> xs
    | _ ->
      let k = Random.State.int st (List.length xs) in
      List.concat (List.mapi (fun i x -> if i = k then f x else [ x ]) xs)
  in
  let mutate_factors xs =
    match Random.State.int st 6 with
    | 0 -> edit_nth xs (fun e -> [ ("Z", 1); e ])
    | 1 -> edit_nth xs (fun (d, _) -> [ (d, pick [ 0; -1; -4 ]) ])
    | 2 -> edit_nth xs (fun _ -> [])
    | 3 -> edit_nth xs (fun e -> [ e; e ])
    | 4 -> edit_nth xs (fun (d, f) -> [ (d, f * pick [ 2; 3 ]) ])
    | _ -> edit_nth xs (fun (_, f) -> [ (pick wdims, f) ])
  in
  let mutate_order xs =
    match Random.State.int st 5 with
    | 0 -> edit_nth xs (fun _ -> [])
    | 1 -> xs @ [ pick wdims ]
    | 2 -> edit_nth xs (fun _ -> [ pick wdims ])
    | 3 -> edit_nth xs (fun d -> [ d; "Z" ])
    | _ -> xs @ xs
  in
  for _ = 1 to Random.State.int st 4 do
    if nlevels > 0 then begin
      let l = Random.State.int st nlevels in
      let lm = levels.(l) in
      levels.(l) <-
        (match Random.State.int st 3 with
        | 0 -> { lm with M.temporal = mutate_factors lm.M.temporal }
        | 1 -> { lm with M.spatial = mutate_factors lm.M.spatial }
        | _ -> { lm with M.order = mutate_order lm.M.order })
    end
  done;
  (w, Array.to_list levels)

let print_level_list (w, levels) =
  let assoc xs = String.concat "," (List.map (fun (d, f) -> Printf.sprintf "%s%d" d f) xs) in
  w.W.name ^ ": "
  ^ String.concat " ; "
      (List.map
         (fun (lm : M.level_mapping) ->
           Printf.sprintf "t[%s] o[%s] s[%s]" (assoc lm.M.temporal) (String.concat "," lm.M.order)
             (assoc lm.M.spatial))
         levels)

let qcheck_props =
  let open QCheck in
  let factor_split n =
    (* random (a, b) with a*b = n *)
    Gen.map
      (fun i ->
        let ds = Sun_util.Factor.divisors n in
        let a = List.nth ds (i mod List.length ds) in
        (a, n / a))
      Gen.(0 -- 100)
  in
  [
    Test.make ~name:"tile_at top always equals bound" ~count:100
      (make Gen.(tup2 (factor_split 12) (factor_split 8)))
      (fun ((k1, k2), (p1, p2)) ->
        let w = C.matmul ~m:12 ~n:8 ~k:5 () in
        let dims = [ "M"; "N"; "K" ] in
        let ones = List.map (fun d -> (d, 1)) dims in
        let level t = { M.temporal = t; order = dims; spatial = ones } in
        let m =
          M.make_exn w
            [
              level [ ("M", k1); ("N", p1); ("K", 5) ];
              level [ ("M", k2); ("N", p2); ("K", 1) ];
            ]
        in
        M.tile_at m ~level:1 "M" = 12 && M.tile_at m ~level:1 "N" = 8);
    Test.make ~name:"footprint_at non-decreasing in level" ~count:100
      (make Gen.(tup2 (factor_split 12) (factor_split 8)))
      (fun ((k1, k2), (p1, p2)) ->
        let w = C.matmul ~m:12 ~n:8 ~k:5 () in
        let dims = [ "M"; "N"; "K" ] in
        let ones = List.map (fun d -> (d, 1)) dims in
        let level t = { M.temporal = t; order = dims; spatial = ones } in
        let m =
          M.make_exn w
            [
              level [ ("M", k1); ("N", p1); ("K", 1) ];
              level [ ("M", k2); ("N", p2); ("K", 5) ];
            ]
        in
        List.for_all
          (fun op ->
            M.footprint_at w m ~level:0 op <= M.footprint_at w m ~level:1 op)
          w.W.operands);
    Test.make ~name:"Mapping.make = frozen list-based validate" ~count:2000
      (make ~print:print_level_list gen_level_list)
      (fun (w, levels) ->
        match (M.make w levels, Mapping_ref.validate w levels) with
        | Ok m, Ok arr -> m.M.levels = arr
        | Error a, Error b -> String.equal a b || Test.fail_reportf "got %S, want %S" a b
        | Ok _, Error b -> Test.fail_reportf "accepted, want %S" b
        | Error a, Ok _ -> Test.fail_reportf "rejected with %S, want Ok" a);
  ]

let () =
  Alcotest.run "sun_mapping"
    [
      ( "structure",
        [
          Alcotest.test_case "make ok" `Quick test_make_ok;
          Alcotest.test_case "make rejects" `Quick test_make_rejects;
          Alcotest.test_case "missing dimension" `Quick test_make_missing_dimension;
          Alcotest.test_case "factor product mismatch" `Quick test_make_product_mismatch;
          Alcotest.test_case "duplicate dims in order" `Quick test_make_duplicate_order;
          Alcotest.test_case "single_level" `Quick test_single_level;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "footprints" `Quick test_footprints;
          Alcotest.test_case "spatial" `Quick test_spatial;
          Alcotest.test_case "loops flattening" `Quick test_loops_outermost_first;
          Alcotest.test_case "pretty printing" `Quick test_pp_roundtrip_info;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
