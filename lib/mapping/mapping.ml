module W = Sun_tensor.Workload

type dim = W.dim

type level_mapping = { temporal : (dim * int) list; order : dim list; spatial : (dim * int) list }

type t = { levels : level_mapping array }

let num_levels t = Array.length t.levels

let factor assoc d = match List.assoc_opt d assoc with Some f -> f | None -> 1

let temporal_factor t ~level d = factor t.levels.(level).temporal d
let spatial_factor t ~level d = factor t.levels.(level).spatial d

let tile_at t ~level d =
  let acc = ref 1 in
  for j = 0 to level do
    acc := !acc * temporal_factor t ~level:j d * spatial_factor t ~level:j d
  done;
  !acc

let spatial_product t ~level =
  List.fold_left (fun acc (_, f) -> acc * f) 1 t.levels.(level).spatial

let total_spatial t =
  let acc = ref 1 in
  for j = 0 to num_levels t - 1 do
    acc := !acc * spatial_product t ~level:j
  done;
  !acc

let footprint_at (_ : W.t) t ~level op = W.footprint (fun d -> tile_at t ~level d) op

(* Structural validation, O(levels x dims), allocating only four per-call
   arrays of dims length (and the error string on failure). Dims are
   looked up by list position first — every search candidate lists them in
   workload order — with a scan as the fallback; a per-call stamp array
   marks the dims one list has covered, so "each dim exactly once" and "a
   permutation of the dims" need no sort; and the per-dim products are
   accumulated during the coverage passes. The verdict and error string are
   those of the first violated rule in the order the mli documents. *)

let rec scan_dim (dims : dim array) d i =
  if i >= Array.length dims then -1
  else if String.equal (Array.unsafe_get dims i) d then i
  else scan_dim dims d (i + 1)

(* The position guess compares [==] first: search candidates share the
   workload's dim strings. *)
let dim_position (dims : dim array) p d =
  if
    p >= 0
    && p < Array.length dims
    &&
    let n = Array.unsafe_get dims p in
    d == n || String.equal d n
  then p
  else scan_dim dims d 0

(* Outcome of one pass over a factor list. *)
type factor_pass = Covered | Not_covered | Unknown_dim of dim | Bad_factor of dim * int

(* The first unknown dim or non-positive factor, in list order, ends the
   pass; otherwise each factor is folded into [prod] by dim id and stamped
   into [seen], and the pass reports whether the list named every dim
   exactly once. *)
let rec factor_pass (dims : dim array) (seen : int array) (stamp : int) (prod : int array) p dup
    = function
  | [] -> if dup || p <> Array.length dims then Not_covered else Covered
  | (d, f) :: rest ->
    let i = dim_position dims p d in
    if i < 0 then Unknown_dim d
    else if f < 1 then Bad_factor (d, f)
    else begin
      let dup = dup || Array.unsafe_get seen i = stamp in
      Array.unsafe_set seen i stamp;
      Array.unsafe_set prod i (Array.unsafe_get prod i * f);
      factor_pass dims seen stamp prod (p + 1) dup rest
    end

(* Is [order] a permutation of the dims? *)
let rec order_pass (dims : dim array) (seen : int array) (stamp : int) p = function
  | [] -> p = Array.length dims
  | d :: rest ->
    let i = dim_position dims p d in
    if i < 0 || Array.unsafe_get seen i = stamp then false
    else begin
      Array.unsafe_set seen i stamp;
      order_pass dims seen stamp (p + 1) rest
    end

let known_error i kind = function
  | Unknown_dim d -> Some (Printf.sprintf "level %d: unknown dim %s in %s factors" i d kind)
  | Bad_factor (d, f) -> Some (Printf.sprintf "level %d: %s factor of %s is %d" i kind d f)
  | Covered | Not_covered -> None

let cover_error i kind =
  Printf.sprintf "level %d: %s factors must cover each workload dim exactly once" i kind

(* Per level: known temporal, known spatial, temporal coverage, spatial
   coverage, order. Each level takes three fresh stamps. *)
let rec check_levels (dims : dim array) seen prod i = function
  | [] -> None
  | (lm : level_mapping) :: rest -> (
    let stamp = 3 * i in
    let t = factor_pass dims seen (stamp + 1) prod 0 false lm.temporal in
    match known_error i "temporal" t with
    | Some _ as e -> e
    | None -> (
      let s = factor_pass dims seen (stamp + 2) prod 0 false lm.spatial in
      match known_error i "spatial" s with
      | Some _ as e -> e
      | None -> (
        (* the mli contract: factor lists cover exactly the workload dims,
           once each — a silently missing dim would default to factor 1
           downstream *)
        match (t, s) with
        | Covered, Covered ->
          if order_pass dims seen (stamp + 3) 0 lm.order then
            check_levels dims seen prod (i + 1) rest
          else Some (Printf.sprintf "level %d: order is not a permutation of the workload dims" i)
        | Covered, _ -> Some (cover_error i "spatial")
        | _ -> Some (cover_error i "temporal"))))

let rec product_error (dims : (dim * int) array) (prod : int array) i =
  if i >= Array.length dims then None
  else
    let d, bound = dims.(i) in
    if prod.(i) <> bound then
      Some (Printf.sprintf "dim %s: factors multiply to %d, bound is %d" d prod.(i) bound)
    else product_error dims prod (i + 1)

let validate w levels =
  let dims = Array.of_list w.W.dims in
  let n = Array.length dims in
  let seen = Array.make n 0 in
  let prod = Array.make n 1 in
  match check_levels (Array.map fst dims) seen prod 0 levels with
  | Some msg -> Error msg
  | None -> (
    match product_error dims prod 0 with
    | Some msg -> Error msg
    | None -> Ok { levels = Array.of_list levels })

let make w levels = validate w levels

let make_exn w levels =
  match make w levels with Ok t -> t | Error msg -> invalid_arg ("Mapping.make_exn: " ^ msg)

let single_level w ~num_levels =
  let dims = W.dim_names w in
  let ones = List.map (fun d -> (d, 1)) dims in
  let inner = { temporal = ones; order = dims; spatial = ones } in
  let top = { temporal = List.map (fun (d, b) -> (d, b)) w.W.dims; order = dims; spatial = ones } in
  make_exn w (List.init num_levels (fun i -> if i = num_levels - 1 then top else inner))

let loops_outermost_first t =
  let acc = ref [] in
  for level = num_levels t - 1 downto 0 do
    let lm = t.levels.(level) in
    List.iter
      (fun d ->
        let b = factor lm.temporal d in
        if b > 1 then acc := (level, d, b) :: !acc)
      lm.order
  done;
  List.rev !acc

let pp ppf t =
  let pp_level ppf (i, lm) =
    let temporal_loops =
      List.filter_map
        (fun d ->
          let b = factor lm.temporal d in
          if b > 1 then Some (Printf.sprintf "for %s in %d" d b) else None)
        lm.order
    in
    let spatial_loops =
      List.filter_map (fun (d, f) -> if f > 1 then Some (Printf.sprintf "%s:%d" d f) else None) lm.spatial
    in
    let t_str = if temporal_loops = [] then "-" else String.concat ", " temporal_loops in
    let s_str = if spatial_loops = [] then "" else " | spatial " ^ String.concat " * " spatial_loops in
    Format.fprintf ppf "L%d: %s%s" i t_str s_str
  in
  let indexed = List.rev (Array.to_list (Array.mapi (fun i lm -> (i, lm)) t.levels)) in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_level) indexed

let to_string t = Format.asprintf "%a" pp t
