(* The benchmark's own arithmetic: order statistics, the percentile choice,
   geometric means, quartile spread, span self time and daemon queue wait.
   Everything here is pure so the test suite can pin it on hand-made
   samples. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Rank of the [p]-th percentile of [n] samples by the nearest-rank
   definition: the smallest rank with at least p% of the samples at or
   below it (1-based; at least 1). *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9)))

(* A request-latency percentile: the nearest-rank sample, so it is always a
   latency some request had. Interpolating would invent one where the
   sample has a gap (tensor-simba's median falls between its ~30 ms sddmm
   searches and its ~1 s netflix searches, and an interpolated value there
   moves with the slower mode only). *)
let percentile xs p =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n p - 1)

(* The usual median of a few summary values (mean of the middle two when
   their number is even). *)
let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The median of each column of equally long [rows]: on the search
   workloads a row is one pass's latencies in layer order, so this is each
   layer's median latency over the run. *)
let column_medians = function
  | [] -> invalid_arg "Stats.column_medians: no rows"
  | r0 :: _ as rows ->
    List.init (Array.length r0) (fun i -> median (List.map (fun r -> r.(i)) rows))

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Samples that lie beyond the [p]-th percentile of [n] samples: the ones
   ranked above it. *)
let beyond ~n p = n - rank ~n p

(* The percentiles a report may name, lowest first. *)
let candidate_percentiles = [ 50.; 90.; 95.; 99.; 99.9 ]

(* The highest named percentile that keeps at least [min_beyond] samples
   beyond it, or [None] when even the median does not. *)
let highest_supported ?(min_beyond = 10) n =
  List.fold_left
    (fun acc p -> if beyond ~n p >= min_beyond then Some p else acc)
    None candidate_percentiles

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
    List.iter (fun x -> if not (x > 0.) then invalid_arg "Stats.geomean: non-positive sample") xs;
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] (its
   default "exclusive" method) computes them, so the spread printed here is
   the spread a Python reader of the same values would compute. *)
let python_quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.python_quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Distance between the quartiles; 0 for fewer than two samples (no spread
   can be observed). *)
let iqr = function
  | [] | [ _ ] -> 0.
  | xs ->
    let q1, _, q3 = python_quartiles xs in
    q3 -. q1

let median_or_zero = function [] -> 0. | xs -> median xs

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s lo and e = Float.min e hi in
        if e > s then Some (s, e) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e)))
      (0., None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

(* A span's self time: its duration minus the part of that interval its
   child spans cover (overlapping children are counted once). *)
let self_time ~start ~stop children = stop -. start -. covered ~lo:start ~hi:stop children

(* Time a daemon request spent outside its own pipeline work: the client's
   round-trip latency minus the [wall_s] the response reports. The two
   clocks are read in different processes, so a tiny negative difference
   is measurement noise and reads as no wait. *)
let server_wait_ms ~latency_s ~wall_s = Float.max 0. (latency_s -. wall_s) *. 1000.
