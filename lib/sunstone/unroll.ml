type dim = Sun_tensor.Workload.dim

type outcome = { candidates : (dim * int) list list; explored : int }

let product assignment = List.fold_left (fun acc (_, f) -> acc * f) 1 assignment

let candidates ~fanout ~dims ~remaining ?(min_utilization = 0.0) () =
  if fanout <= 1 || dims = [] then { candidates = [ List.map (fun d -> (d, 1)) dims ]; explored = 1 }
  else begin
    let fits factors = Array.fold_left ( * ) 1 factors <= fanout in
    let out = Tile_tree.search ~max_steps:24 ~grow_dims:dims ~remaining ~fits () in
    let threshold = min_utilization *. float_of_int fanout in
    let selected =
      List.filter (fun a -> float_of_int (product a) >= threshold) out.Tile_tree.frontier
    in
    (* below the threshold, the maximal assignments are still the best
       available spatial reuse — only an empty frontier degrades to ones *)
    let candidates =
      match (selected, out.Tile_tree.frontier) with
      | [], [] -> [ List.map (fun d -> (d, 1)) dims ]
      | [], frontier -> frontier
      | selected, _ -> selected
    in
    { candidates; explored = out.Tile_tree.explored }
  end
