module Model = Sun_cost.Model

type outcome = {
  tool : string;
  mapping : Sun_mapping.Mapping.t option;
  cost : Model.cost option;
  valid : bool;
  examined : int;
  wall_seconds : float;
}

let of_mapping ~tool ~examined ~wall_seconds ?binding w arch mapping =
  match mapping with
  | None -> { tool; mapping = None; cost = None; valid = false; examined; wall_seconds }
  | Some m -> (
    match Model.evaluate ?binding w arch m with
    | Ok cost -> { tool; mapping = Some m; cost = Some cost; valid = true; examined; wall_seconds }
    | Error _ -> { tool; mapping = Some m; cost = None; valid = false; examined; wall_seconds })

let failure ~tool ~examined ~wall_seconds =
  { tool; mapping = None; cost = None; valid = false; examined; wall_seconds }

let edp outcome = match outcome.cost with Some c -> c.Model.edp | None -> Float.infinity

let tile_fits ctx ~level base =
  let base = Model.extent_vector ctx base in
  let ext = Array.copy base in
  fun factors ->
    for i = 0 to Array.length ext - 1 do
      ext.(i) <- base.(i) * factors.(i)
    done;
    Model.fits_ctx ctx ~level ext
