(** Common result shape for every mapper (Sunstone and the prior-art
    reimplementations), consumed by the experiment harness. *)

type outcome = {
  tool : string;
  mapping : Sun_mapping.Mapping.t option;
      (** the returned mapping; [None] when the tool found nothing at all *)
  cost : Sun_cost.Model.cost option;  (** [Some] only for valid mappings *)
  valid : bool;
      (** [false] when nothing was returned or the returned mapping violates
          the architecture (CoSA-style rounding overflow, dMaze-style
          threshold failure) *)
  examined : int;  (** search-space points the tool touched *)
  wall_seconds : float;
}

val of_mapping :
  tool:string ->
  examined:int ->
  wall_seconds:float ->
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Sun_mapping.Mapping.t option ->
  outcome
(** Evaluates the mapping (if any) and fills the validity/cost fields. *)

val failure : tool:string -> examined:int -> wall_seconds:float -> outcome

val edp : outcome -> float
(** EDP of a valid outcome, [infinity] otherwise — convenient for
    comparisons and geometric means. *)

val tile_fits :
  Sun_cost.Model.ctx -> level:int -> (Sun_tensor.Workload.dim -> int) -> int array -> bool
(** [tile_fits ctx ~level base factors]: does the tile [base] x [factors]
    fit every partition of [level]? The tile-tree fit test of the
    baselines that grow every dim, so the walk's factor positions are the
    context's dim ids ({!Sun_tensor.Workload.dim_names} order). Apply it to
    [base] once per walk: the extent vector is built then and refilled by
    index on every call. *)
