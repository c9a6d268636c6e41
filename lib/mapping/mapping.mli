(** Mapping (dataflow) intermediate representation.

    A mapping assigns to each memory level of an architecture: the temporal
    tiling factors of every problem dimension at that level, the traversal
    order of those temporal loops, and the spatial unrolling factors of the
    fanout directly *below* that level. Level 0 is the innermost memory.

    Conventions:
    - for every dimension [d], the product over levels of
      [temporal d * spatial d] must equal the workload bound of [d];
    - [order] lists all workload dimensions outermost-to-innermost; loops
      with factor 1 are no-ops but keep mappings uniform and printable;
    - temporal loops at level [l] iterate *within* the data resident in the
      level-[l] buffer (they are the "L1 loops" of the paper's Algorithm 4),
      so the resident tile spans the temporal and spatial factors of levels
      [<= l], and refills of level [l] are driven by the loops of levels
      strictly above it. *)

type dim = Sun_tensor.Workload.dim

type level_mapping = {
  temporal : (dim * int) list;
  order : dim list;  (** outermost first *)
  spatial : (dim * int) list;
}

type t = { levels : level_mapping array }

val make : Sun_tensor.Workload.t -> level_mapping list -> (t, string) result
(** Structural validation: factor lists cover exactly the workload dims with
    positive factors, orders are permutations of the dims, and per-dimension
    factor products equal the workload bounds. (Capacity and fanout checks
    need the architecture and live in the cost model.)

    The error is that of the first violated rule. Levels are checked
    innermost first; within a level the precedence is: every temporal
    factor names a workload dim and is [>= 1] (first offender in list
    order), the same for the spatial factors, the temporal factors cover
    each dim exactly once, the same for the spatial factors, and the order
    is a permutation of the dims. Only when every level passes are the
    per-dim products compared with the bounds, in workload dim order.

    Cost: O(levels x dims) — one pass per list, dims looked up by list
    position first (lists in workload dim order hit at once) and by a scan
    otherwise; no sorting, and allocation only for a few per-call arrays
    of dims length, the result and, on failure, the error string. *)

val make_exn : Sun_tensor.Workload.t -> level_mapping list -> t

val dim_position : dim array -> int -> dim -> int
(** [dim_position dims p d] is the index of [d] in [dims], or -1. Position
    [p] is tried first, so a walk over a list in [dims] order passing each
    element's list position finds every dim without a scan. *)

val num_levels : t -> int

val temporal_factor : t -> level:int -> dim -> int
val spatial_factor : t -> level:int -> dim -> int

val tile_at : t -> level:int -> dim -> int
(** Extent of [d] inside the level-[l] buffer tile: product of temporal and
    spatial factors of levels [<= l]. *)

val spatial_product : t -> level:int -> int
(** Product of all spatial factors at the level: parallel instances used. *)

val total_spatial : t -> int

val footprint_at :
  Sun_tensor.Workload.t -> t -> level:int -> Sun_tensor.Workload.operand -> float
(** Words of the operand resident in one level-[l] buffer instance. *)

val single_level : Sun_tensor.Workload.t -> num_levels:int -> t
(** The degenerate mapping placing the whole problem at the outermost level
    (everything streams from DRAM): temporal factors all at the top, orders
    in declaration order. Used as a baseline and in tests. *)

val loops_outermost_first : t -> (int * dim * int) list
(** Flattened temporal loop nest [(level, dim, bound)], outermost first;
    bound-1 loops are omitted. *)

val pp : Format.formatter -> t -> unit
(** Timeloop-style rendering: one line per level, e.g.
    [L2: for K in 4, for P in 2 | spatial K:2 * C:2]. *)

val to_string : t -> string
