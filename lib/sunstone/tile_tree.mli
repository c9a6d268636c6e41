(** Tiling search tree with Tiling-Principle pruning (Section IV-B, Fig 5).

    Starting from the all-ones tile, each tree edge enlarges one growable
    dimension to the next divisor of its remaining extent. A node with a
    fitting child is pruned (the child offers strictly more reuse — the
    Tiling Principle); nodes that fit but cannot be enlarged in any growable
    dimension are the frontier of candidate tiles.

    The same monotone search is reused for spatial-unrolling candidates (see
    {!Unroll}), where "fits" means the unrolled product stays within the
    fanout.

    The walk runs on an integer lattice. Each grow dim's divisors form a
    ladder of rungs; a node is its vector of rung indices, packed
    mixed-radix into one int, and the seen set is a flat open-addressing
    table of those ints. The node-visit loop allocates nothing per node. *)

type dim = Sun_tensor.Workload.dim

type assignment = (dim * int) list
(** Factors for the growable dimensions; absent dimensions are 1. *)

val factor_of : assignment -> dim -> int

type outcome = {
  frontier : assignment list;
      (** maximal fitting tiles, each naming every grow dim in [grow_dims]
          order, in discovery order *)
  explored : int;  (** nodes visited, for space-size accounting *)
}

val search :
  ?max_steps:int ->
  grow_dims:dim list ->
  remaining:(dim -> int) ->
  fits:(int array -> bool) ->
  unit ->
  outcome
(** [search ~grow_dims ~remaining ~fits ()] walks the tree. Factors assigned
    to a dimension are always divisors of [remaining d]. If even the
    all-ones root does not fit, the frontier is empty and [explored] is 1.

    [fits factors] reads the candidate tile's factors by grow-dim position
    ([factors.(i)] belongs to the [i]-th of [grow_dims], which must be
    distinct). The array is the walk's own: it is valid only for the
    duration of the call, must not be kept or mutated, and [fits] must be
    pure and monotone (a larger tile never fits where a smaller one does
    not).

    The walk is a depth-first search from the root: a node, on its first
    visit, is counted in [explored] and becomes a frontier tile if no child
    (one rung up one grow dim) fits; otherwise its fitting children are
    visited in grow-dim order, each node at most once. A child already seen
    is known to fit and costs no [fits] call. [frontier] lists the tiles in
    the order this DFS meets them.

    [max_steps] (default unlimited) thins each dimension's divisor ladder to
    at most that many geometrically spaced rungs (always keeping 1 and the
    full extent) — dimensions in the tens of thousands (the non-DNN tensor
    workloads) otherwise make the walk quadratically expensive for no
    meaningful gain in tile choice.

    @raise Invalid_argument naming the grow dims when the product of the
    ladder lengths exceeds [max_int], so that packed keys would wrap. *)
