(** Analytical cost model for a mapping on an architecture.

    This plays the role Timeloop's hardware-validated model plays in the
    paper (Section V-A): per-component access counts multiplied by
    per-access energies, with double buffering assumed to overlap transfers
    and compute so that latency is the maximum of the compute-bound and the
    per-buffer bandwidth-bound cycle counts. All mappers in this repository
    — Sunstone and every baseline — are scored with this one model, which is
    what makes their comparison meaningful.

    Access counting follows the reuse algebra of Sections II-D and III:
    refills of a buffer are the product of the temporal loop bounds above
    it, except that trailing (innermost-first) loops over non-indexing
    dimensions of an operand are absorbed (full temporal reuse), one
    trailing loop over a sliding-window dimension is absorbed by enlarging
    the fetched extent (partial reuse), spatially unrolled non-indexing
    dimensions are broadcast over a multicasting NoC, and spatially unrolled
    indexing dimensions enlarge the served footprint. Operands bypass levels
    whose partitions do not accept their role (e.g. weights bypass Simba's
    L2). *)

type binding = string -> string
(** Maps an operand name to an architecture role (e.g. ["a" -> "ifmap"]).
    The default binding is the identity. *)

type transfer = {
  operand : string;
  from_level : int;  (** producer memory level *)
  to_level : int;  (** consumer memory level; [-1] denotes the MACs *)
  reads : float;  (** words read out of [from_level] *)
  fills : float;  (** words delivered into [to_level] instances (total) *)
  noc_deliveries : float;  (** word-deliveries charged to the NoC *)
}

type cost = {
  energy_pj : float;
  cycles : float;
  edp : float;  (** [energy_pj *. cycles] *)
  macs : float;
  transfers : transfer list;
  breakdown : (string * float) list;
      (** energy per component: one entry per partition plus ["MAC"] and
          ["NoC"]; entries sum to [energy_pj] *)
  spatial_utilization : float;  (** used lanes / peak lanes, in (0, 1] *)
}

type score = {
  mutable s_energy_pj : float;
  mutable s_cycles : float;
  mutable s_edp : float;  (** [s_energy_pj *. s_cycles] *)
}
(** The search's scoring triple. [score_ctx] computes exactly the same
    energy/cycles/EDP floats as [evaluate_ctx] (bit-identical — the same
    arithmetic runs in the same order) but skips assembling the transfer
    list and energy breakdown, which is most of the allocation of a full
    evaluation. The fields are mutable because [score_ctx] returns a
    context-owned record it overwrites on the next call — see its doc. *)

val copy_score : score -> score
(** A fresh, caller-owned copy. Callers that retain a score past the next
    [score_ctx] call on the same context (e.g. an incumbent-best slot)
    must copy it. *)

type ctx
(** Precomputed evaluation context for one (workload, architecture,
    binding) triple: integer-indexed dimensions, operand axes, storage
    chains, partition lookups — and the evaluator's preallocated scratch
    (layout matrices, per-partition accumulators), so scoring a candidate
    allocates no per-call state. A context is single-in-flight: one
    evaluation uses its scratch at a time. Searches that score many
    mappings of the same problem should create one context and reuse it. *)

val context :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> ctx

val partitions : ctx -> (string * int) array
(** The global partition table by gid: (partition name, level index), in
    gid order — level-major, declaration order within a level. Pinned by a
    unit test; serialized caches depend on this order being stable. *)

val validate_ctx : ctx -> Sun_mapping.Mapping.t -> (unit, string) result
val evaluate_ctx : ctx -> Sun_mapping.Mapping.t -> (cost, string) result

val score_ctx : ctx -> Sun_mapping.Mapping.t -> (score, string) result
(** Validate and score without building transfers/breakdown — the search
    hot path. Same error strings as [evaluate_ctx]. An accepted call
    allocates nothing: [Ok s] is a preallocated result holding the
    context-owned score record, overwritten by the next [score_ctx] /
    [score_batch_ctx] call on this context. Read the fields immediately,
    or {!copy_score} to retain. The zero-allocation contract is pinned by
    the [Gc.minor_words] harness in [test/test_model_hot.ml] and by the
    SA070 hot-path lint. *)

val evaluate_batch_ctx : ctx -> Sun_mapping.Mapping.t array -> (cost, string) result array

val score_batch_ctx : ctx -> Sun_mapping.Mapping.t array -> (score, string) result array
(** Batch forms: evaluate sibling candidates through one context and one
    telemetry flush, in array order. Equivalent to mapping the scalar
    functions; the batch amortizes the per-call bookkeeping. Unlike
    [score_ctx], every [Ok] member holds a caller-owned copy — batches are
    read after the fact. *)

val energy_lower_bound_ctx : ctx -> partial_levels:int -> Sun_mapping.Mapping.t -> float

val lower_bounds_ctx :
  ctx -> partial_levels:int -> Sun_mapping.Mapping.t -> float * float
(** [(energy, bandwidth_cycles)] lower bounds for a partial mapping whose
    levels at or below [partial_levels] are committed. The energy member is
    exactly [energy_lower_bound_ctx]. The cycles member divides each
    committed boundary's traffic by its partition's bandwidth times an
    {e upper} bound on that partition's instance count (committed spatial
    unrolls at or below [partial_levels], full fanout above), so no
    completion of the prefix can run in fewer bandwidth cycles. Used by the
    seeded alpha-beta test ({!Sun_core.Optimizer.optimize}'s [?seed]). *)

(** {2 Capacity: the Tiling Principle's fit rule}

    The context is the one owner of the rule "the operands a partition
    stores must fit its capacity". A tile is an int extent vector indexed
    by dim id — the workload's dim order ({!Sun_tensor.Workload.dim_names});
    build one with {!extent_vector} or fill a reused vector in that order.
    A partition's occupancy is the sum of the footprints of the operands it
    stores, in operand order from zero (the same float additions as
    [Model_ref]); it overflows when that sum exceeds [capacity_words]
    (+1e-9). Unbounded levels hold any tile. The level functions below
    overwrite the context's scratch, like every [_ctx] call. *)

type violation =
  | Level_count of { mapping : int; arch : int }
  | Unstored of { operand : string }  (** no partition accepts its role *)
  | Fanout of { level : int; unrolled : int; fanout : int }
  | Capacity of { level : int; partition : string; footprint : float; capacity : int }
(** Why a mapping is illegal on the architecture. *)

val violation_message : ctx -> violation -> string
(** The error text {!validate} reports for the violation. *)

val extent_vector : ctx -> (string -> int) -> int array
(** A fresh extent vector from a per-dim extent function. *)

val fits_ctx : ctx -> level:int -> int array -> bool
(** Does the tile fit every partition of [level]? Allocates nothing — the
    search's tile-tree fit test, pinned by the [Gc.minor_words] harness. *)

val fill_fraction_ctx : ctx -> level:int -> int array -> float
(** Occupied fraction of the level: the largest occupancy/capacity ratio
    over its partitions of nonzero capacity (0 when there are none, as at
    DRAM). Used by the utilization-threshold baselines (dMazeRunner). *)

val over_capacity_ctx : ctx -> level:int -> int array -> violation list
(** Every partition of [level] the tile overflows, in declaration order,
    as [Capacity] violations; [[]] when the tile fits. *)

val violation_ctx : ctx -> Sun_mapping.Mapping.t -> violation option
(** The first violation {!validate_ctx} would report, typed: the level
    count, an unstored operand, then fanout level by level, then capacity
    partition by partition. [None] allocates nothing, so a search can test
    a candidate before building it. *)

val validate :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t ->
  (unit, string) result
(** Checks, beyond [Mapping.make]'s structural rules: the mapping has as
    many levels as the architecture; every buffer partition fits the summed
    footprints of the operands it stores; every spatial level's unrolling
    product fits its fanout. The error string names the first violation. *)

val evaluate :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t ->
  (cost, string) result
(** Validates, then computes the full cost. *)

val evaluate_exn :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t -> cost

val energy_lower_bound :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> partial_levels:int ->
  Sun_mapping.Mapping.t -> float
(** Energy charged by levels [0 .. partial_levels-1] plus the MACs, for a
    mapping whose upper levels are placeholders. Monotone in the sense that
    completing the mapping can only add energy — the alpha-beta bound used
    by Sunstone's bottom-up search. *)

val pp_cost : Format.formatter -> cost -> unit
