(** The exploration engine: enumerate the configuration grid, prune
    with pre-simulation bounds, serve what the persistent cache
    already knows, evaluate the rest on the parallel pool with the
    compiled kernel, and extract the Pareto frontier.

    Determinism contract: for a fixed input (behaviour, constraints,
    seed, iterations, max_clocks, tech), the result — including the
    rendered frontier — is byte-identical whatever the worker count
    and whatever mixture of cache hits and fresh simulations produced
    the metrics. *)

type status =
  | Pruned of Metrics.constraint_ list
      (** rejected by pre-simulation bounds; never simulated *)
  | Cached of Metrics.t  (** served from the persistent store *)
  | Simulated of Metrics.t  (** freshly evaluated this run *)

type cell = {
  config : Config.t;
  cell_label : string;
  key : string;  (** content digest (also the cache address) *)
  bounds : Metrics.bounds;
  status : status;
}

type stats = {
  enumerated : int;
  pruned : int;
  cache_hits : int;
  simulated : int;
  store_failures : int;
}

type result = {
  workload : string;
  max_clocks : int;
  seed : int;
  iterations : int;
  constraints : Metrics.constraint_ list;
  cells : cell list;  (** enumeration order *)
  pareto : Pareto.result;
      (** over evaluated, functionally-correct cells only *)
  stats : stats;
}

type prepared = {
  p_index : int;  (** canonical enumeration index (the tie-break order) *)
  p_config : Config.t;
  p_label : string;
  p_design : Mclock_rtl.Design.t;
  p_bounds : Metrics.bounds;
  p_est_power_mw : float;  (** static expected power, the ranking key *)
}
(** A synthesized, bounded, estimated cell — everything that can be
    known about it without simulating. *)

type space = {
  sp_graph : Mclock_dfg.Graph.t;
  sp_width : int;
  sp_tech : Mclock_tech.Library.t;
  sp_name : string;
  sp_sched_constraints : Mclock_sched.List_sched.constraints;
  sp_cells : prepared list;  (** enumeration order *)
}
(** A prepared search space: the enumerated grid plus the shared
    inputs every cache key derives from. *)

val prepare :
  ?tech:Mclock_tech.Library.t ->
  ?width:int ->
  ?max_clocks:int ->
  iterations:int ->
  name:string ->
  sched_constraints:Mclock_sched.List_sched.constraints ->
  Mclock_dfg.Graph.t ->
  space
(** Enumerate, synthesize, bound and estimate the whole grid, serially
    and without simulation.  The static analysis behind the bounds and
    the estimate dominates a cold exploration.  [iterations] is the
    evaluation fidelity the bounds certify (the reset transient
    amortizes over it). *)

val cell_key : space -> seed:int -> iterations:int -> prepared -> string
(** The cell's content digest at the given evaluation fidelity —
    iteration count is part of the key, so partial-fidelity runs cache
    independently of (and alongside) full-fidelity ones. *)

type rung_stats = {
  rs_cache_hits : int;  (** served from the metrics cache *)
  rs_simulated : int;  (** misses that ran the simulator *)
  rs_resumed : int;  (** of those, how many extended a checkpoint *)
  rs_resumed_iterations : int;
      (** iterations *not* re-simulated thanks to checkpoints *)
  rs_fresh_iterations : int;  (** iterations actually simulated *)
  rs_checkpoints_written : int;  (** sidecars stored at this rung *)
  rs_store_failures : int;
      (** cache writes of this call that failed (the store's own
          counter runs across every call sharing it) *)
}

val metrics : cell -> Metrics.t
(** The metrics of an evaluated ([Cached] or [Simulated]) cell.
    Raises [Invalid_argument] on a [Pruned] one. *)

val evaluate_at :
  pool:Mclock_exec.Pool.t ->
  ?cache:Store.t ->
  ?resume_from:int list ->
  ?checkpoints:bool ->
  seed:int ->
  iterations:int ->
  space ->
  prepared list ->
  cell list * rung_stats
(** The one cell-evaluation path, behind both {!explore} and the
    successive-halving rungs: evaluate the given cells at an
    arbitrary iteration budget, serving cache hits and fanning the
    misses over the pool (one [explore.simulate] span each;
    submission order = input order, so results are jobs-invariant),
    writing fresh results back.  Returns one [Cached] or [Simulated]
    cell per input, in input order, each with its cache key at this
    budget.  [iterations] need not match the fidelity the space was
    prepared at.

    [resume_from] lists lower iteration counts whose checkpoint
    sidecars (if cached) can seed this rung — the highest available
    one wins, and the remaining iterations alone are simulated.
    [checkpoints] stores a sidecar at this rung for every fresh
    simulation, so a later, higher rung (or a later run) can extend
    it.  Resuming is byte-identical to fresh simulation, and a
    corrupt or mismatched sidecar silently degrades to a fresh run:
    the metrics returned are invariant to the checkpoint cache's
    state.  Both options are inert without [cache]. *)

val explore :
  pool:Mclock_exec.Pool.t ->
  ?cache:Store.t ->
  ?constraints:Metrics.constraint_ list ->
  ?seed:int ->
  ?iterations:int ->
  ?max_clocks:int ->
  ?tech:Mclock_tech.Library.t ->
  ?width:int ->
  name:string ->
  sched_constraints:Mclock_sched.List_sched.constraints ->
  Mclock_dfg.Graph.t ->
  result
(** {!prepare} the grid, prune it on [constraints], evaluate the
    admissible cells through {!evaluate_at} at [iterations] (no
    resume ladder, no checkpoints) and extract the frontier.
    Defaults: no cache, no constraints, seed 42, 400 iterations,
    max_clocks 4, the CMOS08 library, width 4.  [sched_constraints]
    bound the list scheduler (a workload's [constraints] field; pass
    [[]] for unconstrained). *)

val render_text : result -> string
(** Cell-by-cell table (status, cache provenance, metrics) plus the
    frontier and the hit/miss/prune counters. *)

val frontier_json : result -> Mclock_util.Json.t
(** The frontier document: workload, parameters and frontier +
    dominated attribution.  Deliberately excludes run-dependent cache
    counters so that a warm rerun is byte-identical — counters live in
    {!stats_json}. *)

val stats_json : result -> Mclock_util.Json.t
(** The observability counters of this run. *)

val best : objective:Objective.t -> result -> (cell * float) option
(** The best evaluated, functionally-correct cell under a scalarized
    objective (scores normalized across exactly those cells), with its
    score.  Ties break by canonical config order.  [None] when nothing
    was evaluated.  Deterministic: independent of job count and cache
    state. *)
