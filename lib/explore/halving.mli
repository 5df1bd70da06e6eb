(** Successive-halving multi-fidelity search over the exploration
    grid.

    Instead of simulating every admissible cell at full fidelity (the
    exhaustive grid of {!Engine.explore}), the search evaluates all
    survivors at a small iteration budget, keeps the best
    [ceil (n / eta)] under a scalarized {!Objective}, multiplies the
    budget by [eta], and repeats until one rung runs at the full
    iteration count — whose best candidate is the winner.  The
    candidate pool is seeded in static-analyzer power ranking order,
    and constraint pruning on the certified pre-simulation bounds
    happens before any rung.

    Every rung's evaluations flow through {!Engine.evaluate_at}: the
    cache key includes the iteration count, so partial-fidelity runs
    are cached and reusable across searches, and fan-out runs on the
    shared pool.

    Determinism contract: for a fixed input, the rung schedule, every
    rung's candidate scores, the kept sets and the winner — and the
    rendered {!render_text} / {!result_json} documents — are
    byte-identical whatever the worker count and whatever mixture of
    cache hits and fresh simulations produced the metrics.  Score ties
    break by canonical config (enumeration) order.  Run-dependent
    cache counters are confined to {!stats_json}. *)

type candidate = {
  c_index : int;  (** canonical enumeration index *)
  c_label : string;
  c_config : Config.t;
  c_metrics : Metrics.t;  (** as evaluated at the rung's budget *)
  c_score : float;
      (** scalarized objective over the rung's functional candidates;
          [infinity] for a functionally-failed candidate *)
}

type rung = {
  r_number : int;  (** 0-based *)
  r_iterations : int;  (** this rung's evaluation budget *)
  r_candidates : candidate list;  (** evaluation order *)
  r_kept : string list;
      (** labels surviving the keep-rule, best first; the final rung
          keeps exactly the winner *)
}

type stats = {
  cache_hits : int;
  simulated : int;  (** cells actually simulated (cache misses) *)
  simulated_iterations : int;
      (** iterations actually simulated (a resumed cell only counts
          the extension beyond its checkpoint) *)
  store_failures : int;
  resumed : int;  (** simulations that extended a checkpoint *)
  resumed_iterations : int;
      (** iterations *not* re-simulated thanks to checkpoints *)
  checkpoints_written : int;
}

type result = {
  workload : string;
  max_clocks : int;
  seed : int;
  eta : int;
  min_iterations : int;
  iterations : int;  (** full fidelity, the last rung's budget *)
  objective : Objective.t;
  constraints : Metrics.constraint_ list;
  resume : bool;
  degenerate : string option;
      (** a human-readable warning when the parameters collapse the
          rung schedule to a single full-fidelity rung (multi-fidelity
          search saves nothing); [None] for a healthy schedule *)
  enumerated : int;
  pruned : int;  (** rejected by pre-simulation bounds, never evaluated *)
  rungs : rung list;
  winner : candidate option;
      (** best full-fidelity candidate; [None] when every cell is
          pruned or functionally failed *)
  evaluation_iterations : int;
      (** the schedule's nominal simulation cost, independent of cache
          state: with [resume], each rung charges only the iterations
          beyond the previous rung's checkpoint; without, each rung
          charges a full restart ([candidates * budget]) *)
  exhaustive_iterations : int;
      (** what the exhaustive grid would cost: admissible cells at
          full fidelity *)
  stats : stats;
}

val run :
  pool:Mclock_exec.Pool.t ->
  ?cache:Store.t ->
  ?eta:int ->
  ?min_iterations:int ->
  ?constraints:Metrics.constraint_ list ->
  ?seed:int ->
  ?iterations:int ->
  ?max_clocks:int ->
  ?tech:Mclock_tech.Library.t ->
  ?width:int ->
  ?objective:Objective.t ->
  ?resume:bool ->
  name:string ->
  sched_constraints:Mclock_sched.List_sched.constraints ->
  Mclock_dfg.Graph.t ->
  result
(** Defaults: eta 2, min_iterations [max 1 (iterations / 16)], no
    constraints, seed 42, 400 iterations, max_clocks 4, the CMOS08
    library, width 4, {!Objective.default} (pure power), resume on.

    [resume] makes promotion incremental: each rung stores simulation
    checkpoints (sidecars in the [cache]) and the next rung extends
    them instead of restarting from iteration zero, so a promoted
    candidate pays only the budget *difference*.  Checkpointed
    extension is byte-identical to fresh simulation, so every score,
    kept set, the winner and the rendered documents are unchanged —
    only the simulated-iteration count drops.  Inert without a cache.

    Raises [Invalid_argument] on [eta < 2], [iterations < 1] or
    [min_iterations] outside [1..iterations]. *)

val keep_width : eta:int -> field:int -> float list -> int
(** The keep rule, exposed pure for tests: how many of the ascending
    functional [scores] of a rung with [field] total candidates
    survive, [min (max 1 (ceil (field / eta))) (length scores)]. *)

val render_text : result -> string
(** Rung-by-rung tables (candidate, score, metrics, keep verdict) plus
    the winner and the evaluation-iteration savings.  Deliberately
    excludes cache provenance and counters, so the rendering is
    byte-identical across job counts and cache states. *)

val result_json : result -> Mclock_util.Json.t
(** The search document: parameters, rung schedule with per-candidate
    scores, kept sets, winner, and the evaluation/exhaustive iteration
    totals.  Same byte-identity guarantee as {!render_text}; cache
    counters live in {!stats_json}. *)

val stats_json : result -> Mclock_util.Json.t
(** The run-dependent observability counters. *)
