(** Per-design evaluation reports and paper-style result tables. *)

type t = {
  label : string;
  design_name : string;
  power_mw : float;
  energy_per_computation_pj : float;
      (** total switched energy divided by the number of computations *)
  area : Area.breakdown;
  alus : string;
  memory_cells : int;
  mux_inputs : int;
  energy_by_category : (Mclock_sim.Activity.category * float) list;
  iterations : int;
  functional_ok : bool;
}

val of_sim :
  label:string ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Mclock_dfg.Graph.t ->
  iterations:int ->
  Mclock_sim.Simulator.result ->
  t
(** [of_sim ~label tech design graph ~iterations sim] verifies an
    existing simulation of [design] against golden evaluation of
    [graph] and collects the paper's table columns, without simulating
    again. *)

val evaluate :
  ?seed:int ->
  ?iterations:int ->
  label:string ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Mclock_dfg.Graph.t ->
  t
(** Simulate with the compiled kernel (default 400 computations), then
    {!of_sim}. *)

val evaluate_resumable :
  ?seed:int ->
  ?iterations:int ->
  ?resume_from:Mclock_sim.Compiled.checkpoint ->
  label:string ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Mclock_dfg.Graph.t ->
  t * Mclock_sim.Compiled.checkpoint
(** Like {!evaluate} with the compiled kernel, additionally returning
    a checkpoint at [iterations] computations.  When [resume_from] is
    a checkpoint of the same design/seed at fewer computations, only
    the remaining computations are simulated; the report is
    byte-identical to a fresh {!evaluate} at the same total count.
    Raises [Invalid_argument] if the checkpoint does not match the
    design shape or does not precede [iterations] (cache layers should
    degrade such checkpoints to a miss instead of passing them in). *)

val evaluate_batch :
  pool:Mclock_exec.Pool.t ->
  ?seed:int ->
  ?iterations:int ->
  Mclock_tech.Library.t ->
  (string * Mclock_rtl.Design.t * Mclock_dfg.Graph.t) list ->
  t list
(** [evaluate_batch ~pool tech cells] evaluates every
    [(label, design, graph)] cell across the pool's worker domains and
    returns the reports in cell order.  Each cell simulates from the
    same [seed], so the result is byte-identical to mapping
    {!evaluate} serially — the pool only changes wall-clock time. *)

val paper_table : ?title:string -> t list -> Mclock_util.Table.t
(** Power / Area / ALUs / Mem Cells / Mux In's rows, one per report. *)

val render_category_breakdown : t -> string

val reduction_vs : baseline:t -> t -> float
(** Power reduction (%) of a report vs. a baseline; positive = saves. *)

val area_increase_vs : baseline:t -> t -> float
