(** Per-cell evaluation metrics, the cheap pre-simulation bounds used
    for pruning, and user constraints over both. *)

type t = {
  power_mw : float;
  area : float;  (** total design area, λ² *)
  latency_steps : int;  (** control steps per computation *)
  energy_per_computation_pj : float;
  memory_cells : int;
  mux_inputs : int;
  functional_ok : bool;
}

type bounds = {
  b_area : float;  (** exact post-binding area — no simulation needed *)
  b_latency_steps : int;
  b_memory_cells : int;
  b_power_mw : float;
      (** certified static upper bound on simulated power
          ({!Mclock_static.Analyze}) *)
  b_energy_pj : float;  (** certified upper bound, pJ per computation *)
}
(** Everything here comes from the synthesized binding and the static
    analyzer, before any simulation; constraint pruning on these
    values can never reject a cell the full evaluation would have
    kept.  Power and energy constraints are certified-bound
    constraints by definition: [power<=X] keeps exactly the cells
    whose worst-case bound fits the budget, so pruning decisions are
    deterministic and never admit an actual violator. *)

val bounds_and_estimate_of_design :
  config:Config.t ->
  iterations:int ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  bounds * float * float
(** [(bounds, est_power_mw, est_energy_pj)] from one static analysis:
    the certified pruning bounds plus the expected-power estimate used
    as the halving seed pool's ranking key, all through the [Scaled]
    transform when the configuration asks for it. *)

val bounds_of_design :
  config:Config.t ->
  iterations:int ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  bounds
(** For [Scaled] configurations the area and storage are those of the
    duplicated array ([clocks] copies) and the power/energy bounds
    carry the same quadratic voltage factor {!of_report} applies,
    matching what evaluation reports.  [iterations] must match the
    evaluation's computation count (the reset transient amortizes over
    it). *)

val of_report :
  config:Config.t ->
  tech:Mclock_tech.Library.t ->
  latency_steps:int ->
  Mclock_power.Report.t ->
  t
(** Metrics of an evaluated cell; applies the voltage-scaling
    duplication transform when the configuration asks for it.
    [latency_steps] is the design's control-step count (reports do not
    carry it). *)

type constraint_ =
  | Max_area of float
  | Max_latency of int
  | Max_memory of int
  | Max_power of float  (** on the certified bound [b_power_mw], mW *)
  | Max_energy of float  (** on the certified bound [b_energy_pj], pJ *)

val parse_constraint : string -> (constraint_, string) result
(** ["area<=12000"], ["latency<=6"], ["mem<=40"], ["power<=4.5"],
    ["energy<=900"]. *)

val exact_float : float -> string
(** [%g] when that reads back as the same float, otherwise the
    shortest [%.Ng] that does. *)

val constraint_to_string : constraint_ -> string
(** Reads back through {!parse_constraint} as the same constraint. *)

val admissible : constraints:constraint_ list -> bounds -> bool
(** Whether a cell survives pruning. *)

val violated : constraints:constraint_ list -> bounds -> constraint_ list

val equal : t -> t -> bool
(** Bit-exact on the float fields — the cache round-trip contract. *)

val to_json : t -> Mclock_util.Json.t
(** Floats are encoded as hexadecimal-float strings so that
    [of_json (to_json m)] returns bit-identical metrics. *)

val of_json : Mclock_util.Json.t -> (t, string) result

val fingerprint : Mclock_util.Fingerprint.t -> t -> unit
