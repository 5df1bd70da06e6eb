(** Simulation-free power analysis of a synthesized design.

    [run] resolves the latched control schedule exactly, seeds
    per-bit signal/transition statistics from the stimulus model's
    closed forms, propagates them through the datapath over the full
    run, and returns both an expected-value estimate and a sound
    upper bound: [b_power_mw] is a certificate — no simulation of the
    design under the given stimulus model can dissipate more. *)

type t = {
  design_name : string;
  stimulus : Mclock_sim.Stimulus.model;
  iterations : int;
  cycles : int;
  sim_time_s : float;
  estimate : Mclock_sim.Activity.t;
      (** expected per-(component, category) pJ *)
  bound : Mclock_sim.Activity.t;
      (** sound worst-case per-(component, category) pJ *)
  est_power_mw : float;
  b_power_mw : float;
  est_energy_pj : float;  (** expected energy per computation *)
  b_energy_pj : float;  (** worst-case energy per computation *)
}

val run :
  ?stimulus:Mclock_sim.Stimulus.model ->
  iterations:int ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  t
(** Analyze [iterations] computations under [stimulus] (default
    [Uniform]). *)
