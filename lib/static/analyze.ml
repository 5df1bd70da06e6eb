(* Top level of the static analyzer: resolve the control schedule
   once, fold the exact data-independent energies (Duty) into both
   activities, run the propagation engine twice — once per mode — and
   convert total charge into the simulator's power/energy units. *)

module Activity = Mclock_sim.Activity
module Stimulus = Mclock_sim.Stimulus
open Mclock_rtl

type t = {
  design_name : string;
  stimulus : Stimulus.model;
  iterations : int;
  cycles : int;
  sim_time_s : float;
  estimate : Activity.t;  (** expected per-(component, category) pJ *)
  bound : Activity.t;  (** sound worst-case per-(component, category) pJ *)
  est_power_mw : float;
  b_power_mw : float;
  est_energy_pj : float;  (** expected energy per computation *)
  b_energy_pj : float;  (** worst-case energy per computation *)
}

let run ?(stimulus = Stimulus.Uniform) ~iterations tech design =
  let model = Schedule_model.build design in
  let cycles = iterations * model.Schedule_model.t_steps in
  let sim_time_s = float_of_int cycles *. Clock.period (Design.clock design) in
  let mode_activity mode =
    let activity =
      Propagate.run mode tech design model ~stimulus ~iterations
    in
    Duty.charge tech design model ~iterations ~into:activity;
    activity
  in
  let estimate = mode_activity Propagate.Estimate in
  let bound = mode_activity Propagate.Bound in
  let power act = Activity.total act *. 1e-12 /. sim_time_s *. 1e3 in
  let energy act = Activity.total act /. float_of_int iterations in
  {
    design_name = Design.name design;
    stimulus;
    iterations;
    cycles;
    sim_time_s;
    estimate;
    bound;
    est_power_mw = power estimate;
    b_power_mw = power bound;
    est_energy_pj = energy estimate;
    b_energy_pj = energy bound;
  }
