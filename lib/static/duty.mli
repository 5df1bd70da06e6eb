(** The duty-cycle model: closed-form, charge-exact energy of every
    data-independent mechanism — clock pins over their 1/n duty
    windows, gated clock trees and gating-cell enables, control-line
    transitions, mux select lines.  Shared unchanged by the estimate
    and the bound. *)

val phase_ticks : phases:int -> phase:int -> cycles:int -> int
(** Number of global cycles in [1, cycles] belonging to [phase] of an
    n-phase clock: the storage's duty window. *)

val gating_toggles : Mclock_rtl.Schedule_model.t -> iterations:int -> int -> int
(** Exact enable-line edge count of storage [id] over the run. *)

val charge :
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Mclock_rtl.Schedule_model.t ->
  iterations:int ->
  into:Mclock_sim.Activity.t ->
  unit
(** Accumulate the Clock, Gating, Control and Mux_select categories
    into [into]; per-(component, category) equal to what
    {!Mclock_sim.Simulator.run} charges. *)
