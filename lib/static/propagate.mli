(** The mode-parameterized propagation engine for the data-dependent
    activity categories (Data, Mux_data, Alu_internal, Storage_write,
    Isolation).  In [Estimate] mode it computes expected energies under
    the stimulus statistics; in [Bound] mode it runs the same schedule
    over the {0, 1/2, 1} pinned/unknown abstract domain, yielding a
    worst-case charge that dominates any simulation run. *)

val op_output :
  Prob.mode ->
  Mclock_dfg.Op.t ->
  width:int ->
  float array ->
  float array ->
  float array
(** Per-bit output signal probabilities of one ALU evaluation; exact
    constant folding when every operand bit is pinned. *)

val run :
  Prob.mode ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Mclock_rtl.Schedule_model.t ->
  stimulus:Mclock_sim.Stimulus.model ->
  iterations:int ->
  Mclock_sim.Activity.t
(** Full-unroll propagation over all [iterations * t_steps] cycles,
    charging the data-dependent categories only (combine with
    {!Duty.charge} for the complete picture). *)
