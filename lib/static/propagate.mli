(** The mode-parameterized propagation engine for the data-dependent
    activity categories (Data, Mux_data, Alu_internal, Storage_write,
    Isolation).  In [Estimate] mode it computes expected energies under
    the stimulus statistics; in [Bound] mode it runs the same schedule
    over the {0, 1/2, 1} pinned/unknown abstract domain, yielding a
    worst-case charge that dominates any simulation run. *)

type mode =
  | Estimate
      (** real probabilities under an independence assumption *)
  | Bound
      (** the three-point abstract domain ({0, 1} = proven constants,
          0.5 = unknown) for signal values and {0, 1} may-toggle
          indicators for transitions.  Every combinator is worst-case
          correct and pointwise dominates its [Estimate] counterpart,
          which is the construction behind [estimate <= b_power]. *)

val run :
  mode ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Mclock_rtl.Schedule_model.t ->
  stimulus:Mclock_sim.Stimulus.model ->
  iterations:int ->
  Mclock_sim.Activity.t
(** Full-unroll propagation over all [iterations * t_steps] cycles,
    charging the data-dependent categories only (combine with
    {!Duty.charge} for the complete picture).  The design is compiled
    into flat arrays once per call; the cycle loop allocates nothing. *)
