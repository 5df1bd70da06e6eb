(** Cycle-accurate multi-phase RTL simulator with per-node transition
    counting (the stand-in for the paper's COMPASS power simulation).

    Runs [iterations] back-to-back computations of the behaviour with
    fresh random primary inputs each, charging switched energy per
    component and mechanism; reports average power. *)

type result = {
  cycles : int;
  iterations : int;
  sim_time_s : float;
  energy_pj : float;
  power_mw : float;
  activity : Activity.t;
  input_vars : Mclock_dfg.Var.t array;
      (** columns of [inputs]: the design's input ports, in order *)
  output_vars : Mclock_dfg.Var.t array;
      (** columns of [outputs]: the tapped variables, in first-tap order *)
  inputs : int array array;  (** one row per computation *)
  outputs : int array array;
      (** one row per computation, same order; {!unobserved} marks an
          output no tap recorded in that computation *)
}

val unobserved : int
(** [-1]: never a datapath value, which is non-negative. *)

type trace_request = { vcd : Vcd.t; max_cycles : int }

type observation = {
  obs_cycle : int;
  obs_step : int;
  obs_phase : int;
  obs_value : int -> Mclock_util.Bitvec.t;
      (** component output at the end of the cycle *)
}

val materialize_stimulus :
  ?stimulus:Golden.env list ->
  Mclock_util.Rng.t ->
  inputs:(Mclock_dfg.Var.t * int) list ->
  width:int ->
  iterations:int ->
  int array array
(** The input matrix: one row per computation, one column per entry of
    [inputs], in order.  Rows come from the validated/truncated user
    [stimulus] if given (converted here, once), else from fresh uniform
    random values drawn from [rng] (column by column, row by row).
    Both simulation kernels use this, so a given seed yields the same
    input stream under either.  Raises [Invalid_argument] on an
    unsuitable stimulus. *)

val input_columns : Mclock_rtl.Design.t -> Mclock_dfg.Var.t array
(** The column order of a run's [inputs] on this design. *)

val output_columns : Mclock_rtl.Design.t -> Mclock_dfg.Var.t array
(** The column order of a run's [outputs] on this design. *)

val column : Mclock_dfg.Var.t array -> Mclock_dfg.Var.t -> int
(** Index of a variable in a column header; [-1] if absent. *)

val run :
  ?seed:int ->
  ?trace:trace_request ->
  ?observer:(observation -> unit) ->
  ?stimulus:Golden.env list ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  iterations:int ->
  result
(** Deterministic for a given [seed].  [observer] fires after each
    cycle's sequential update (used by the Fig. 4 timing checks);
    [stimulus] supplies one input environment per computation instead
    of the default uniform random stream (see {!Stimulus}).  Raises
    [Invalid_argument] for [iterations < 1], an unsuitable stimulus, or
    a control word selecting a mux choice that does not exist. *)
