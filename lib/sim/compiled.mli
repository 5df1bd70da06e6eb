(** Compiled simulation kernel: the design is precompiled into dense
    arrays (per-step control deltas, load/busy bitsets, an instruction
    stream for the combinational order, hoisted energy coefficients)
    and the cycle loop skips components whose inputs did not change —
    in particular, a phase-divided partition's storages are only walked
    during their duty cycle.

    The kernel is charge-for-charge equivalent to {!Simulator.run}: for
    the same seed (or stimulus) it produces bit-identical [energy_pj],
    per-(component, category) activity, and iteration outputs.
    {!Simulator.run} stays as the reference oracle; the differential
    tests pin the equivalence down across the workload catalog. *)

val op_code : Mclock_dfg.Op.t -> int
(** The kernel's integer code of an ALU function. *)

val eval_code : int -> int -> int -> int -> int
(** [eval_code code a b mask] evaluates the coded function on raw
    payloads masked to the datapath width ([mask = 2^width - 1]),
    exactly as {!Mclock_dfg.Op.eval} does on bit vectors; unary
    functions ignore [b].  Returns an int, so a caller in another
    module evaluates without allocating. *)

type t

val compile : Mclock_tech.Library.t -> Mclock_rtl.Design.t -> t
(** Precompile a design for [run].  Raises [Invalid_argument] if a
    control word selects a mux choice that does not exist (the
    reference interpreter raises at the offending cycle instead). *)

val run :
  ?seed:int ->
  ?trace:Simulator.trace_request ->
  ?observer:(Simulator.observation -> unit) ->
  ?stimulus:Golden.env list ->
  t ->
  iterations:int ->
  Simulator.result
(** Same contract as {!Simulator.run}; a compiled design can be run
    many times (sweeps, batches) without re-paying compilation. *)

type checkpoint
(** Complete kernel state after some number of computations: datapath
    values, change stamps, held controls, operand-isolation latches,
    the activity accumulator (cells and running total, verbatim), the
    recorded input/output envs and the RNG stream position.  A
    checkpoint is immutable — resuming from it never mutates it, so
    one checkpoint can seed many extensions. *)

val checkpoint_iterations : checkpoint -> int
(** The number of computations the checkpointed run covered. *)

val run_with_checkpoint :
  ?seed:int ->
  ?trace:Simulator.trace_request ->
  ?observer:(Simulator.observation -> unit) ->
  ?stimulus:Golden.env list ->
  t ->
  iterations:int ->
  Simulator.result * checkpoint
(** Like {!run}, returning additionally a checkpoint from which the
    run can be extended.  The result is identical to {!run}'s.

    Tracing/observation caveat: the final cycle of a run is the only
    cycle a longer run executes differently (it applies the next
    computation's inputs to register-backed input ports), so the
    checkpoint boundary sits just before it.  [trace] and [observer]
    therefore cover cycles [1 .. iterations*t_steps - 1] here; a
    {!resume} into the same VCD continues at [iterations*t_steps]
    (and in turn leaves its own final cycle untraced), so the
    concatenated dump/stream is byte-identical to an uninterrupted
    [run_with_checkpoint]'s at the combined count. *)

val resume :
  ?trace:Simulator.trace_request ->
  ?observer:(Simulator.observation -> unit) ->
  ?stimulus:Golden.env list ->
  t ->
  checkpoint ->
  iterations:int ->
  Simulator.result * checkpoint
(** [resume k ck ~iterations] extends the checkpointed run to
    [iterations] total computations (strictly more than the
    checkpoint's).  The returned result — [energy_pj], per-cell
    activity, [power_mw], input and output envs — is byte-identical to
    a fresh {!run} at [iterations] with the original seed, and the
    returned checkpoint extends the chain.

    If the checkpointed run drew its stimulus from the seed, the
    resumed run continues the same RNG stream and [stimulus] must be
    omitted; if it ran on an explicit stimulus, a stimulus covering
    the combined run must be supplied (its prefix is validated against
    the checkpointed inputs).  Raises [Invalid_argument] on a
    kernel/checkpoint shape mismatch, a non-increasing [iterations],
    or a stimulus violation. *)

(** Serialization: a sealed binary image (magic + MD5 + tagged
    payload) for content-addressed cache sidecars.  [decode] never
    raises — truncation, bit flips, version skew and structural damage
    all return [Error], which cache consumers treat as a miss. *)
module Checkpoint : sig
  val encode : checkpoint -> string

  val decode : string -> (checkpoint, string) result
  (** Exact inverse of {!encode} on well-formed input: resuming from a
      decoded checkpoint is byte-identical to resuming from the
      original. *)
end
