(** Functional verification of designs against the golden DFG
    interpreter, computation by computation. *)

open Mclock_dfg

type mismatch = {
  iteration : int;
  var : Var.t;
  expected : Mclock_util.Bitvec.t;
  actual : Mclock_util.Bitvec.t option;
}

type report = { iterations : int; mismatches : mismatch list }

val ok : report -> bool

val check : width:int -> Graph.t -> Simulator.result -> report
(** Compare an existing simulation result against golden evaluation. *)

type expected
(** The golden outputs for one stimulus, one row per computation, as a
    flat int table.  It keeps no input matrix, and every design of one
    graph that draws the same stimulus can check against it. *)

val expected :
  seed:int -> iterations:int -> Mclock_rtl.Design.t -> Graph.t -> expected
(** [expected ~seed ~iterations design graph]: the golden outputs of
    [graph] on the stimulus a run of [design] draws from [seed] (the
    same input matrix {!Simulator.run} and the compiled kernel
    materialize).  Designs with the same graph, datapath width and
    input columns share it. *)

val check_expected : expected -> Simulator.result -> report
(** {!check} against a precomputed table: the same report, mismatch
    for mismatch.  Raises [Invalid_argument] if the result's stimulus
    (input columns, computation count or input rows) is not the
    table's. *)

val run :
  ?seed:int ->
  ?iterations:int ->
  Mclock_tech.Library.t ->
  Mclock_rtl.Design.t ->
  Graph.t ->
  report
(** Simulate then compare (default 25 computations). *)

val pp_mismatch : Format.formatter -> mismatch -> unit
