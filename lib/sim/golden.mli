(** Golden reference interpreter: evaluate a DFG directly on bit-vector
    inputs — the functional-correctness oracle for RTL simulation. *)

open Mclock_dfg

type env = Mclock_util.Bitvec.t Var.Map.t

type t
(** A graph compiled for repeated evaluation: every operand resolved to
    a slot (graph inputs, then node results in node order, then
    constants built at compile time). *)

val compile : width:int -> Graph.t -> t
(** Raises [Invalid_argument] if an operand or output names a variable
    that is neither a graph input nor produced by an earlier node. *)

val inputs : t -> Var.t array
(** The graph's inputs: the column order {!run} expects. *)

val outputs : t -> Var.t array
(** The graph's outputs: the order {!run} returns. *)

val run : t -> int array -> Mclock_util.Bitvec.t array
(** One computation: input values in {!inputs} order (truncated to the
    compiled width) to output values in {!outputs} order, with [Op]
    semantics.  Raises [Invalid_argument] on a row of the wrong
    length. *)

val eval : width:int -> Graph.t -> env -> env
(** Primary-output values; raises [Invalid_argument] on missing
    inputs. *)

val random_inputs : Mclock_util.Rng.t -> width:int -> Graph.t -> env
