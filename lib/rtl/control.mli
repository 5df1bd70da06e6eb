(** The controller: one control word per schedule step, cycled forever.
    Unspecified controls hold their previous value, which is how the
    paper's latched-control discipline is expressed. *)

open Mclock_dfg

type word = {
  selects : (int * int) list;
  loads : int list;
  alu_ops : (int * Op.t) list;
}

val empty_word : word

type t

val create : word list -> t
(** One word per step, step 1 first.  Raises [Invalid_argument] on []
    and on a word that assigns the same mux, ALU or storage load twice
    (the message names the step). *)

val num_steps : t -> int

val word : t -> step:int -> word
(** Steps beyond the schedule wrap around (cyclic execution). *)

val select : t -> step:int -> mux:int -> int option
val loads : t -> step:int -> int list
val alu_op : t -> step:int -> alu:int -> Op.t option

val pp_word : Format.formatter -> word -> unit
val pp : Format.formatter -> t -> unit
