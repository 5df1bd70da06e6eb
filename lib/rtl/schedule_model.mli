(** A design's reset state and the exact resolution of its latched
    control schedule into two fully held-resolved periods (the first
    period from reset, and the steady period every later cycle
    replays).  Everything here is data-independent and therefore exact
    for any simulation run.  The compiled kernel, the static analyzer
    and controller synthesis read this replay; the reference simulator
    reads only [default_op] and [input_plumbing]. *)

type step = {
  sel : int array;  (** held select per mux id, in force this cycle *)
  sel_changed : bool array;  (** select assignment changed the line *)
  op : Mclock_dfg.Op.t option array;  (** held function per ALU id *)
  op_changed : bool array;  (** function assignment changed the line *)
  busy : bool array;  (** ALU has a function assignment this step *)
  loads : bool array;  (** storage load-enable per id *)
  control_changes : int;
      (** select + function + load-line transitions this cycle *)
}

type t = {
  t_steps : int;
  max_id : int;
  reset_op : Mclock_dfg.Op.t option array;
      (** function per ALU id at reset: its [default_op] *)
  first : step array;  (** steps 1..T of the first period, 0-indexed *)
  steady : step array;  (** steps 1..T of every later period *)
}

val default_op : Comp.alu -> Mclock_dfg.Op.t
(** The function an ALU holds from reset until a control word assigns
    one. *)

val input_plumbing : Design.t -> (int * int * int option) list
(** [(column, port, input register)] per primary input, in port-list
    order ([column] indexes the input matrix).  An input with a
    register has its port updated at the start of the final step (the
    register re-samples at that step's end); one without is updated at
    the start of step 1.  Ports and input registers reset to the first
    computation's values. *)

val build : Design.t -> t

val step_at : t -> cycle:int -> step
(** The resolved step in force at 1-based global [cycle]. *)
