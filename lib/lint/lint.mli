(** [mclock_lint] — static analysis for multi-clock RTL designs and
    their behaviours.

    Entry points run the full applicable rule set (see {!Rules.catalog})
    and return {!Diagnostic.t} lists; an empty list means clean.
    Rendering and JSON encoding live in {!Diagnostic}. *)

open Mclock_dfg

val design : Mclock_rtl.Design.t -> Diagnostic.t list
(** All design-level rules (MC001–MC011). *)

val datapath : Mclock_rtl.Datapath.t -> Diagnostic.t list
(** Wiring-only rules (MC007, MC008, MC011); total even on datapaths
    {!Mclock_rtl.Datapath.validate} rejects. *)

val graph : Graph.t -> Diagnostic.t list
(** Behaviour hygiene (MC104, MC105). *)

val schedule : Graph.t -> (int * int) list -> Diagnostic.t list
(** Raw [(node_id, step)] assignments (MC101–MC103); total even on
    assignments {!Mclock_sched.Schedule.create} rejects. *)

val behaviour : Graph.t -> (int * int) list -> Diagnostic.t list
(** {!graph} plus {!schedule}. *)

val has_errors : Diagnostic.t list -> bool
