(** End-to-end synthesis flow: one entry per design style, plus the
    five-design suite each of the paper's tables reports. *)

open Mclock_sched

type method_ =
  | Conventional_non_gated
  | Conventional_gated
  | Integrated of int  (** clock count *)
  | Split of int

val method_label : method_ -> string
(** The paper's row labels, e.g. "Conven. Alloc. (Gated Clock)". *)

type params = { tech : Mclock_tech.Library.t; width : int }

val default_params : params

exception
  Lint_failed of {
    design : Mclock_rtl.Design.t;
    diagnostics : Mclock_lint.Diagnostic.t list;
  }
(** Raised when a freshly allocated design fails the
    {!Mclock_lint.Lint.design} rule set with error-severity
    diagnostics. *)

val synthesize :
  ?params:params ->
  ?lint:bool ->
  ?transfers:bool ->
  method_:method_ ->
  name:string ->
  Schedule.t ->
  Mclock_rtl.Design.t
(** Allocates, then runs the full lint rule set over the result and
    raises {!Lint_failed} on error diagnostics.  [lint:false] (default
    [true]) skips the gate for callers that collect diagnostics
    themselves.  [transfers:false] (default [true]) is the integrated
    method's ablation: it allocates without cross-partition transfer
    insertion, and the gate waives MC006, which that design violates
    on purpose.  The other methods ignore it. *)

val standard_suite :
  ?params:params -> name:string -> Schedule.t -> (method_ * Mclock_rtl.Design.t) list
(** Non-gated, gated, and integrated 1/2/3-clock designs, in the
    tables' row order. *)
