(** Compilation of behaviour programs to data-flow graphs with common
    subexpression sharing. *)

open Mclock_dfg

exception Error of { line : int; message : string }

val to_graph : Ast.t -> Graph.t
(** Raises {!Error} on undefined variables, double assignment,
    constant-valued named results, outputs that only copy a primary
    input, or unassigned outputs; raises
    {!Graph.Invalid} if the program is otherwise unrealizable. *)

val compile_string : string -> Graph.t
(** Parse + compile; raises {!Parser.Error} or {!Lexer.Error} on
    malformed input too. *)
