(* Compilation of behaviour programs to data-flow graphs.

   Each assignment's expression tree is flattened into DFG nodes, one
   per operator, introducing fresh temporaries for interior results.
   Common subexpressions are shared (structural hash-consing over
   already-emitted nodes), so 'y := b*x + c' and 'z := b*x - d' emit
   b*x once.  Constant operands pass straight through as node constants
   and constant-only expressions are folded at 4..62-bit width-agnostic
   integer precision (wrapping is applied by the datapath, so folding
   only happens for expressions the hardware computes identically:
   we fold conservatively on addition chains of literals only). *)

open Mclock_dfg

exception Error of { line : int; message : string }

let error line fmt =
  Format.kasprintf (fun message -> raise (Error { line; message })) fmt

(* A value an expression evaluates to during compilation. *)
type value = V_var of Var.t | V_const of int

let operand_of = function
  | V_var v -> Node.Operand_var v
  | V_const c -> Node.Operand_const c

type env = {
  builder : Builder.t;
  mutable defined : (string * Var.t) list; (* program names in scope *)
  mutable cse : ((Op.t * value list) * Var.t) list;
}

let value_equal a b =
  match (a, b) with
  | V_var u, V_var v -> Var.equal u v
  | V_const x, V_const y -> x = y
  | V_var _, V_const _ | V_const _, V_var _ -> false

let key_equal (op1, args1) (op2, args2) =
  Op.equal op1 op2
  && List.length args1 = List.length args2
  && List.for_all2 value_equal args1 args2

let emit env ?name op args =
  let key = (op, args) in
  match
    (* Named results are always materialized; only anonymous interior
       nodes are shared. *)
    if name = None then
      List.find_opt (fun (k, _) -> key_equal k key) env.cse
    else None
  with
  | Some (_, var) -> V_var var
  | None ->
      let result =
        Builder.add_node env.builder ?result:name op (List.map operand_of args)
      in
      env.cse <- (key, result) :: env.cse;
      V_var result

let rec compile_expr env ~line expr =
  match (expr : Ast.expr) with
  | Ast.Const c -> V_const c
  | Ast.Var name -> (
      match List.assoc_opt name env.defined with
      | Some var -> V_var var
      | None -> error line "undefined variable %s" name)
  | Ast.Unop (op, e) -> (
      match compile_expr env ~line e with
      | V_const c when Op.equal op Op.Not ->
          (* fold ~constant at unbounded precision is unsafe under
             truncation; emit a node instead. *)
          emit env op [ V_const c ]
      | v -> emit env op [ v ])
  | Ast.Binop (op, a, b) -> (
      let va = compile_expr env ~line a in
      let vb = compile_expr env ~line b in
      match (op, va, vb) with
      | Op.Add, V_const x, V_const y -> V_const (x + y)
      | Op.Sub, V_const 0, V_const y -> V_const (-y)
      | _, V_const _, V_const _ | _, V_var _, _ | _, _, V_var _ ->
          emit env op [ va; vb ])

let to_graph program =
  let builder = Builder.create program.Ast.name in
  let env = { builder; defined = []; cse = [] } in
  let inputs =
    List.map
      (fun name ->
        if List.mem_assoc name env.defined then
          error 0 "input %s declared twice" name;
        let var = Builder.input builder name in
        env.defined <- (name, var) :: env.defined;
        var)
      program.Ast.inputs
  in
  List.iter
    (fun stmt ->
      let line = stmt.Ast.line in
      if List.mem_assoc stmt.Ast.target env.defined then
        error line "variable %s assigned twice (single assignment)"
          stmt.Ast.target;
      (* The expression root is emitted under the program name;
         subexpressions become shared anonymous temporaries. *)
      let named =
        match stmt.Ast.expr with
        | Ast.Var source -> (
            (* Alias ('y := x'): reuse the source variable directly.  An
               output aliasing a primary input would have no datapath
               node to produce it. *)
            match List.assoc_opt source env.defined with
            | Some var
              when List.mem stmt.Ast.target program.Ast.outputs
                   && List.exists (Var.equal var) inputs ->
                error line
                  "output %s only copies input %s; an output must be \
                   computed by an operation"
                  stmt.Ast.target (Var.name var)
            | Some var -> V_var var
            | None -> error line "undefined variable %s" source)
        | Ast.Const c ->
            error line
              "%s is the constant %d; constants cannot be named datapath \
               values"
              stmt.Ast.target c
        | Ast.Unop (op, e) ->
            emit env ~name:stmt.Ast.target op [ compile_expr env ~line e ]
        | Ast.Binop (op, a, b) -> (
            let va = compile_expr env ~line a in
            let vb = compile_expr env ~line b in
            match (op, va, vb) with
            | Op.Add, V_const x, V_const y ->
                error line
                  "%s is the constant %d; constants cannot be named datapath \
                   values"
                  stmt.Ast.target (x + y)
            | _, V_const _, V_const _ | _, V_var _, _ | _, _, V_var _ ->
                emit env ~name:stmt.Ast.target op [ va; vb ])
      in
      match named with
      | V_var var -> env.defined <- (stmt.Ast.target, var) :: env.defined
      | V_const _ -> assert false)
    program.Ast.statements;
  List.iter
    (fun name ->
      match List.assoc_opt name env.defined with
      | Some var -> Builder.output builder var
      | None -> error 0 "output %s is never assigned" name)
    program.Ast.outputs;
  Builder.finish builder

let compile_string text = to_graph (Parser.parse_string text)
