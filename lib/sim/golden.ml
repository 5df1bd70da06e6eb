(* Golden reference interpreter: evaluate a DFG directly on bit-vector
   inputs.  The RTL simulator's observed outputs must match this for
   every design style — the functional-correctness oracle.

   [compile] resolves every operand once to a slot index: graph inputs
   first, then node results in node order, then the constants (built
   once, at compile time).  A [run] then evaluates one computation by
   indexing a slot array with [Op.eval] — no map operation per node,
   so verifying a long simulation costs one slot array per
   computation.  [eval] is a thin wrapper over the same program. *)

open Mclock_dfg
module B = Mclock_util.Bitvec

type env = B.t Var.Map.t

type t = {
  width : int;
  inputs : Var.t array;
  outputs : Var.t array;
  template : B.t array; (* inputs and results zero, constants set *)
  ops : Op.t array; (* by node; result slot = |inputs| + index *)
  args : int array array; (* operand slots, by node *)
  out_slots : int array; (* by graph output *)
}

let compile_as ~fn ~width graph =
  let inputs = Array.of_list (Graph.inputs graph) in
  let nodes = Array.of_list (Graph.nodes graph) in
  let n_in = Array.length inputs in
  let n_nodes = Array.length nodes in
  (* Name resolution mirrors the environment fold it replaces: a later
     binding of a name shadows an earlier one. *)
  let bound = ref Var.Map.empty in
  Array.iteri (fun i v -> bound := Var.Map.add v i !bound) inputs;
  let consts = ref [] in
  let n_consts = ref 0 in
  let slot_of_var v =
    match Var.Map.find_opt v !bound with
    | Some s -> s
    | None ->
        invalid_arg (Printf.sprintf "%s: variable %s unbound" fn (Var.name v))
  in
  let args =
    Array.mapi
      (fun i node ->
        let a =
          Array.of_list
            (List.map
               (function
                 | Node.Operand_var v -> slot_of_var v
                 | Node.Operand_const c ->
                     consts := B.create ~width c :: !consts;
                     incr n_consts;
                     n_in + n_nodes + !n_consts - 1)
               (Node.operands node))
        in
        bound := Var.Map.add (Node.result node) (n_in + i) !bound;
        a)
      nodes
  in
  let template = Array.make (n_in + n_nodes + !n_consts) (B.zero ~width) in
  List.iteri
    (fun k c -> template.(n_in + n_nodes + !n_consts - 1 - k) <- c)
    !consts;
  let outputs = Array.of_list (Graph.outputs graph) in
  {
    width;
    inputs;
    outputs;
    template;
    ops = Array.map Node.op nodes;
    args;
    out_slots = Array.map slot_of_var outputs;
  }

let compile ~width graph = compile_as ~fn:"Golden.compile" ~width graph
let inputs t = t.inputs
let outputs t = t.outputs

(* Evaluate the nodes over [slots], whose input slots are filled. *)
let exec t slots =
  let n_in = Array.length t.inputs in
  for i = 0 to Array.length t.ops - 1 do
    let a = t.args.(i) in
    slots.(n_in + i) <-
      Op.eval t.ops.(i)
        (if Array.length a = 1 then [ slots.(a.(0)) ]
         else [ slots.(a.(0)); slots.(a.(1)) ])
  done;
  Array.map (fun s -> slots.(s)) t.out_slots

let run t row =
  if Array.length row <> Array.length t.inputs then
    invalid_arg "Golden.run: input row length differs from the graph's inputs";
  let slots = Array.copy t.template in
  Array.iteri (fun i v -> slots.(i) <- B.create ~width:t.width v) row;
  exec t slots

let eval ~width graph inputs =
  List.iter
    (fun v ->
      if not (Var.Map.mem v inputs) then
        invalid_arg
          (Printf.sprintf "Golden.eval: missing input %s" (Var.name v)))
    (Graph.inputs graph);
  let t = compile_as ~fn:"Golden.eval" ~width graph in
  let slots = Array.copy t.template in
  Array.iteri (fun i v -> slots.(i) <- Var.Map.find v inputs) t.inputs;
  let values = exec t slots in
  let out = ref Var.Map.empty in
  Array.iteri (fun j v -> out := Var.Map.add v values.(j) !out) t.outputs;
  !out

let random_inputs rng ~width graph =
  List.fold_left
    (fun acc v -> Var.Map.add v (B.random rng ~width) acc)
    Var.Map.empty (Graph.inputs graph)
