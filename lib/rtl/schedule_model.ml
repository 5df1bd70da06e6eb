(* A design's reset state and the exact replay of its latched control
   schedule — the one definition the compiled kernel
   ([Mclock_sim.Compiled]), the static analyzer ([Mclock_static]) and
   controller synthesis ([Mclock_ctrl.Synth]) read.  The reference
   simulator ([Mclock_sim.Simulator.run]) takes [default_op] and
   [input_plumbing] from here but interprets the control words itself,
   cycle by cycle, so the differential tests check this replay against
   an independent one.

   Control words assign mux selects and ALU functions sparsely;
   unassigned lines hold their previous value.  From reset (selects 0,
   each ALU on its [default_op], no loads) the held state after one
   full period repeats every period thereafter: the same assignments
   land on the same held values.  Two resolved periods therefore
   describe every cycle of a run:

   - [first]   — steps 1..T from reset (transient select/function
     changes, the load-line edge out of the all-idle reset);
   - [steady]  — steps 1..T of every later period.

   Each resolved step carries, per component, the held select/function
   in force during that cycle, whether the control assignment changed
   it (the simulator charges select-line and function-change energy on
   exactly those events), the busy and load sets, and the total
   control-line change count including load-line edges.  All of it is
   data-independent, so these are exact facts about any simulation of
   the design, not estimates. *)

type step = {
  sel : int array;  (** held select per mux id, in force this cycle *)
  sel_changed : bool array;
  op : Mclock_dfg.Op.t option array;  (** held function per ALU id *)
  op_changed : bool array;
  busy : bool array;  (** ALU listed in this step's function assignments *)
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

(* The function an ALU holds from reset until a control word assigns
   one: the first of its function set. *)
let default_op a = List.hd (Mclock_dfg.Op.Set.to_list a.Comp.a_fset)

(* Input plumbing: an input sampled into a dedicated register (its
   storage element lists the variable among its held values) has its
   port updated at the start of the final step, so the register
   re-samples at that step's end and the next computation reads stable
   values from cycle one.  Port-direct inputs update at the start of
   step 1.  At reset, ports and input registers both hold the first
   computation's values. *)
let input_plumbing design =
  let storages = Datapath.storages (Design.datapath design) in
  let input_register v =
    List.find_map
      (fun (c, s) ->
        if List.exists (Mclock_dfg.Var.equal v) s.Comp.s_holds then
          Some (Comp.id c)
        else None)
      storages
  in
  List.mapi
    (fun col (v, port) -> (col, port, input_register v))
    (Design.input_ports design)

let build design =
  let datapath = Design.datapath design in
  let control = Design.control design in
  let t_steps = Control.num_steps control in
  let max_id =
    List.fold_left (fun acc c -> max acc (Comp.id c)) 0 (Datapath.comps datapath)
  in
  (* Held state, from reset. *)
  let sel = Array.make (max_id + 1) 0 in
  let fn : Mclock_dfg.Op.t option array = Array.make (max_id + 1) None in
  List.iter
    (fun (c, a) -> fn.(Comp.id c) <- Some (default_op a))
    (Datapath.alus datapath);
  let reset_op = Array.copy fn in
  let prev_loads = Array.make (max_id + 1) false in
  let resolve step_no =
    let word = Control.word control ~step:(((step_no - 1) mod t_steps) + 1) in
    let changes = ref 0 in
    let sel_changed = Array.make (max_id + 1) false in
    List.iter
      (fun (mux_id, idx) ->
        if sel.(mux_id) <> idx then begin
          incr changes;
          sel_changed.(mux_id) <- true;
          sel.(mux_id) <- idx
        end)
      word.Control.selects;
    let op_changed = Array.make (max_id + 1) false in
    let busy = Array.make (max_id + 1) false in
    List.iter
      (fun (alu_id, op) ->
        busy.(alu_id) <- true;
        (match fn.(alu_id) with
        | Some prev when Mclock_dfg.Op.equal prev op -> ()
        | Some _ | None ->
            incr changes;
            op_changed.(alu_id) <- true);
        fn.(alu_id) <- Some op)
      word.Control.alu_ops;
    let loads = Array.make (max_id + 1) false in
    List.iter (fun id -> loads.(id) <- true) word.Control.loads;
    for id = 0 to max_id do
      if loads.(id) <> prev_loads.(id) then incr changes;
      prev_loads.(id) <- loads.(id)
    done;
    {
      sel = Array.copy sel;
      sel_changed;
      op = Array.copy fn;
      op_changed;
      busy;
      loads;
      control_changes = !changes;
    }
  in
  let first = Array.init t_steps (fun i -> resolve (i + 1)) in
  let steady = Array.init t_steps (fun i -> resolve (t_steps + i + 1)) in
  { t_steps; max_id; reset_op; first; steady }

let step_at t ~cycle =
  let idx = (cycle - 1) mod t.t_steps in
  if cycle <= t.t_steps then t.first.(idx) else t.steady.(idx)
