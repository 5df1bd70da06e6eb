(* Cycle-accurate multi-phase RTL simulator with per-node transition
   counting — the stand-in for the paper's "COMPASS simulator with the
   power option enabled".

   One simulated cycle = one schedule step = one system-clock period.
   Each cycle:
     1. at step 1, fresh random primary-input values are applied (a new
        computation of the behaviour begins, back to back with the
        previous one, as in the paper's overlapped runs);
     2. the control word is applied: specified mux selects and ALU
        function selects update (unspecified ones hold — latched
        controls); control-line transitions are charged;
     3. combinational components propagate in topological order; mux
        and ALU activity is charged from actual bit toggles (Hamming
        distances of old vs. new values); operand-isolated ALUs hold
        their inputs when idle;
     4. storage elements tick: clock-pin energy according to the style
        (free-running, gated to loads, or phase-divided), write energy
        and output-net energy on actual value changes;
     5. output taps whose ready step completed are recorded.

   Functional checking: per computation, the recorded outputs are the
   design's answer for that computation's inputs; Verify compares them
   against the golden interpreter. *)

open Mclock_dfg
open Mclock_rtl
module B = Mclock_util.Bitvec
module L = Mclock_tech.Library

type result = {
  cycles : int;
  iterations : int;
  sim_time_s : float; (* simulated wall-clock time *)
  energy_pj : float;
  power_mw : float;
  activity : Activity.t;
  input_vars : Var.t array; (* columns of [inputs] *)
  output_vars : Var.t array; (* columns of [outputs] *)
  inputs : int array array; (* one row per computation *)
  outputs : int array array; (* one row per computation; -1: unobserved *)
}

type trace_request = { vcd : Vcd.t; max_cycles : int }

type observation = {
  obs_cycle : int;
  obs_step : int;
  obs_phase : int;
  obs_value : int -> B.t; (* component output at the end of the cycle *)
}

let unobserved = -1

let input_columns design = Array.of_list (List.map fst (Design.input_ports design))

(* Distinct tapped variables, in first-tap order (the graph's output
   order for synthesized designs). *)
let output_columns design =
  Array.of_list
    (List.fold_left
       (fun acc tap ->
         if List.exists (Var.equal tap.Design.var) acc then acc
         else acc @ [ tap.Design.var ])
       [] (Design.output_taps design))

let column vars v =
  let rec go i =
    if i = Array.length vars then -1
    else if Var.equal vars.(i) v then i
    else go (i + 1)
  in
  go 0

(* Turn an optional user stimulus into the input matrix (one row per
   computation, one column per input in port-list order), drawing fresh
   random values when none is given.  Shared with the compiled kernel:
   both kernels must consume the RNG in exactly the same order (inputs
   within a row, then row by row) for a given seed to see the same
   input stream.  A user stimulus is validated and converted here, once;
   the kernels never touch an env. *)
let materialize_stimulus ?stimulus rng ~inputs ~width ~iterations =
  let vars = Array.of_list (List.map fst inputs) in
  match stimulus with
  | Some envs ->
      if List.length envs < iterations then
        invalid_arg "Simulator.run: stimulus shorter than iterations";
      List.iter
        (fun env ->
          Array.iter
            (fun v ->
              if not (Var.Map.mem v env) then
                invalid_arg
                  (Printf.sprintf "Simulator.run: stimulus misses input %s"
                     (Var.name v)))
            vars)
        envs;
      Array.of_list
        (List.map
           (fun env -> Array.map (fun v -> B.to_int (Var.Map.find v env)) vars)
           (Mclock_util.List_ext.take iterations envs))
  | None ->
      (* [Bitvec.random]'s draw, without boxing each value. *)
      Mclock_util.Rng.bits_matrix rng ~rows:iterations ~cols:(Array.length vars)
        ~mask:((1 lsl width) - 1)

let run ?(seed = 42) ?trace ?observer ?stimulus tech design ~iterations =
  if iterations < 1 then invalid_arg "Simulator.run: iterations must be >= 1";
  let datapath = Design.datapath design in
  let control = Design.control design in
  let clock = Design.clock design in
  let graph_inputs = Design.input_ports design in
  let width = Datapath.width datapath in
  let rng = Mclock_util.Rng.create seed in
  let t_steps = Control.num_steps control in
  let comps = Datapath.comps datapath in
  let max_id =
    List.fold_left (fun acc c -> max acc (Comp.id c)) 0 comps
  in
  let zero = B.zero ~width in
  let values = Array.make (max_id + 1) zero in
  let comb_order = Datapath.combinational_order datapath in
  let activity = Activity.create () in
  let ept cap = L.energy_per_transition tech cap in
  let charge ~comp ~category pj = Activity.add activity ~comp ~category pj in
  let value_of = function
    | Comp.From_const c -> B.create ~width c
    | Comp.From_comp id -> values.(id)
  in
  (* Mutable control state: held mux selects and ALU functions. *)
  let mux_sel = Array.make (max_id + 1) 0 in
  let alu_fn : Op.t option array = Array.make (max_id + 1) None in
  let alu_in_a = Array.make (max_id + 1) zero in
  let alu_in_b = Array.make (max_id + 1) zero in
  let alu_busy_prev = Array.make (max_id + 1) false in
  let load_prev = Array.make (max_id + 1) false in
  let prev_loads = ref [] in
  (* Initialize default ALU functions. *)
  List.iter
    (fun (c, a) -> alu_fn.(Comp.id c) <- Some (Schedule_model.default_op a))
    (Datapath.alus datapath);
  (* Optional VCD tracing. *)
  let vcd_signals =
    match trace with
    | None -> []
    | Some { vcd; _ } ->
        List.map
          (fun c ->
            ( Comp.id c,
              Vcd.register vcd
                ~name:(Printf.sprintf "%s_c%d" (Comp.name c) (Comp.id c))
                ~width ))
          comps
  in
  let record_trace cycle =
    match trace with
    | Some { vcd; max_cycles } when cycle <= max_cycles ->
        Vcd.sample vcd ~time:cycle
          (List.map (fun (id, s) -> (s, values.(id))) vcd_signals)
    | Some _ | None -> ()
  in
  (* Input plumbing: register-backed inputs update their port at the
     start of the final step, port-direct ones at the start of step 1. *)
  let input_plumbing = Schedule_model.input_plumbing design in
  let ins =
    materialize_stimulus ?stimulus rng ~inputs:graph_inputs ~width ~iterations
  in
  let apply_port row (col, port, _) =
    let fresh = B.create ~width row.(col) in
    let h = B.hamming values.(port) fresh in
    charge ~comp:port ~category:Activity.Data
      (float h *. ept tech.L.register.L.output_cap_per_bit);
    values.(port) <- fresh
  in
  (* Reset state: ports and input registers preloaded with the first
     computation's values (no energy charged for initialization). *)
  List.iter
    (fun (col, port, reg) ->
      let v0 = B.create ~width ins.(0).(col) in
      values.(port) <- v0;
      Option.iter (fun sid -> values.(sid) <- v0) reg)
    input_plumbing;
  (* Output taps write their column of the computation's row. *)
  let output_vars = output_columns design in
  let taps =
    List.map
      (fun tap -> (tap, column output_vars tap.Design.var))
      (Design.output_taps design)
  in
  let outs =
    Array.make_matrix iterations (Array.length output_vars) unobserved
  in
  let total_cycles = iterations * t_steps in
  for cycle = 1 to total_cycles do
    let step = ((cycle - 1) mod t_steps) + 1 in
    let iter_idx = (cycle - 1) / t_steps in
    let phase = Clock.phase_of_cycle clock cycle in
    (* 1. Fresh inputs: direct ports at step 1 of their computation;
       registered-input ports one step ahead, at the final step of the
       previous computation. *)
    if step = 1 && iter_idx > 0 then
      List.iter
        (fun ((_, _, reg) as p) -> if reg = None then apply_port ins.(iter_idx) p)
        input_plumbing;
    if step = t_steps && iter_idx + 1 < iterations then
      List.iter
        (fun ((_, _, reg) as p) ->
          if reg <> None then apply_port ins.(iter_idx + 1) p)
        input_plumbing;
    (* 2. Control word application. *)
    let word = Control.word control ~step in
    let control_changes = ref 0 in
    List.iter
      (fun (mux_id, idx) ->
        if mux_sel.(mux_id) <> idx then begin
          incr control_changes;
          mux_sel.(mux_id) <- idx;
          charge ~comp:mux_id ~category:Activity.Mux_select
            (ept tech.L.mux.L.select_cap)
        end)
      word.Control.selects;
    let op_changed = Array.make (max_id + 1) false in
    List.iter
      (fun (alu_id, op) ->
        match alu_fn.(alu_id) with
        | Some prev when Op.equal prev op -> ()
        | Some _ | None ->
            incr control_changes;
            op_changed.(alu_id) <- true;
            alu_fn.(alu_id) <- Some op)
      word.Control.alu_ops;
    let loads = word.Control.loads in
    let load_line_changes =
      List.length (List.filter (fun x -> not (List.mem x !prev_loads)) loads)
      + List.length (List.filter (fun x -> not (List.mem x loads)) !prev_loads)
    in
    control_changes := !control_changes + load_line_changes;
    prev_loads := loads;
    charge ~comp:Activity.global_component ~category:Activity.Control
      (float !control_changes *. ept tech.L.control_line_cap);
    let busy alu_id = List.mem_assoc alu_id word.Control.alu_ops in
    (* 3. Combinational propagation. *)
    List.iter
      (fun c ->
        let id = Comp.id c in
        match Comp.kind c with
        | Comp.Mux m ->
            let sel = mux_sel.(id) in
            if sel >= Array.length m.Comp.m_choices then
              invalid_arg
                (Printf.sprintf
                   "Simulator.run: control selects choice %d on mux %d (%d \
                    choices)"
                   sel id
                   (Array.length m.Comp.m_choices));
            let v = value_of m.Comp.m_choices.(sel) in
            let h = B.hamming values.(id) v in
            if h > 0 then begin
              charge ~comp:id ~category:Activity.Mux_data
                (float h *. ept tech.L.mux.L.data_cap_per_bit);
              values.(id) <- v
            end
        | Comp.Alu a ->
            let is_busy = busy id in
            if a.Comp.a_isolated && not is_busy then begin
              (* Isolation holds the operand inputs; charge the
                 isolation cells on the busy->idle edge. *)
              if alu_busy_prev.(id) then
                charge ~comp:id ~category:Activity.Isolation
                  (float width *. ept tech.L.isolation_cap_per_bit);
              alu_busy_prev.(id) <- false
            end
            else begin
              let a_new = value_of a.Comp.a_src_a in
              let b_new =
                match a.Comp.a_src_b with
                | Some src -> value_of src
                | None -> a_new
              in
              let op =
                match alu_fn.(id) with
                | Some op -> op
                | None -> assert false
              in
              let h =
                B.hamming alu_in_a.(id) a_new
                + B.hamming alu_in_b.(id) b_new
                + if op_changed.(id) then width else 0
              in
              if h > 0 then begin
                let frac = float h /. float (2 * width) in
                let c_int = L.alu_internal_cap tech ~width a.Comp.a_fset in
                charge ~comp:id ~category:Activity.Alu_internal
                  (ept (c_int *. frac));
                let out =
                  match Op.arity op with
                  | 1 -> Op.eval op [ a_new ]
                  | _ -> Op.eval op [ a_new; b_new ]
                in
                let ho = B.hamming values.(id) out in
                charge ~comp:id ~category:Activity.Data
                  (float ho *. ept tech.L.fu_output_cap_per_bit);
                values.(id) <- out;
                alu_in_a.(id) <- a_new;
                alu_in_b.(id) <- b_new
              end;
              (* Isolation latches re-capture operands while busy. *)
              if a.Comp.a_isolated && is_busy then
                charge ~comp:id ~category:Activity.Isolation
                  (float h *. ept tech.L.isolation_cap_per_bit);
              alu_busy_prev.(id) <- is_busy
            end
        | Comp.Input _ | Comp.Storage _ -> assert false)
      comb_order;
    (* 4. Sequential update. *)
    List.iter
      (fun (c, s) ->
        let id = Comp.id c in
        let loading = List.mem id loads in
        let kind = s.Comp.s_kind in
        if s.Comp.s_gated then begin
          (* The tree up to the gating cell toggles every cycle; the
             element's pin only on loads. *)
          charge ~comp:id ~category:Activity.Clock
            (2. *. ept tech.L.clock_tree_cap_per_sink);
          if loading then
            charge ~comp:id ~category:Activity.Clock
              (2. *. ept (L.storage_clock_pin_cap tech kind ~width))
        end
        else if phase = s.Comp.s_phase then
          charge ~comp:id ~category:Activity.Clock
            (2. *. ept (L.storage_clock_cap tech kind ~width));
        if s.Comp.s_gated && loading <> load_prev.(id) then
          (* enable-line toggle on the gating cell *)
          charge ~comp:id ~category:Activity.Gating (ept tech.L.gating_cell_cap);
        load_prev.(id) <- loading;
        if loading then begin
          let v = value_of s.Comp.s_input in
          let h = B.hamming values.(id) v in
          if h > 0 then begin
            charge ~comp:id ~category:Activity.Storage_write
              (float h
              *. ept (L.storage_params tech kind).L.internal_cap_per_bit);
            charge ~comp:id ~category:Activity.Data
              (float h *. ept (L.storage_params tech kind).L.output_cap_per_bit);
            values.(id) <- v
          end
        end)
      (Datapath.storages datapath);
    record_trace cycle;
    (match observer with
    | None -> ()
    | Some f ->
        f
          {
            obs_cycle = cycle;
            obs_step = step;
            obs_phase = phase;
            obs_value = (fun id -> values.(id));
          });
    (* 5. Output taps. *)
    List.iter
      (fun (tap, col) ->
        if tap.Design.ready_step = step then
          outs.(iter_idx).(col) <- B.to_int (value_of tap.Design.source))
      taps
  done;
  let energy_pj = Activity.total activity in
  let sim_time_s = float total_cycles *. Clock.period clock in
  let power_mw = energy_pj *. 1e-12 /. sim_time_s *. 1e3 in
  {
    cycles = total_cycles;
    iterations;
    sim_time_s;
    energy_pj;
    power_mw;
    activity;
    input_vars = input_columns design;
    output_vars;
    inputs = ins;
    outputs = outs;
  }
