(* The propagation engine: per-bit signal and transition probabilities
   pushed through the datapath, cycle by cycle, against the exact
   control schedule — no values, no RNG, only statistics.

   The engine mirrors the reference simulator's cycle structure
   (ports, combinational components in topological order, storages in
   ascending id order) so that every "which value does this reader see
   this cycle" question has the simulator's exact answer:

   - combinational components read a storage's value from the end of
     the previous cycle (storages tick after propagation);
   - a storage reading a smaller-id storage sees this cycle's update,
     a larger-id storage's previous value (the simulator updates
     storages in ascending id order);
   - ports update before propagation (direct ports at step 1,
     registered-input ports at the final step of the previous
     computation — exactly the simulator's plumbing, including the
     missing first/last applications).

   Per component the engine tracks the statistics of the same state
   the simulator holds concretely: the held output value (signal
   probability), the operand capture registers of ALUs and the stored
   word of storages (as running "differs from the capture"
   accumulators), and charges the data-dependent activity categories
   (Data, Mux_data, Alu_internal, Storage_write, Isolation) from
   expected — or, in Bound mode, worst-case — Hamming distances.
   Every charge in the simulator is linear in a Hamming distance, so
   expectations fold through exactly and worst cases dominate.

   The data-independent categories (Clock, Gating, Control,
   Mux_select) are exact closed forms and live in [Duty]. *)

open Mclock_rtl
module L = Mclock_tech.Library
module Activity = Mclock_sim.Activity
module Op = Mclock_dfg.Op
module Var = Mclock_dfg.Var
module B = Mclock_util.Bitvec

(* Output-bit signal probabilities of one ALU evaluation.  When every
   operand bit is a proven constant the operation is evaluated
   exactly (both modes — this is the bound-tightening rule that pins
   e.g. constant-operand datapaths); otherwise per-operation rules
   apply, with the comparison operations' zero upper bits pinned. *)
let op_output mode op ~width pa pb =
  let all_pinned arr = Array.for_all Prob.pinned arr in
  let bv_of arr =
    let v = ref 0 in
    Array.iteri (fun i x -> if x = 1. then v := !v lor (1 lsl i)) arr;
    B.create ~width !v
  in
  if all_pinned pa && (Op.arity op = 1 || all_pinned pb) then begin
    let r =
      match Op.arity op with
      | 1 -> Op.eval op [ bv_of pa ]
      | _ -> Op.eval op [ bv_of pa; bv_of pb ]
    in
    Array.init width (fun b -> if B.bit r b then 1. else 0.)
  end
  else
    match op with
    | Op.Add | Op.Sub ->
        Array.init width (fun b ->
            if b = 0 then Prob.xor_p mode pa.(0) pb.(0) else 0.5)
    | Op.Mul ->
        Array.init width (fun b ->
            if b = 0 then Prob.and_p mode pa.(0) pb.(0) else 0.5)
    | Op.Div | Op.Shl | Op.Shr -> Array.make width 0.5
    | Op.And -> Array.init width (fun b -> Prob.and_p mode pa.(b) pb.(b))
    | Op.Or -> Array.init width (fun b -> Prob.or_p mode pa.(b) pb.(b))
    | Op.Xor -> Array.init width (fun b -> Prob.xor_p mode pa.(b) pb.(b))
    | Op.Not -> Array.map (Prob.not_p mode) pa
    | Op.Gt | Op.Lt ->
        Array.init width (fun b -> if b = 0 then 0.5 else 0.)
    | Op.Eq ->
        Array.init width (fun b ->
            if b <> 0 then 0.
            else
              match mode with
              | Prob.Bound -> 0.5
              | Prob.Estimate ->
                  let m = ref 1. in
                  for i = 0 to width - 1 do
                    m :=
                      !m
                      *. ((pa.(i) *. pb.(i))
                         +. ((1. -. pa.(i)) *. (1. -. pb.(i))))
                  done;
                  !m)

let run mode tech design (model : Schedule_model.t) ~stimulus ~iterations =
  let datapath = Design.datapath design in
  let width = Datapath.width datapath in
  let t_steps = model.Schedule_model.t_steps in
  let max_id = model.Schedule_model.max_id in
  let comb_order = Datapath.combinational_order datapath in
  let storages = Datapath.storages datapath in
  let activity = Activity.create ~max_comp:max_id () in
  let ept cap = L.energy_per_transition tech cap in
  let charge ~comp ~category v = Activity.add activity ~comp ~category v in
  let w = width in
  let zeros = Array.make w 0. in
  let mk () = Array.init (max_id + 1) (fun _ -> Array.make w 0.) in
  (* Held output statistics per component; storage values are double-
     buffered so readers see the simulator-exact vintage. *)
  let p = mk () and t_cur = mk () in
  let stor_p_prev = mk () and stor_t_prev = mk () in
  let acc_a = mk () and acc_b = mk () and acc_s = mk () in
  let busy_prev = Array.make (max_id + 1) false in
  let mux_first = Array.make (max_id + 1) true in
  let is_storage = Array.make (max_id + 1) false in
  List.iter (fun (c, _) -> is_storage.(Comp.id c) <- true) storages;
  (* Input plumbing, as in the simulator. *)
  let plumbing = Schedule_model.input_plumbing design in
  let p0 = Stim.signal_probability stimulus in
  let trans =
    match mode with
    | Prob.Estimate -> Stim.transition stimulus ~width
    | Prob.Bound -> Stim.transition_bound stimulus ~width
  in
  (* Reset state: ports and input registers hold the first environment
     (signal probability [p0]); every other component resets to zero,
     a proven constant. *)
  List.iter
    (fun (_, port, reg) ->
      Array.fill p.(port) 0 w p0;
      Option.iter (fun sid -> Array.fill p.(sid) 0 w p0) reg)
    plumbing;
  List.iter
    (fun (c, _) ->
      let id = Comp.id c in
      Array.blit p.(id) 0 stor_p_prev.(id) 0 w)
    storages;
  let const_cache = Hashtbl.create 8 in
  let const_p cst =
    match Hashtbl.find_opt const_cache cst with
    | Some arr -> arr
    | None ->
        let arr =
          Array.init w (fun b -> if (cst lsr b) land 1 = 1 then 1. else 0.)
        in
        Hashtbl.add const_cache cst arr;
        arr
  in
  let reset_p = function
    | Comp.From_const cst -> const_p cst
    | Comp.From_comp sid -> p.(sid)
  in
  (* Operand captures and stored words start out holding the reset
     value of their source (zero for everything except ports and input
     registers), so the accumulators start at "differs from zero". *)
  List.iter
    (fun (c, a) ->
      let id = Comp.id c in
      let pa = reset_p a.Comp.a_src_a in
      for b = 0 to w - 1 do
        acc_a.(id).(b) <- Prob.init_diff mode pa.(b)
      done;
      let pb =
        match a.Comp.a_src_b with Some s -> reset_p s | None -> pa
      in
      for b = 0 to w - 1 do
        acc_b.(id).(b) <- Prob.init_diff mode pb.(b)
      done)
    (Datapath.alus datapath);
  List.iter
    (fun (c, s) ->
      let id = Comp.id c in
      let own_port =
        (* an input register fed straight by its own port holds the
           same first-environment value: provably no initial skew *)
        List.exists
          (fun (_, port, reg) ->
            reg = Some id && s.Comp.s_input = Comp.From_comp port)
          plumbing
      in
      if not own_port then
        let ps = reset_p s.Comp.s_input in
        for b = 0 to w - 1 do
          acc_s.(id).(b) <- Prob.differ mode ps.(b) p.(id).(b)
        done)
    storages;
  (* Hoisted coefficients. *)
  let ept_reg_out = ept tech.L.register.L.output_cap_per_bit in
  let ept_mux_data = ept tech.L.mux.L.data_cap_per_bit in
  let ept_fu_out = ept tech.L.fu_output_cap_per_bit in
  let ept_iso = ept tech.L.isolation_cap_per_bit in
  let alu_int_ept = Array.make (max_id + 1) 0. in
  List.iter
    (fun (c, a) ->
      alu_int_ept.(Comp.id c) <-
        ept (L.alu_internal_cap tech ~width a.Comp.a_fset)
        /. (2. *. float_of_int w))
    (Datapath.alus datapath);
  let stor_write_ept = Array.make (max_id + 1) 0. in
  let stor_out_ept = Array.make (max_id + 1) 0. in
  List.iter
    (fun (c, s) ->
      let ps = L.storage_params tech s.Comp.s_kind in
      stor_write_ept.(Comp.id c) <- ept ps.L.internal_cap_per_bit;
      stor_out_ept.(Comp.id c) <- ept ps.L.output_cap_per_bit)
    storages;
  (* Source views: what a reader sees this cycle. *)
  let comb_view = function
    | Comp.From_const cst -> (const_p cst, zeros)
    | Comp.From_comp sid ->
        if is_storage.(sid) then (stor_p_prev.(sid), stor_t_prev.(sid))
        else (p.(sid), t_cur.(sid))
  in
  let storage_view ~reader = function
    | Comp.From_const cst -> (const_p cst, zeros)
    | Comp.From_comp sid ->
        if is_storage.(sid) && sid >= reader then
          (stor_p_prev.(sid), stor_t_prev.(sid))
        else (p.(sid), t_cur.(sid))
  in
  let trans_sum = Prob.sum trans in
  let total_cycles = iterations * t_steps in
  for cycle = 1 to total_cycles do
    let sm = Schedule_model.step_at model ~cycle in
    let step = ((cycle - 1) mod t_steps) + 1 in
    let iter_idx = (cycle - 1) / t_steps in
    (* 1. Ports. *)
    List.iter
      (fun (_, port, reg) ->
        Array.fill t_cur.(port) 0 w 0.;
        let fires =
          match reg with
          | None -> step = 1 && iter_idx > 0
          | Some _ -> step = t_steps && iter_idx + 1 < iterations
        in
        if fires then begin
          Array.blit trans 0 t_cur.(port) 0 w;
          charge ~comp:port ~category:Activity.Data
            (trans_sum *. ept_reg_out)
        end)
      plumbing;
    (* 2. Combinational propagation. *)
    List.iter
      (fun c ->
        let id = Comp.id c in
        match Comp.kind c with
        | Comp.Mux m ->
            let sel = sm.Schedule_model.sel.(id) in
            let psrc, tsrc = comb_view m.Comp.m_choices.(sel) in
            let reselected =
              sm.Schedule_model.sel_changed.(id) || mux_first.(id)
            in
            mux_first.(id) <- false;
            let tout = t_cur.(id) in
            if reselected then
              for b = 0 to w - 1 do
                tout.(b) <- Prob.differ mode p.(id).(b) psrc.(b)
              done
            else Array.blit tsrc 0 tout 0 w;
            charge ~comp:id ~category:Activity.Mux_data
              (Prob.sum tout *. ept_mux_data);
            Array.blit psrc 0 p.(id) 0 w
        | Comp.Alu a ->
            let busy = sm.Schedule_model.busy.(id) in
            let psa, tsa = comb_view a.Comp.a_src_a in
            let psb, tsb =
              match a.Comp.a_src_b with
              | Some s -> comb_view s
              | None -> (psa, tsa)
            in
            for b = 0 to w - 1 do
              acc_a.(id).(b) <- Prob.toggle_acc mode acc_a.(id).(b) tsa.(b);
              acc_b.(id).(b) <- Prob.toggle_acc mode acc_b.(id).(b) tsb.(b)
            done;
            if a.Comp.a_isolated && not busy then begin
              (* Inputs frozen behind the isolation cells; charge the
                 cells on the busy->idle edge.  Source toggles keep
                 accumulating against the frozen captures. *)
              if busy_prev.(id) then
                charge ~comp:id ~category:Activity.Isolation
                  (float_of_int w *. ept_iso);
              busy_prev.(id) <- false;
              Array.fill t_cur.(id) 0 w 0.
            end
            else begin
              let opch = sm.Schedule_model.op_changed.(id) in
              let eh =
                Prob.sum acc_a.(id)
                +. Prob.sum acc_b.(id)
                +. if opch then float_of_int w else 0.
              in
              charge ~comp:id ~category:Activity.Alu_internal
                (eh *. alu_int_ept.(id));
              let q =
                if opch then 1.
                else if a.Comp.a_src_b = None then Prob.union_any acc_a.(id)
                else
                  1.
                  -. (1. -. Prob.union_any acc_a.(id))
                     *. (1. -. Prob.union_any acc_b.(id))
              in
              let op =
                match sm.Schedule_model.op.(id) with
                | Some o -> o
                | None -> assert false
              in
              let pnew = op_output mode op ~width psa psb in
              let tout = t_cur.(id) in
              for b = 0 to w - 1 do
                tout.(b) <- q *. Prob.differ mode p.(id).(b) pnew.(b);
                p.(id).(b) <-
                  Prob.blend mode ~q ~held:p.(id).(b) ~fresh:pnew.(b)
              done;
              charge ~comp:id ~category:Activity.Data
                (Prob.sum tout *. ept_fu_out);
              if a.Comp.a_isolated && busy then
                charge ~comp:id ~category:Activity.Isolation (eh *. ept_iso);
              Array.fill acc_a.(id) 0 w 0.;
              Array.fill acc_b.(id) 0 w 0.;
              busy_prev.(id) <- busy
            end
        | Comp.Input _ | Comp.Storage _ -> assert false)
      comb_order;
    (* 3. Storage updates, ascending id. *)
    List.iter
      (fun (c, s) ->
        let id = Comp.id c in
        let psrc, tsrc = storage_view ~reader:id s.Comp.s_input in
        for b = 0 to w - 1 do
          acc_s.(id).(b) <- Prob.toggle_acc mode acc_s.(id).(b) tsrc.(b)
        done;
        let tout = t_cur.(id) in
        if sm.Schedule_model.loads.(id) then begin
          let h = Prob.sum acc_s.(id) in
          charge ~comp:id ~category:Activity.Storage_write
            (h *. stor_write_ept.(id));
          charge ~comp:id ~category:Activity.Data (h *. stor_out_ept.(id));
          Array.blit acc_s.(id) 0 tout 0 w;
          Array.blit psrc 0 p.(id) 0 w;
          Array.fill acc_s.(id) 0 w 0.
        end
        else Array.fill tout 0 w 0.)
      storages;
    (* 4. Publish storage outputs for the next cycle's readers. *)
    List.iter
      (fun (c, _) ->
        let id = Comp.id c in
        Array.blit t_cur.(id) 0 stor_t_prev.(id) 0 w;
        Array.blit p.(id) 0 stor_p_prev.(id) 0 w)
      storages
  done;
  activity
