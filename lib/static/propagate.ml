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
   Mux_select) are exact closed forms and live in [Duty].

   [run] compiles the design once into flat arrays, so the cycle loop
   is index loops over unboxed floats and allocates nothing:

   - per-bit state is one [float array] per quantity, indexed
     [id * width + bit];
   - every signal/transition statistic a reader can see lives in one
     pair of arrays [pv]/[tv] holding three regions — this cycle's
     values, the storages' values from the end of the previous cycle,
     and the constants (whose transitions stay zero) — so a source is
     resolved at compile time to one offset;
   - the combinational order becomes an instruction array with the
     ALU internal-energy coefficient hoisted, and the storages become
     parallel arrays;
   - the probability combinators below and [charge] are same-module
     inlined functions, so no float result is boxed; charges go to a
     run-owned accumulator that {!Activity.of_raw} wraps once.

   Estimates and bounds are pinned bit for bit (test "analyzer bits
   pinned"), so the charge sequence and the shape of every float
   expression are fixed: sums are left folds from 0., [union_any] a
   product from 1., and the ALU Hamming sum adds operand A, operand B,
   then the op-change term.  Any reassociation moves the digest. *)

open Mclock_rtl
module L = Mclock_tech.Library
module Activity = Mclock_sim.Activity
module Compiled = Mclock_sim.Compiled
module Op = Mclock_dfg.Op

(* --- Probability algebra --------------------------------------------------

   Two interpretations share every propagation rule:

   - [Estimate]: values are real probabilities in [0, 1].  Signal
     probabilities p = P[bit = 1] and transition probabilities
     t = P[bit toggles this cycle] combine under an independence
     assumption — the classic static power-estimation algebra.

   - [Bound]: values are elements of a tiny abstract domain.  A signal
     probability is one of {0.0, 1.0, 0.5}, read as "provably 0",
     "provably 1", "unknown" (0.5 is the top element, not a
     probability).  A transition value is 0.0 ("provably cannot
     toggle") or 1.0 ("may toggle").  Every combinator returns the
     worst case over all concrete behaviours, so any quantity summed
     from [Bound] transition values dominates the corresponding count
     in any concrete simulation run.

   Soundness of estimate <= bound is by pointwise dominance: for every
   combinator, if each estimate input is <= the corresponding bound
   input (and agrees exactly on pinned values), the estimate output is
   <= the bound output.  Each combinator below notes why. *)

type mode = Estimate | Bound

(* A [Bound]-mode signal value that is exactly 0 or 1 is a proven
   constant; estimate-mode values hit 0/1 only when they were derived
   from the same proofs (reset values, constants, pinned op bits). *)
let[@inline] pinned p = p = 0. || p = 1.

(* Least upper bound of two abstract signal values. *)
let[@inline] join a b = if a = b then a else 0.5

(* P[a <> b] of two independent bits, used both as the value of an XOR
   bit and as the toggle probability of a freshly selected net.
   Bound: 0 only when both sides are pinned equal; 1 otherwise (a
   pinned unequal pair must differ, which 1 also covers). *)
let[@inline] differ mode pa pb =
  match mode with
  | Estimate -> (pa *. (1. -. pb)) +. (pb *. (1. -. pa))
  | Bound -> if pinned pa && pa = pb then 0. else 1.

(* The value-level XOR of two signal bits: same quantity as [differ]
   but landing in the signal domain, so an unknown result is top (0.5)
   rather than "may toggle" (1). *)
let[@inline] xor_p mode pa pb =
  match mode with
  | Estimate -> differ Estimate pa pb
  | Bound -> if pinned pa && pinned pb then abs_float (pa -. pb) else 0.5

let[@inline] and_p mode pa pb =
  match mode with
  | Estimate -> pa *. pb
  | Bound -> if pa = 0. || pb = 0. then 0. else if pa = 1. && pb = 1. then 1. else 0.5

let[@inline] or_p mode pa pb =
  match mode with
  | Estimate -> pa +. pb -. (pa *. pb)
  | Bound -> if pa = 1. || pb = 1. then 1. else if pa = 0. && pb = 0. then 0. else 0.5

let[@inline] not_p p = 1. -. p

(* Accumulate one more cycle's toggle probability into a running
   "differs from the captured value" state.  Estimate: P[odd number of
   toggles] of independent events (exact for a single event, the usual
   approximation for several).  Bound: the captured value may differ
   as soon as any cycle may toggle; if no cycle can toggle the values
   are provably equal — max is exactly that.  Dominance: a+b-2ab <=
   max(A,B) whenever a <= A, b <= B in {0,1}. *)
let[@inline] toggle_acc mode acc t =
  match mode with
  | Estimate -> acc +. t -. (2. *. acc *. t)
  | Bound -> Float.max acc t

(* P[at least one of the [n] bits at [off] toggles]: gates downstream
   re-evaluation.  Independence product for the estimate; for bounds
   the product over {0,1} is the exact may-any. *)
let[@inline] union_any arr off n =
  let q = ref 1. in
  for b = off to off + n - 1 do
    q := !q *. (1. -. arr.(b))
  done;
  1. -. !q

(* Held-value update after a re-evaluation that fires with probability
   [q].  Estimate: probability mixture.  Bound: if the update cannot
   fire the old value survives; otherwise either may survive, so join.
   Dominance: the mixture lies between [held] and [fresh], and the
   bound join is top unless both are pinned equal. *)
let[@inline] blend mode ~q ~held ~fresh =
  match mode with
  | Estimate -> (q *. fresh) +. ((1. -. q) *. held)
  | Bound -> if q = 0. then held else join held fresh

(* Initial "differs from an all-zero reset value" state for a source
   whose reset-time signal probability is [p]. *)
let[@inline] init_diff mode p =
  match mode with Estimate -> p | Bound -> if p = 0. then 0. else 1.

(* Left fold from 0. over the [n] values at [off]. *)
let[@inline] sum arr off n =
  let s = ref 0. in
  for b = off to off + n - 1 do
    s := !s +. arr.(b)
  done;
  !s

(* --- Operations ----------------------------------------------------------- *)

let all_pinned arr off n =
  let b = ref 0 in
  while !b < n && pinned arr.(off + !b) do
    incr b
  done;
  !b = n

(* The payload of [n] pinned bits (bit [b] set where the value is 1). *)
let payload arr off n =
  let v = ref 0 in
  for b = 0 to n - 1 do
    if arr.(off + b) = 1. then v := !v lor (1 lsl b)
  done;
  !v

(* Output-bit signal probabilities of one ALU evaluation of operands at
   [oa] and [ob] in [pv], written to [out].  When every operand bit is
   a proven constant the operation is evaluated exactly (both modes —
   this is the bound-tightening rule that pins e.g. constant-operand
   datapaths); otherwise per-operation rules apply, with the
   comparison operations' zero upper bits pinned. *)
let op_output mode op ~width pv oa ob out =
  if all_pinned pv oa width && (Op.arity op = 1 || all_pinned pv ob width)
  then begin
    let r =
      Compiled.eval_code (Compiled.op_code op) (payload pv oa width)
        (payload pv ob width)
        ((1 lsl width) - 1)
    in
    for b = 0 to width - 1 do
      out.(b) <- (if (r lsr b) land 1 = 1 then 1. else 0.)
    done
  end
  else
    match op with
    | Op.Add | Op.Sub ->
        out.(0) <- xor_p mode pv.(oa) pv.(ob);
        Array.fill out 1 (width - 1) 0.5
    | Op.Mul ->
        out.(0) <- and_p mode pv.(oa) pv.(ob);
        Array.fill out 1 (width - 1) 0.5
    | Op.Div | Op.Shl | Op.Shr -> Array.fill out 0 width 0.5
    | Op.And ->
        for b = 0 to width - 1 do
          out.(b) <- and_p mode pv.(oa + b) pv.(ob + b)
        done
    | Op.Or ->
        for b = 0 to width - 1 do
          out.(b) <- or_p mode pv.(oa + b) pv.(ob + b)
        done
    | Op.Xor ->
        for b = 0 to width - 1 do
          out.(b) <- xor_p mode pv.(oa + b) pv.(ob + b)
        done
    | Op.Not ->
        for b = 0 to width - 1 do
          out.(b) <- not_p pv.(oa + b)
        done
    | Op.Gt | Op.Lt ->
        out.(0) <- 0.5;
        Array.fill out 1 (width - 1) 0.
    | Op.Eq ->
        (out.(0) <-
           match mode with
           | Bound -> 0.5
           | Estimate ->
               let m = ref 1. in
               for i = 0 to width - 1 do
                 let pa = pv.(oa + i) and pb = pv.(ob + i) in
                 m := !m *. ((pa *. pb) +. ((1. -. pa) *. (1. -. pb)))
               done;
               !m);
        Array.fill out 1 (width - 1) 0.

(* --- Compiled design ------------------------------------------------------ *)

(* Sources are offsets into [pv]/[tv]. *)
type instr =
  | I_mux of { mx_id : int; mx_choices : int array }
  | I_alu of {
      al_id : int;
      al_src_a : int;
      al_src_b : int; (* = al_src_a for unary ALUs *)
      al_unary : bool;
      al_isolated : bool;
      al_int_ept : float; (* internal energy per expected flipped bit *)
    }

(* The run's energy accumulator, with [Activity.add]'s semantics: zero
   charges are dropped and the cell is updated before the running
   total ([total] is a one-slot array so the sum stays unboxed). *)
let[@inline] charge cells total comp cat pj =
  if pj <> 0. then begin
    let i = (comp * Activity.num_categories) + cat in
    cells.(i) <- cells.(i) +. pj;
    total.(0) <- total.(0) +. pj
  end

let cat_data = Activity.category_index Activity.Data
let cat_mux_data = Activity.category_index Activity.Mux_data
let cat_alu_internal = Activity.category_index Activity.Alu_internal
let cat_storage_write = Activity.category_index Activity.Storage_write
let cat_isolation = Activity.category_index Activity.Isolation

let run mode tech design (model : Schedule_model.t) ~stimulus ~iterations =
  let datapath = Design.datapath design in
  let w = Datapath.width datapath in
  let t_steps = model.Schedule_model.t_steps in
  let max_id = model.Schedule_model.max_id in
  let ept cap = L.energy_per_transition tech cap in
  let storages = Array.of_list (Datapath.storages datapath) in
  let is_storage = Array.make (max_id + 1) false in
  Array.iter (fun (c, _) -> is_storage.(Comp.id c) <- true) storages;
  (* Regions of [pv]/[tv]: this cycle's values at [id * w], storage
     values from the end of the previous cycle at [prev + id * w], and
     one slot per distinct constant from [consts]. *)
  let prev = (max_id + 1) * w in
  let consts = 2 * prev in
  let const_slot = Hashtbl.create 8 in
  let note_const = function
    | Comp.From_const cst when not (Hashtbl.mem const_slot cst) ->
        Hashtbl.add const_slot cst (Hashtbl.length const_slot)
    | Comp.From_const _ | Comp.From_comp _ -> ()
  in
  List.iter
    (fun c ->
      match Comp.kind c with
      | Comp.Mux m -> Array.iter note_const m.Comp.m_choices
      | Comp.Alu a ->
          note_const a.Comp.a_src_a;
          Option.iter note_const a.Comp.a_src_b
      | Comp.Storage s -> note_const s.Comp.s_input
      | Comp.Input _ -> ())
    (Datapath.comps datapath);
  let pv = Array.make (consts + (Hashtbl.length const_slot * w)) 0. in
  let tv = Array.make (Array.length pv) 0. in
  Hashtbl.iter
    (fun cst k ->
      for b = 0 to w - 1 do
        if (cst lsr b) land 1 = 1 then pv.(consts + (k * w) + b) <- 1.
      done)
    const_slot;
  let const_off cst = consts + (Hashtbl.find const_slot cst * w) in
  (* What a reader sees this cycle: combinational readers see storages'
     previous values; a storage sees a smaller-id storage's update. *)
  let comb_src = function
    | Comp.From_const cst -> const_off cst
    | Comp.From_comp sid ->
        if is_storage.(sid) then prev + (sid * w) else sid * w
  in
  let storage_src ~reader = function
    | Comp.From_const cst -> const_off cst
    | Comp.From_comp sid ->
        if is_storage.(sid) && sid >= reader then prev + (sid * w) else sid * w
  in
  let instrs =
    Array.of_list
      (List.map
         (fun c ->
           let id = Comp.id c in
           match Comp.kind c with
           | Comp.Mux m ->
               I_mux
                 { mx_id = id; mx_choices = Array.map comb_src m.Comp.m_choices }
           | Comp.Alu a ->
               let src_a = comb_src a.Comp.a_src_a in
               I_alu
                 {
                   al_id = id;
                   al_src_a = src_a;
                   al_src_b =
                     Option.fold ~none:src_a ~some:comb_src a.Comp.a_src_b;
                   al_unary = a.Comp.a_src_b = None;
                   al_isolated = a.Comp.a_isolated;
                   al_int_ept =
                     ept (L.alu_internal_cap tech ~width:w a.Comp.a_fset)
                     /. (2. *. float_of_int w);
                 }
           | Comp.Input _ | Comp.Storage _ -> assert false)
         (Datapath.combinational_order datapath))
  in
  let n_stor = Array.length storages in
  let st_id = Array.map (fun (c, _) -> Comp.id c) storages in
  let st_src =
    Array.map
      (fun (c, s) -> storage_src ~reader:(Comp.id c) s.Comp.s_input)
      storages
  in
  let st_ept cap =
    Array.map
      (fun (_, s) -> ept (cap (L.storage_params tech s.Comp.s_kind)))
      storages
  in
  let st_write_ept = st_ept (fun ps -> ps.L.internal_cap_per_bit) in
  let st_out_ept = st_ept (fun ps -> ps.L.output_cap_per_bit) in
  (* Input plumbing, as in the simulator. *)
  let plumbing = Schedule_model.input_plumbing design in
  let ports = Array.of_list (List.map (fun (_, port, _) -> port) plumbing) in
  let port_registered =
    Array.of_list (List.map (fun (_, _, reg) -> Option.is_some reg) plumbing)
  in
  let trans =
    match mode with
    | Estimate -> Stim.transition stimulus ~width:w
    | Bound -> Stim.transition_bound stimulus ~width:w
  in
  let e_port = sum trans 0 w *. ept tech.L.register.L.output_cap_per_bit in
  let ept_mux_data = ept tech.L.mux.L.data_cap_per_bit in
  let ept_fu_out = ept tech.L.fu_output_cap_per_bit in
  let ept_iso = ept tech.L.isolation_cap_per_bit in
  (* Per-bit state: captured-operand and stored-word accumulators, and
     the output buffer of one ALU evaluation. *)
  let acc_a = Array.make prev 0. and acc_b = Array.make prev 0. in
  let acc_s = Array.make prev 0. in
  let pnew = Array.make w 0. in
  let busy_prev = Array.make (max_id + 1) false in
  let mux_first = Array.make (max_id + 1) true in
  (* Reset state: ports and input registers hold the first environment
     (signal probability [p0]); every other component resets to zero,
     a proven constant. *)
  let p0 = Stim.signal_probability stimulus in
  List.iter
    (fun (_, port, reg) ->
      Array.fill pv (port * w) w p0;
      Option.iter (fun sid -> Array.fill pv (sid * w) w p0) reg)
    plumbing;
  Array.iter (fun id -> Array.blit pv (id * w) pv (prev + (id * w)) w) st_id;
  (* A source's reset value: its current-cycle slot before any cycle. *)
  let reset_src = function
    | Comp.From_const cst -> const_off cst
    | Comp.From_comp sid -> sid * w
  in
  (* Operand captures and stored words start out holding the reset
     value of their source (zero for everything except ports and input
     registers), so the accumulators start at "differs from zero". *)
  List.iter
    (fun (c, a) ->
      let o = Comp.id c * w in
      let sa = reset_src a.Comp.a_src_a in
      let sb = Option.fold ~none:sa ~some:reset_src a.Comp.a_src_b in
      for b = 0 to w - 1 do
        acc_a.(o + b) <- init_diff mode pv.(sa + b);
        acc_b.(o + b) <- init_diff mode pv.(sb + b)
      done)
    (Datapath.alus datapath);
  Array.iter
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
        let src = reset_src s.Comp.s_input in
        for b = 0 to w - 1 do
          acc_s.((id * w) + b) <- differ mode pv.(src + b) pv.((id * w) + b)
        done)
    storages;
  let cells = Array.make ((max_id + 1) * Activity.num_categories) 0. in
  let total = [| 0. |] in
  for cycle = 1 to iterations * t_steps do
    let sm = Schedule_model.step_at model ~cycle in
    let step = ((cycle - 1) mod t_steps) + 1 in
    let iter_idx = (cycle - 1) / t_steps in
    (* 1. Ports. *)
    let direct_fires = step = 1 && iter_idx > 0 in
    let registered_fires = step = t_steps && iter_idx + 1 < iterations in
    for k = 0 to Array.length ports - 1 do
      let port = ports.(k) in
      let fires =
        if port_registered.(k) then registered_fires else direct_fires
      in
      if fires then begin
        Array.blit trans 0 tv (port * w) w;
        charge cells total port cat_data e_port
      end
      else Array.fill tv (port * w) w 0.
    done;
    (* 2. Combinational propagation. *)
    for k = 0 to Array.length instrs - 1 do
      match instrs.(k) with
      | I_mux { mx_id = id; mx_choices } ->
          let src = mx_choices.(sm.Schedule_model.sel.(id)) in
          let o = id * w in
          let reselected =
            sm.Schedule_model.sel_changed.(id) || mux_first.(id)
          in
          mux_first.(id) <- false;
          if reselected then
            for b = 0 to w - 1 do
              tv.(o + b) <- differ mode pv.(o + b) pv.(src + b)
            done
          else Array.blit tv src tv o w;
          charge cells total id cat_mux_data (sum tv o w *. ept_mux_data);
          Array.blit pv src pv o w
      | I_alu
          {
            al_id = id;
            al_src_a = sa;
            al_src_b = sb;
            al_unary;
            al_isolated;
            al_int_ept;
          } ->
          let busy = sm.Schedule_model.busy.(id) in
          let o = id * w in
          for b = 0 to w - 1 do
            acc_a.(o + b) <- toggle_acc mode acc_a.(o + b) tv.(sa + b);
            acc_b.(o + b) <- toggle_acc mode acc_b.(o + b) tv.(sb + b)
          done;
          if al_isolated && not busy then begin
            (* Inputs frozen behind the isolation cells; charge the
               cells on the busy->idle edge.  Source toggles keep
               accumulating against the frozen captures. *)
            if busy_prev.(id) then
              charge cells total id cat_isolation (float_of_int w *. ept_iso);
            busy_prev.(id) <- false;
            Array.fill tv o w 0.
          end
          else begin
            let opch = sm.Schedule_model.op_changed.(id) in
            let eh =
              sum acc_a o w +. sum acc_b o w
              +. if opch then float_of_int w else 0.
            in
            charge cells total id cat_alu_internal (eh *. al_int_ept);
            let q =
              if opch then 1.
              else if al_unary then union_any acc_a o w
              else
                1.
                -. (1. -. union_any acc_a o w) *. (1. -. union_any acc_b o w)
            in
            let op =
              match sm.Schedule_model.op.(id) with
              | Some op -> op
              | None -> assert false
            in
            op_output mode op ~width:w pv sa sb pnew;
            for b = 0 to w - 1 do
              tv.(o + b) <- q *. differ mode pv.(o + b) pnew.(b);
              pv.(o + b) <- blend mode ~q ~held:pv.(o + b) ~fresh:pnew.(b)
            done;
            charge cells total id cat_data (sum tv o w *. ept_fu_out);
            if al_isolated && busy then
              charge cells total id cat_isolation (eh *. ept_iso);
            Array.fill acc_a o w 0.;
            Array.fill acc_b o w 0.;
            busy_prev.(id) <- busy
          end
    done;
    (* 3. Storage updates, ascending id. *)
    for k = 0 to n_stor - 1 do
      let id = st_id.(k) and src = st_src.(k) in
      let o = id * w in
      for b = 0 to w - 1 do
        acc_s.(o + b) <- toggle_acc mode acc_s.(o + b) tv.(src + b)
      done;
      if sm.Schedule_model.loads.(id) then begin
        let h = sum acc_s o w in
        charge cells total id cat_storage_write (h *. st_write_ept.(k));
        charge cells total id cat_data (h *. st_out_ept.(k));
        Array.blit acc_s o tv o w;
        Array.blit pv src pv o w;
        Array.fill acc_s o w 0.
      end
      else Array.fill tv o w 0.
    done;
    (* 4. Publish storage outputs for the next cycle's readers. *)
    for k = 0 to n_stor - 1 do
      let o = st_id.(k) * w in
      Array.blit tv o tv (prev + o) w;
      Array.blit pv o pv (prev + o) w
    done
  done;
  Activity.of_raw ~cells ~total:total.(0)
