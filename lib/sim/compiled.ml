(* Compiled simulation kernel.

   [Simulator.run] interprets the design every cycle: control words are
   re-diffed with list scans, the combinational pass re-dispatches on
   [Comp.kind], and every energy coefficient is recomputed from the
   technology library.  This module compiles [(tech, design)] once into
   dense arrays so the per-cycle path is branch-light and
   allocation-free:

   - control words become per-step *deltas*, read off
     [Schedule_model]'s two-period replay of the held controls: the
     mux-select and ALU-op writes that actually change state, plus the
     control-network energy of every line change, for the first period
     and for the steady state (the held-control state at the end of a
     period is a fixed point, so period 1 may differ but all later
     periods repeat).  The reference interprets the words itself, so
     the differential tests check this replay independently;
   - per-step load and busy lines are the replay's bitsets indexed by
     component id, replacing [List.mem] / [List.mem_assoc];
   - the combinational order becomes an instruction array with encoded
     integer sources and hoisted energy coefficients (ALU internal
     energy is a table indexed by Hamming distance);
   - datapath values are raw int payloads; transitions are counted
     with a same-module copy of [Bitvec.popcount] on xors, so the
     count inlines even where modules compile opaquely;
   - energy accumulates into a kernel-owned flat float array, charged
     by an inlined same-module function, and the running total is a
     local unboxed float of the cycle loop, so no charge boxes its
     float or round-trips through memory (see [charge]); the
     [Activity.t] is built once, when the run ends;
   - primary inputs are read from, and output taps written to, the
     run's int matrices (one row per computation, one column per
     variable), so no map is touched per cycle;
   - every per-cycle walk is an index loop: no closure is allocated.

   On top of the precompilation the kernel skips quiescent components:
   change *stamps* record the cycle at which a value, mux select, or
   ALU op last changed, and a combinational instruction is evaluated
   only when one of its inputs carries this cycle's stamp (storage
   writes stamp the *next* cycle, which is when readers see them).
   Sequential elements are walked through a per-(step, phase) active
   list — a phase-divided partition's storages are touched only during
   their duty cycle (gated or loading storages are always active).

   Which instructions can see a current stamp is itself a static fact
   of the schedule once the controls settle: after the first period,
   every cycle of step [s] replays the same select and function
   changes, busy lines and load lines.  [compile] therefore lists, per
   steady step, the instructions that can act — a select or function
   change, an isolated ALU's busy edge, or an operand that can carry
   this cycle's stamp (a port applied at [s], a storage loaded at the
   step before, an instruction listed earlier) — and later cycles walk
   only that list, with every stamp check kept.  The first period
   scans every instruction: cycle 1 evaluates everything from reset,
   and its held controls are the transient [first_ctrl] ones.  The
   instructions of a partition that is idle at a step are then not
   visited at all.
   Skipping is sound for energy because a skipped evaluation would have
   found a zero Hamming distance, and zero charges are dropped by
   [charge] here and by [Activity.add] in the reference; the emitted
   charge sequence — and therefore every float accumulation — is
   identical to the reference interpreter's, which is what the
   differential tests pin down. *)

open Mclock_dfg
open Mclock_rtl
module B = Mclock_util.Bitvec
module L = Mclock_tech.Library

(* Integer-coded ALU functions over raw payloads; semantics mirror
   [Op.eval] composed with [Bitvec] exactly (wrapping arithmetic,
   x/0 = all-ones, shift counts masked to 3 bits, 1/0 comparisons). *)
let op_code : Op.t -> int = function
  | Op.Add -> 0
  | Op.Sub -> 1
  | Op.Mul -> 2
  | Op.Div -> 3
  | Op.And -> 4
  | Op.Or -> 5
  | Op.Xor -> 6
  | Op.Not -> 7
  | Op.Shl -> 8
  | Op.Shr -> 9
  | Op.Gt -> 10
  | Op.Lt -> 11
  | Op.Eq -> 12

let eval_code code a b mask =
  match code with
  | 0 -> (a + b) land mask
  | 1 -> (a - b) land mask
  | 2 -> (a * b) land mask
  | 3 -> if b = 0 then mask else a / b
  | 4 -> a land b
  | 5 -> a lor b
  | 6 -> a lxor b
  | 7 -> lnot a land mask
  | 8 -> (a lsl (b land 7)) land mask
  | 9 -> a lsr (b land 7)
  | 10 -> if a > b then 1 else 0
  | 11 -> if a < b then 1 else 0
  | 12 -> if a = b then 1 else 0
  | _ -> assert false

(* Sources are encoded in one int: a component id ([>= 0], read from
   the value array) or a constant ([< 0], the masked value flipped
   below zero).  Constants never carry a change stamp. *)
let encode_src mask = function
  | Comp.From_comp id -> id
  | Comp.From_const c -> -1 - (c land mask)

let[@inline] src_val values s = if s >= 0 then values.(s) else -1 - s

(* Whether encoded source [src] is a component marked with [s]. *)
let[@inline] marked marks s src = src >= 0 && marks.(src) = s

type step_ctrl = {
  sc_sel : (int * int) array; (* (mux, select) writes that change state *)
  sc_ops : (int * int) array; (* (alu, op code) writes that change state *)
  sc_ctrl_e : float; (* control-network energy of this step's changes *)
}

type instr =
  | I_mux of { mx_id : int; mx_choices : int array }
  | I_alu of {
      al_id : int;
      al_src_a : int;
      al_src_b : int; (* = al_src_a for unary ALUs *)
      al_isolated : bool;
      al_energy : float array; (* internal energy by Hamming distance *)
    }

type stor = {
  st_id : int;
  st_input : int;
  st_gated : bool;
  st_phase : int;
  st_clk2 : float; (* free-running clock energy per cycle *)
  st_pin2 : float; (* gated clock-pin energy per load *)
  st_wr_e : float; (* write energy per flipped bit *)
  st_out_e : float; (* output-net energy per flipped bit *)
}

type t = {
  clock : Clock.t;
  width : int;
  mask : int;
  t_steps : int;
  max_id : int;
  comps : Comp.t list; (* for VCD signal registration *)
  graph_inputs : (Var.t * int) list;
  input_vars : Var.t array; (* input matrix columns *)
  output_vars : Var.t array; (* output matrix columns *)
  (* (input column, port) pairs: direct ports update at step 1,
     register-backed ones at the final step. *)
  direct_ports : (int * int) array;
  reg_ports : (int * int) array;
  reset : (int * int * int) array; (* (column, port, register id | -1) *)
  first_ctrl : step_ctrl array; (* by step - 1; cycles 1..t_steps *)
  steady_ctrl : step_ctrl array; (* by step - 1; all later cycles *)
  loads_at : bool array array; (* by step - 1: id -> load line high *)
  busy_at : bool array array; (* by step - 1: id -> ALU scheduled *)
  reset_ops : int array; (* id -> ALU function code at reset *)
  instrs : instr array; (* combinational order *)
  walk_all : int array; (* every instruction index: the first period *)
  walk_at : int array array; (* by step - 1: instructions that can act *)
  stors_at : stor array array array; (* step -> phase -> active storages *)
  taps_at : (int * int) array array; (* step -> (column, source) ready *)
  e_port : float;
  e_mux_data : float;
  e_mux_sel : float;
  e_fu_out : float;
  e_iso : float;
  e_iso_idle : float; (* full-width isolation charge on busy->idle *)
  e_tree2 : float;
  e_gate : float;
}

let compile tech design =
  Mclock_obs.Obs.with_span ~cat:"sim" ~name:"sim.compile"
    ~attrs:[ ("design", Design.name design) ]
  @@ fun () ->
  let datapath = Design.datapath design in
  let clock = Design.clock design in
  let width = Datapath.width datapath in
  let mask = (1 lsl width) - 1 in
  let model = Schedule_model.build design in
  let t_steps = model.t_steps and max_id = model.max_id in
  let ept cap = L.energy_per_transition tech cap in
  let e_ctrl = ept tech.L.control_line_cap in
  let encode = encode_src mask in
  (* Mux arities, for validating control words at compile time. *)
  let n_choices = Array.make (max_id + 1) (-1) in
  List.iter
    (fun (c, m) ->
      n_choices.(Comp.id c) <- Array.length m.Comp.m_choices)
    (Datapath.muxes datapath);
  (* Control deltas, read off the held-control replay: the select and
     function writes that change a line, in ascending id order, and the
     control-network energy of every line change (load edges
     included). *)
  let deltas (period : Schedule_model.step array) =
    Array.mapi
      (fun i (s : Schedule_model.step) ->
        let sels = ref [] and ops = ref [] in
        for id = max_id downto 0 do
          if s.sel_changed.(id) then begin
            let idx = s.sel.(id) in
            if n_choices.(id) >= 0 && (idx < 0 || idx >= n_choices.(id)) then
              invalid_arg
                (Printf.sprintf
                   "Compiled.compile: step %d selects choice %d on mux %d (%d \
                    choices)"
                   (i + 1) idx id n_choices.(id));
            sels := (id, idx) :: !sels
          end;
          match s.op.(id) with
          | Some op when s.op_changed.(id) -> ops := (id, op_code op) :: !ops
          | Some _ | None -> ()
        done;
        {
          sc_sel = Array.of_list !sels;
          sc_ops = Array.of_list !ops;
          sc_ctrl_e = float_of_int s.control_changes *. e_ctrl;
        })
      period
  in
  let first_ctrl = deltas model.first in
  let steady_ctrl = deltas model.steady in
  let loads_at = Array.map (fun s -> s.Schedule_model.loads) model.steady in
  let busy_at = Array.map (fun s -> s.Schedule_model.busy) model.steady in
  (* Combinational instruction stream. *)
  let instrs =
    Array.of_list
      (List.map
         (fun c ->
           let id = Comp.id c in
           match Comp.kind c with
           | Comp.Mux m ->
               I_mux { mx_id = id; mx_choices = Array.map encode m.Comp.m_choices }
           | Comp.Alu a ->
               let c_int = L.alu_internal_cap tech ~width a.Comp.a_fset in
               let energy =
                 Array.init
                   ((3 * width) + 1)
                   (fun h ->
                     ept (c_int *. (float_of_int h /. float_of_int (2 * width))))
               in
               I_alu
                 {
                   al_id = id;
                   al_src_a = encode a.Comp.a_src_a;
                   al_src_b =
                     (match a.Comp.a_src_b with
                     | Some s -> encode s
                     | None -> encode a.Comp.a_src_a);
                   al_isolated = a.Comp.a_isolated;
                   al_energy = energy;
                 }
           | Comp.Input _ | Comp.Storage _ -> assert false)
         (Datapath.combinational_order datapath))
  in
  (* Storage records and the (step, phase) active matrix: a storage is
     touched in a cycle iff it is gated (tree toggles every cycle), its
     partition is on duty (free-running clock), or it loads this step
     (write path).  Order within a list is ascending id, matching the
     reference's walk over [Datapath.storages]. *)
  let stor_list =
    List.map
      (fun (c, s) ->
        let kind = s.Comp.s_kind in
        let params = L.storage_params tech kind in
        {
          st_id = Comp.id c;
          st_input = encode s.Comp.s_input;
          st_gated = s.Comp.s_gated;
          st_phase = s.Comp.s_phase;
          st_clk2 = 2. *. ept (L.storage_clock_cap tech kind ~width);
          st_pin2 = 2. *. ept (L.storage_clock_pin_cap tech kind ~width);
          st_wr_e = ept params.L.internal_cap_per_bit;
          st_out_e = ept params.L.output_cap_per_bit;
        })
      (Datapath.storages datapath)
  in
  let phases = Clock.phases clock in
  let stors_at = Array.make (t_steps + 1) [||] in
  for step = 1 to t_steps do
    let row = Array.make (phases + 1) [||] in
    for phase = 1 to phases do
      row.(phase) <-
        Array.of_list
          (List.filter_map
             (fun st ->
               if
                 st.st_gated || st.st_phase = phase
                 || loads_at.(step - 1).(st.st_id)
               then Some st
               else None)
             stor_list)
    done;
    stors_at.(step) <- row
  done;
  (* Input plumbing and output taps, as in the reference. *)
  let graph_inputs = Design.input_ports design in
  let reset =
    Array.of_list
      (List.map
         (fun (col, port, reg) -> (col, port, Option.value reg ~default:(-1)))
         (Schedule_model.input_plumbing design))
  in
  let ports registered =
    Array.of_list
      (List.filter_map
         (fun (col, port, reg) ->
           if (reg >= 0) = registered then Some (col, port) else None)
         (Array.to_list reset))
  in
  let direct_ports = ports false and reg_ports = ports true in
  (* Steady-state walk lists.  After the first period every cycle of
     step [s] replays the same controls, so which instructions can see
     a current stamp is a static fact of the schedule: one whose
     select or function changes at [s], an isolated ALU whose busy
     line changes (it charges the edge and its [alu_busy_prev] must
     follow; a plain ALU's is set when a range ends, see
     [exec_range]), or one with an operand that can carry this
     cycle's stamp — a port applied at [s], a storage loaded at the
     step before, or an instruction earlier in the list.
     [stamped.(id) = s] marks the values that can change at step [s];
     one pass in combinational order per step builds the list, in
     O(instructions + storages + ports). *)
  let n_instrs = Array.length instrs in
  let stor_ids = Array.of_list (List.map (fun st -> st.st_id) stor_list) in
  let stamped = Array.make (max_id + 1) 0 in
  let buf = Array.make n_instrs 0 in
  let walk_at =
    Array.init t_steps (fun i ->
        let s = i + 1 and at = model.steady.(i) in
        let prev = model.steady.((i + t_steps - 1) mod t_steps) in
        if s = 1 then
          for j = 0 to Array.length direct_ports - 1 do
            stamped.(snd direct_ports.(j)) <- s
          done;
        if s = t_steps then
          for j = 0 to Array.length reg_ports - 1 do
            stamped.(snd reg_ports.(j)) <- s
          done;
        for j = 0 to Array.length stor_ids - 1 do
          let id = stor_ids.(j) in
          if prev.loads.(id) then stamped.(id) <- s
        done;
        let n = ref 0 in
        for idx = 0 to n_instrs - 1 do
          match instrs.(idx) with
          | I_mux { mx_id = id; mx_choices } ->
              let sel = at.sel.(id) in
              if
                at.sel_changed.(id) || sel < 0
                || sel >= Array.length mx_choices
                || marked stamped s mx_choices.(sel)
              then begin
                buf.(!n) <- idx;
                incr n;
                stamped.(id) <- s
              end
          | I_alu a ->
              let id = a.al_id in
              (* An isolated ALU off duty evaluates nothing and holds
                 its output; it acts on its busy edges alone. *)
              let on = at.busy.(id) || not a.al_isolated in
              if
                (a.al_isolated && at.busy.(id) <> prev.busy.(id))
                || on
                   && (at.op_changed.(id)
                      || marked stamped s a.al_src_a
                      || marked stamped s a.al_src_b)
              then begin
                buf.(!n) <- idx;
                incr n;
                if on then stamped.(id) <- s
              end
        done;
        Array.sub buf 0 !n)
  in
  let output_vars = Simulator.output_columns design in
  let taps_at =
    Array.init (t_steps + 1) (fun step ->
        Array.of_list
          (List.filter_map
             (fun tap ->
               if tap.Design.ready_step = step then
                 Some
                   ( Simulator.column output_vars tap.Design.var,
                     encode tap.Design.source )
               else None)
             (Design.output_taps design)))
  in
  {
    clock;
    width;
    mask;
    t_steps;
    max_id;
    comps = Datapath.comps datapath;
    graph_inputs;
    input_vars = Simulator.input_columns design;
    output_vars;
    direct_ports;
    reg_ports;
    reset;
    first_ctrl;
    steady_ctrl;
    loads_at;
    busy_at;
    reset_ops =
      Array.map (function Some op -> op_code op | None -> 0) model.reset_op;
    instrs;
    walk_all = Array.init n_instrs Fun.id;
    walk_at;
    stors_at;
    taps_at;
    e_port = ept tech.L.register.L.output_cap_per_bit;
    e_mux_data = ept tech.L.mux.L.data_cap_per_bit;
    e_mux_sel = ept tech.L.mux.L.select_cap;
    e_fu_out = ept tech.L.fu_output_cap_per_bit;
    e_iso = ept tech.L.isolation_cap_per_bit;
    e_iso_idle = float_of_int width *. ept tech.L.isolation_cap_per_bit;
    e_tree2 = 2. *. ept tech.L.clock_tree_cap_per_sink;
    e_gate = ept tech.L.gating_cell_cap;
  }

(* The complete mutable run state, factored out so a prefix run can be
   snapshotted and resumed.  [Simulator.result]-visible accumulations
   (activity, the output matrix) live here next to the kernel-internal
   arrays; everything is deep-copied by [copy_state], so a checkpoint
   is independent of the run that produced it. *)
type rstate = {
  s_values : int array;
  s_val_stamp : int array;
  s_ctrl_stamp : int array;
  s_op_stamp : int array;
  s_mux_sel : int array;
  s_alu_op : int array;
  s_alu_in_a : int array;
  s_alu_in_b : int array;
  s_alu_busy_prev : bool array;
  s_load_prev : bool array;
  s_cells : float array; (* comp * Activity.num_categories + category -> pJ *)
  s_total : float array; (* one slot: the running total *)
  mutable s_outputs : int array array; (* one row per computation *)
}

(* A checkpoint after [ck_iterations] computations.  The state is the
   one *one cycle before* the run's last ([ck_iterations * t_steps]):
   that last cycle is the only one whose effect depends on whether the
   run continues (a longer run applies the next computation's inputs
   to register-backed ports during it), so [resume] re-executes it
   with the extension-aware behavior while the prefix run executed it
   in final-cycle form for its own result.  Everything else — values,
   stamps, the activity accumulator, the output rows (the last one
   still missing its final-step taps), the RNG position after drawing
   the prefix stimulus — transfers verbatim. *)
type checkpoint = {
  ck_width : int;
  ck_t_steps : int;
  ck_n : int; (* component array length, for shape validation *)
  ck_n_in : int; (* input matrix columns *)
  ck_n_out : int; (* output matrix columns *)
  ck_seed : int;
  ck_iterations : int;
  ck_stimulus : bool; (* prefix ran on a user-supplied stimulus *)
  ck_rng : int64; (* RNG state after drawing the prefix inputs *)
  ck_inputs : int array array; (* the prefix's input rows *)
  ck_state : rstate;
}

let checkpoint_iterations ck = ck.ck_iterations

let output_rows k n =
  Array.make_matrix n (Array.length k.output_vars) Simulator.unobserved

let fresh_state k ~iterations row0 =
  let n = k.max_id + 1 in
  let st =
    {
      s_values = Array.make n 0;
      (* Change stamps: cycle at which a value / mux select / ALU
         function last changed.  Cycle 1 forces a full evaluation
         (reset values are not consistent with the netlist);
         afterwards an instruction whose inputs carry no current stamp
         would compute a zero Hamming distance, so skipping it drops
         only zero charges. *)
      s_val_stamp = Array.make n 0;
      s_ctrl_stamp = Array.make n 0;
      s_op_stamp = Array.make n 0;
      s_mux_sel = Array.make n 0;
      s_alu_op = Array.copy k.reset_ops;
      s_alu_in_a = Array.make n 0;
      s_alu_in_b = Array.make n 0;
      s_alu_busy_prev = Array.make n false;
      s_load_prev = Array.make n false;
      s_cells = Array.make (n * Activity.num_categories) 0.;
      s_total = [| 0. |];
      s_outputs = output_rows k iterations;
    }
  in
  (* Reset: ports and input registers preloaded with the first
     computation's values (no energy charged). *)
  Array.iter
    (fun (col, port, reg) ->
      let v0 = row0.(col) in
      st.s_values.(port) <- v0;
      if reg >= 0 then st.s_values.(reg) <- v0)
    k.reset;
  st

let copy_state st =
  {
    s_values = Array.copy st.s_values;
    s_val_stamp = Array.copy st.s_val_stamp;
    s_ctrl_stamp = Array.copy st.s_ctrl_stamp;
    s_op_stamp = Array.copy st.s_op_stamp;
    s_mux_sel = Array.copy st.s_mux_sel;
    s_alu_op = Array.copy st.s_alu_op;
    s_alu_in_a = Array.copy st.s_alu_in_a;
    s_alu_in_b = Array.copy st.s_alu_in_b;
    s_alu_busy_prev = Array.copy st.s_alu_busy_prev;
    s_load_prev = Array.copy st.s_load_prev;
    s_cells = Array.copy st.s_cells;
    s_total = Array.copy st.s_total;
    s_outputs = Array.map Array.copy st.s_outputs;
  }

(* Trace signals are looked up before registering so a resumed run can
   keep sampling into the dump its prefix started (the header freezes
   on the first sample). *)
let setup_signals k trace =
  match trace with
  | None -> []
  | Some { Simulator.vcd; _ } ->
      List.map
        (fun c ->
          let name = Printf.sprintf "%s_c%d" (Comp.name c) (Comp.id c) in
          ( Comp.id c,
            match Vcd.lookup vcd ~name with
            | Some s -> s
            | None -> Vcd.register vcd ~name ~width:k.width ))
        k.comps

(* The kernel's energy accumulator is its own: [cells] is the flat
   array {!Activity.of_raw} takes ([comp * num_categories + category]),
   and the running total is a local float of [exec_range], threaded
   through [charge] and stored in the state's one-slot [s_total] when
   the range ends (a mutable float field in a mixed record, or the
   slot itself, would be a memory round trip or a box on every
   charge).  Inlined from this module, a charge is unboxed float
   arithmetic and one array store; [Activity.add] is an opaque call
   under separate compilation and boxes its argument.  The semantics
   are [Activity.add]'s: zero charges are dropped, the cell is updated
   before the total, so every float accumulation matches the reference
   kernel's bit for bit. *)
let[@inline] charge cells comp cat pj total =
  if pj <> 0. then begin
    let i = (comp * Activity.num_categories) + cat in
    cells.(i) <- cells.(i) +. pj;
    total +. pj
  end
  else total

(* [Bitvec.popcount], restated so it inlines into the hot loop: a build
   that compiles modules opaquely makes every cross-module call a real
   call, and this one runs several times per instruction. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let cat_clock = Activity.category_index Activity.Clock
let cat_storage_write = Activity.category_index Activity.Storage_write
let cat_data = Activity.category_index Activity.Data
let cat_alu_internal = Activity.category_index Activity.Alu_internal
let cat_mux_data = Activity.category_index Activity.Mux_data
let cat_mux_select = Activity.category_index Activity.Mux_select
let cat_control = Activity.category_index Activity.Control
let cat_isolation = Activity.category_index Activity.Isolation
let cat_gating = Activity.category_index Activity.Gating

(* Fresh input values onto [ports]; returns the updated total. *)
let[@inline] apply_ports k values val_stamp cells ~cycle row ports total =
  let total = ref total in
  for i = 0 to Array.length ports - 1 do
    let col, port = ports.(i) in
    let fresh = row.(col) in
    let h = popcount (values.(port) lxor fresh) in
    if h > 0 then begin
      total := charge cells port cat_data (float_of_int h *. k.e_port) !total;
      values.(port) <- fresh;
      val_stamp.(port) <- cycle
    end
  done;
  !total

(* Execute cycles [from_cycle .. to_cycle] of a run totalling
   [iterations] computations.  The body is the hot path; all state
   arrays are re-bound to locals once per range, and every walk is an
   index loop so a cycle allocates nothing.  The first period scans
   every instruction (cycle 1 evaluates everything from reset, and the
   held controls only settle into the steady replay at its end); every
   later cycle walks its step's [walk_at] list.  Both walks keep every
   stamp check, so a listed instruction whose operands did not change
   is still skipped, and the charge sequence is the full scan's. *)
let exec_range k st ~ins ~iterations ?trace ?observer ~vcd_signals
    ~from_cycle ~to_cycle () =
  let width = k.width in
  let values = st.s_values in
  let val_stamp = st.s_val_stamp in
  let ctrl_stamp = st.s_ctrl_stamp in
  let op_stamp = st.s_op_stamp in
  let mux_sel = st.s_mux_sel in
  let alu_op = st.s_alu_op in
  let alu_in_a = st.s_alu_in_a in
  let alu_in_b = st.s_alu_in_b in
  let alu_busy_prev = st.s_alu_busy_prev in
  let load_prev = st.s_load_prev in
  let cells = st.s_cells in
  let total = ref st.s_total.(0) in
  let outs = st.s_outputs in
  let instrs = k.instrs in
  let record_trace cycle =
    match trace with
    | Some { Simulator.vcd; max_cycles } when cycle <= max_cycles ->
        Vcd.sample vcd ~time:cycle
          (List.map
             (fun (id, s) -> (s, B.create ~width values.(id)))
             vcd_signals)
    | Some _ | None -> ()
  in
  (* Step, computation and phase advance by counting, not dividing. *)
  let phases = Clock.phases k.clock in
  let next_step = ref (((from_cycle - 1) mod k.t_steps) + 1) in
  let next_iter = ref ((from_cycle - 1) / k.t_steps) in
  let next_phase = ref (Clock.phase_of_cycle k.clock from_cycle) in
  for cycle = from_cycle to to_cycle do
    let step = !next_step and iter_idx = !next_iter and phase = !next_phase in
    if step = k.t_steps then begin
      next_step := 1;
      incr next_iter
    end
    else incr next_step;
    next_phase := if phase = phases then 1 else phase + 1;
    let first_eval = cycle = 1 in
    let first_period = cycle <= k.t_steps in
    (* 1. Fresh inputs. *)
    if step = 1 && iter_idx > 0 then
      total :=
        apply_ports k values val_stamp cells ~cycle ins.(iter_idx)
          k.direct_ports !total;
    if step = k.t_steps && iter_idx + 1 < iterations then
      total :=
        apply_ports k values val_stamp cells ~cycle
          ins.(iter_idx + 1)
          k.reg_ports !total;
    (* 2. Control deltas. *)
    let sc = (if first_period then k.first_ctrl else k.steady_ctrl).(step - 1) in
    for i = 0 to Array.length sc.sc_sel - 1 do
      let mux_id, idx = sc.sc_sel.(i) in
      mux_sel.(mux_id) <- idx;
      ctrl_stamp.(mux_id) <- cycle;
      total := charge cells mux_id cat_mux_select k.e_mux_sel !total
    done;
    for i = 0 to Array.length sc.sc_ops - 1 do
      let alu_id, code = sc.sc_ops.(i) in
      alu_op.(alu_id) <- code;
      op_stamp.(alu_id) <- cycle
    done;
    total :=
      charge cells Activity.global_component cat_control sc.sc_ctrl_e !total;
    let loads = k.loads_at.(step - 1) in
    let busy = k.busy_at.(step - 1) in
    (* 3. Combinational propagation over the instructions that can act
       this step (skipping quiescent ones). *)
    let walk = if first_period then k.walk_all else k.walk_at.(step - 1) in
    for w = 0 to Array.length walk - 1 do
      match instrs.(walk.(w)) with
      | I_mux { mx_id = id; mx_choices } ->
          let src = mx_choices.(mux_sel.(id)) in
          if
            first_eval || ctrl_stamp.(id) = cycle
            || (src >= 0 && val_stamp.(src) = cycle)
          then begin
            let v = src_val values src in
            let h = popcount (values.(id) lxor v) in
            if h > 0 then begin
              total :=
                charge cells id cat_mux_data
                  (float_of_int h *. k.e_mux_data)
                  !total;
              values.(id) <- v;
              val_stamp.(id) <- cycle
            end
          end
      | I_alu a ->
          let id = a.al_id in
          let is_busy = busy.(id) in
          if a.al_isolated && not is_busy then begin
            if alu_busy_prev.(id) then
              total := charge cells id cat_isolation k.e_iso_idle !total;
            alu_busy_prev.(id) <- false
          end
          else begin
            let dirty =
              first_eval || op_stamp.(id) = cycle
              || (a.al_src_a >= 0 && val_stamp.(a.al_src_a) = cycle)
              || (a.al_src_b >= 0 && val_stamp.(a.al_src_b) = cycle)
              || (a.al_isolated && not alu_busy_prev.(id))
            in
            if dirty then begin
              let a_new = src_val values a.al_src_a in
              let b_new = src_val values a.al_src_b in
              let h =
                popcount (alu_in_a.(id) lxor a_new)
                + popcount (alu_in_b.(id) lxor b_new)
                + if op_stamp.(id) = cycle then width else 0
              in
              if h > 0 then begin
                total :=
                  charge cells id cat_alu_internal a.al_energy.(h) !total;
                let out = eval_code alu_op.(id) a_new b_new k.mask in
                let ho = popcount (values.(id) lxor out) in
                total :=
                  charge cells id cat_data
                    (float_of_int ho *. k.e_fu_out)
                    !total;
                if ho > 0 then begin
                  values.(id) <- out;
                  val_stamp.(id) <- cycle
                end;
                alu_in_a.(id) <- a_new;
                alu_in_b.(id) <- b_new
              end;
              if a.al_isolated && is_busy then
                total :=
                  charge cells id cat_isolation
                    (float_of_int h *. k.e_iso)
                    !total
            end;
            alu_busy_prev.(id) <- is_busy
          end
    done;
    (* 4. Sequential update over this (step, phase)'s active list. *)
    let stors = k.stors_at.(step).(phase) in
    for i = 0 to Array.length stors - 1 do
      let st = stors.(i) in
      let id = st.st_id in
      let loading = loads.(id) in
      if st.st_gated then begin
        total := charge cells id cat_clock k.e_tree2 !total;
        if loading then total := charge cells id cat_clock st.st_pin2 !total
      end
      else if phase = st.st_phase then
        total := charge cells id cat_clock st.st_clk2 !total;
      if st.st_gated && loading <> load_prev.(id) then
        total := charge cells id cat_gating k.e_gate !total;
      load_prev.(id) <- loading;
      if loading then begin
        let v = src_val values st.st_input in
        let h = popcount (values.(id) lxor v) in
        if h > 0 then begin
          total :=
            charge cells id cat_storage_write
              (float_of_int h *. st.st_wr_e)
              !total;
          total :=
            charge cells id cat_data (float_of_int h *. st.st_out_e) !total;
          values.(id) <- v;
          (* Readers see the write from the next cycle on. *)
          val_stamp.(id) <- cycle + 1
        end
      end
    done;
    record_trace cycle;
    (match observer with
    | None -> ()
    | Some f ->
        f
          {
            Simulator.obs_cycle = cycle;
            obs_step = step;
            obs_phase = phase;
            obs_value = (fun id -> B.create ~width values.(id));
          });
    (* 5. Output taps, straight into the computation's row. *)
    let row = outs.(iter_idx) in
    let taps = k.taps_at.(step) in
    for i = 0 to Array.length taps - 1 do
      let col, src = taps.(i) in
      row.(col) <- src_val values src land k.mask
    done
  done;
  st.s_total.(0) <- !total;
  (* Only isolated ALUs read [alu_busy_prev], so the steady walk skips
     the busy edges of the others.  A full scan leaves every ALU's busy
     line of the range's last step there; so does this. *)
  if to_cycle >= from_cycle then begin
    let busy = k.busy_at.((to_cycle - 1) mod k.t_steps) in
    Array.iter
      (function
        | I_alu a when not a.al_isolated ->
            alu_busy_prev.(a.al_id) <- busy.(a.al_id)
        | I_alu _ | I_mux _ -> ())
      instrs
  end

let finish k st ~iterations ~ins =
  let total_cycles = iterations * k.t_steps in
  let energy_pj = st.s_total.(0) in
  let sim_time_s = float_of_int total_cycles *. Clock.period k.clock in
  let power_mw = energy_pj *. 1e-12 /. sim_time_s *. 1e3 in
  {
    Simulator.cycles = total_cycles;
    iterations;
    sim_time_s;
    energy_pj;
    power_mw;
    activity = Activity.of_raw ~cells:st.s_cells ~total:energy_pj;
    input_vars = k.input_vars;
    output_vars = k.output_vars;
    inputs = ins;
    outputs = st.s_outputs;
  }

let materialize ?stimulus k rng ~iterations =
  Simulator.materialize_stimulus ?stimulus rng ~inputs:k.graph_inputs
    ~width:k.width ~iterations

(* The one simulation driver behind [run], [run_with_checkpoint] and
   [resume], and the only [sim.run] span.  [start ()] draws the stimulus
   and returns it with the state to continue from, the first cycle to
   execute and, to checkpoint, how to build one from a copy of the
   state at the boundary.

   The boundary sits one cycle before the end of the run: cycle
   [iterations * t_steps] is the only cycle a longer run executes
   differently (it applies the next computation's inputs to
   register-backed ports), so the snapshot is taken before it and
   [resume] re-executes it in extension form.  The charge sequence, and
   with it every float accumulation, output row and VCD sample, is then
   exactly the uninterrupted run's, which the differential suite pins
   down.  So a checkpointing run traces and observes cycles up to
   [boundary - 1] only; its result still covers all its cycles. *)
let simulate ?trace ?observer ~attrs k ~iterations start =
  Mclock_obs.Obs.with_span ~cat:"sim" ~name:"sim.run"
    ~attrs:(("iterations", string_of_int iterations) :: attrs)
  @@ fun () ->
  let ins, st, from_cycle, snapshot = start () in
  let boundary = iterations * k.t_steps in
  let vcd_signals = setup_signals k trace in
  exec_range k st ~ins ~iterations ?trace ?observer ~vcd_signals ~from_cycle
    ~to_cycle:(boundary - 1) ();
  let ck = Option.map (fun make -> make (copy_state st)) snapshot in
  let trace, observer, vcd_signals =
    if Option.is_none ck then (trace, observer, vcd_signals) else (None, None, [])
  in
  exec_range k st ~ins ~iterations ?trace ?observer ~vcd_signals
    ~from_cycle:boundary ~to_cycle:boundary ();
  (finish k st ~iterations ~ins, ck)

(* A run from reset, with a checkpoint at its boundary when asked. *)
let from_reset ~checkpoint ?(seed = 42) ?trace ?observer ?stimulus k ~iterations =
  if iterations < 1 then invalid_arg "Simulator.run: iterations must be >= 1";
  simulate ?trace ?observer k ~iterations
    ~attrs:(if checkpoint then [ ("checkpoint", "true") ] else [])
  @@ fun () ->
  let rng = Mclock_util.Rng.create seed in
  let ins = materialize ?stimulus k rng ~iterations in
  let rng_after = Mclock_util.Rng.state rng in
  let snapshot ck_state =
    {
      ck_width = k.width;
      ck_t_steps = k.t_steps;
      ck_n = k.max_id + 1;
      ck_n_in = Array.length k.input_vars;
      ck_n_out = Array.length k.output_vars;
      ck_seed = seed;
      ck_iterations = iterations;
      ck_stimulus = stimulus <> None;
      ck_rng = rng_after;
      ck_inputs = ins;
      ck_state;
    }
  in
  (ins, fresh_state k ~iterations ins.(0), 1, if checkpoint then Some snapshot else None)

let run ?seed ?trace ?observer ?stimulus k ~iterations =
  fst (from_reset ~checkpoint:false ?seed ?trace ?observer ?stimulus k ~iterations)

let with_checkpoint (result, ck) = (result, Option.get ck)

let run_with_checkpoint ?seed ?trace ?observer ?stimulus k ~iterations =
  with_checkpoint
    (from_reset ~checkpoint:true ?seed ?trace ?observer ?stimulus k ~iterations)

let resume ?trace ?observer ?stimulus k ck ~iterations =
  if ck.ck_width <> k.width || ck.ck_t_steps <> k.t_steps
     || ck.ck_n <> k.max_id + 1
     || ck.ck_n_in <> Array.length k.input_vars
     || ck.ck_n_out <> Array.length k.output_vars
  then invalid_arg "Compiled.resume: checkpoint does not match this kernel";
  if iterations <= ck.ck_iterations then
    invalid_arg "Compiled.resume: iterations must exceed the checkpoint's";
  let k1 = ck.ck_iterations in
  with_checkpoint
  @@ simulate ?trace ?observer k ~iterations
       ~attrs:[ ("checkpoint", "true"); ("resumed_from", string_of_int k1) ]
  @@ fun () ->
  let ins, rng_after =
    match stimulus with
    | Some _ ->
        (* The prefix's stimulus must be the prefix of this one, or the
           checkpointed state is for a different input stream. *)
        let all =
          materialize ?stimulus k
            (Mclock_util.Rng.create ck.ck_seed)
            ~iterations
        in
        for i = 0 to k1 - 1 do
          if all.(i) <> ck.ck_inputs.(i) then
            invalid_arg
              "Compiled.resume: stimulus prefix differs from the \
               checkpointed run's inputs"
        done;
        (all, ck.ck_rng)
    | None ->
        if ck.ck_stimulus then
          invalid_arg
            "Compiled.resume: the checkpointed run used an explicit \
             stimulus; pass ~stimulus covering the combined run";
        let rng = Mclock_util.Rng.of_state ck.ck_rng in
        let extra = materialize k rng ~iterations:(iterations - k1) in
        (Array.append ck.ck_inputs extra, Mclock_util.Rng.state rng)
  in
  let st = copy_state ck.ck_state in
  st.s_outputs <- Array.append st.s_outputs (output_rows k (iterations - k1));
  let snapshot ck_state =
    {
      ck with
      ck_iterations = iterations;
      ck_stimulus = ck.ck_stimulus || stimulus <> None;
      ck_rng = rng_after;
      ck_inputs = ins;
      ck_state;
    }
  in
  (ins, st, k1 * k.t_steps, Some snapshot)

(* --- Checkpoint serialization ------------------------------------------ *)

module Checkpoint = struct
  module Binio = Mclock_util.Binio

  (* Bump on any layout change: version skew degrades to a decode
     error, which cache consumers treat as a miss.  v2 carries the
     prefix stimulus and the recorded outputs as int matrices (v1 held
     named envs). *)
  let magic = "MCLOCK-CKPT-v2\n"

  let write_matrix w m =
    Binio.W.int w (Array.length m);
    Array.iter (Binio.W.int_array w) m

  (* Rows are read one by one (never pre-allocated from the declared
     count), so a lying count runs out of bytes instead of memory. *)
  let read_matrix r ~cols =
    let n = Binio.R.int r in
    let rec go i acc =
      if i = n then Array.of_list (List.rev acc)
      else
        let row = Binio.R.int_array r in
        if Array.length row <> cols then
          raise (Binio.Corrupt "checkpoint: bad matrix row length");
        go (i + 1) (row :: acc)
    in
    if n < 0 then raise (Binio.Corrupt "checkpoint: negative row count");
    go 0 []

  let encode ck =
    Mclock_obs.Obs.with_span ~cat:"sim" ~name:"sim.ckpt_encode"
      ~attrs:[ ("iterations", string_of_int ck.ck_iterations) ]
    @@ fun () ->
    let w = Binio.W.create () in
    Binio.W.int w ck.ck_width;
    Binio.W.int w ck.ck_t_steps;
    Binio.W.int w ck.ck_n;
    Binio.W.int w ck.ck_n_in;
    Binio.W.int w ck.ck_n_out;
    Binio.W.int w ck.ck_seed;
    Binio.W.int w ck.ck_iterations;
    Binio.W.bool w ck.ck_stimulus;
    Binio.W.i64 w ck.ck_rng;
    write_matrix w ck.ck_inputs;
    let st = ck.ck_state in
    Binio.W.int_array w st.s_values;
    Binio.W.int_array w st.s_val_stamp;
    Binio.W.int_array w st.s_ctrl_stamp;
    Binio.W.int_array w st.s_op_stamp;
    Binio.W.int_array w st.s_mux_sel;
    Binio.W.int_array w st.s_alu_op;
    Binio.W.int_array w st.s_alu_in_a;
    Binio.W.int_array w st.s_alu_in_b;
    Binio.W.bool_array w st.s_alu_busy_prev;
    Binio.W.bool_array w st.s_load_prev;
    Binio.W.float_array w st.s_cells;
    Binio.W.float w st.s_total.(0);
    write_matrix w st.s_outputs;
    Binio.seal ~magic (Binio.W.contents w)

  let decode blob =
    Mclock_obs.Obs.with_span ~cat:"sim" ~name:"sim.ckpt_decode" @@ fun () ->
    match Binio.unseal ~magic blob with
    | Error e -> Error e
    | Ok payload -> (
        match
          let r = Binio.R.of_string payload in
          let ck_width = Binio.R.int r in
          let ck_t_steps = Binio.R.int r in
          let ck_n = Binio.R.int r in
          let ck_n_in = Binio.R.int r in
          let ck_n_out = Binio.R.int r in
          let ck_seed = Binio.R.int r in
          let ck_iterations = Binio.R.int r in
          let ck_stimulus = Binio.R.bool r in
          let ck_rng = Binio.R.i64 r in
          let ck_inputs = read_matrix r ~cols:ck_n_in in
          if Array.length ck_inputs <> ck_iterations then
            raise (Binio.Corrupt "checkpoint: input rows <> iterations");
          let int_arr () =
            let a = Binio.R.int_array r in
            if Array.length a <> ck_n then
              raise (Binio.Corrupt "checkpoint: bad state array length");
            a
          in
          let bool_arr () =
            let a = Binio.R.bool_array r in
            if Array.length a <> ck_n then
              raise (Binio.Corrupt "checkpoint: bad state array length");
            a
          in
          let s_values = int_arr () in
          let s_val_stamp = int_arr () in
          let s_ctrl_stamp = int_arr () in
          let s_op_stamp = int_arr () in
          let s_mux_sel = int_arr () in
          let s_alu_op = int_arr () in
          let s_alu_in_a = int_arr () in
          let s_alu_in_b = int_arr () in
          let s_alu_busy_prev = bool_arr () in
          let s_load_prev = bool_arr () in
          (* [ck_n] was validated against real array lengths above,
             so the product cannot overflow. *)
          let s_cells = Binio.R.float_array r in
          if Array.length s_cells <> ck_n * Activity.num_categories then
            raise (Binio.Corrupt "checkpoint: bad energy cell array length");
          let s_total = [| Binio.R.float r |] in
          let s_outputs = read_matrix r ~cols:ck_n_out in
          if Array.length s_outputs <> ck_iterations then
            raise (Binio.Corrupt "checkpoint: output rows <> iterations");
          Binio.R.expect_end r;
          {
            ck_width;
            ck_t_steps;
            ck_n;
            ck_n_in;
            ck_n_out;
            ck_seed;
            ck_iterations;
            ck_stimulus;
            ck_rng;
            ck_inputs;
            ck_state =
              {
                s_values;
                s_val_stamp;
                s_ctrl_stamp;
                s_op_stamp;
                s_mux_sel;
                s_alu_op;
                s_alu_in_a;
                s_alu_in_b;
                s_alu_busy_prev;
                s_load_prev;
                s_cells;
                s_total;
                s_outputs;
              };
          }
        with
        | ck -> Ok ck
        | exception Binio.Corrupt m -> Error m
        | exception Invalid_argument m -> Error m)
end
