(* Controller synthesis estimation.

   The datapath's controller is a cyclic FSM with one state per control
   step.  This module extracts its output functions from a design's
   controller (resolving the hold semantics of latched controls into
   concrete per-state values), minimizes each control line as a
   two-level function of the state code (Qm), and reports PLA-style
   area plus switching energy per period for a chosen state encoding:

   - state register: one storage bit per code bit, toggling per the
     encoding's Hamming schedule;
   - AND plane: product terms x 2*code_width crosspoints;
   - OR plane: product terms x output lines crosspoints;
   - output network: per-line toggles between consecutive states, at
     the technology's control-line capacitance.

   The estimates deliberately exclude the datapath (Report covers it);
   the Ablations bench uses them to compare encodings and to show the
   controller's share of each design style. *)

open Mclock_rtl
module L = Mclock_tech.Library

type line = {
  line_name : string;
  on_states : int list; (* 0-based states where the line is 1 *)
}

type report = {
  encoding : Encoding.t;
  states : int;
  code_width : int;
  output_lines : int;
  product_terms : int;
  total_literals : int;
  register_toggles_per_period : int;
  output_toggles_per_period : int;
  area : float; (* lambda^2 *)
  energy_per_period_pj : float;
  power_mw : float; (* at the design's system clock *)
}

let bits_needed = Encoding.bits_needed

(* Flatten the hold-resolved controls into named single-bit output
   lines.  State s (0-based) is step s+1 of the replay's steady
   period; a multifunction ALU's line value is the index of its held
   function in its function set. *)
let output_lines design =
  let datapath = Design.datapath design in
  let steady = (Schedule_model.build design).Schedule_model.steady in
  let states = Mclock_util.List_ext.range 0 (Array.length steady - 1) in
  let on_states holds = List.filter (fun s -> holds steady.(s)) states in
  let bit_lines prefix c ~bits value =
    List.map
      (fun bit ->
        {
          line_name = Printf.sprintf "%s_%s_%d" prefix (Comp.name c) bit;
          on_states = on_states (fun st -> (value st lsr bit) land 1 = 1);
        })
      (Mclock_util.List_ext.range 0 (bits - 1))
  in
  let storage_lines =
    List.map
      (fun (c, _) ->
        let id = Comp.id c in
        {
          line_name = Printf.sprintf "load_%s" (Comp.name c);
          on_states = on_states (fun st -> st.Schedule_model.loads.(id));
        })
      (Datapath.storages datapath)
  in
  let select_lines =
    List.concat_map
      (fun (c, m) ->
        let id = Comp.id c in
        bit_lines "sel" c
          ~bits:(bits_needed (Array.length m.Comp.m_choices))
          (fun st -> st.Schedule_model.sel.(id)))
      (Datapath.muxes datapath)
  in
  let fn_lines =
    List.concat_map
      (fun (c, a) ->
        let card = Mclock_dfg.Op.Set.cardinal a.Comp.a_fset in
        if card <= 1 then []
        else
          let id = Comp.id c in
          let fns = Mclock_dfg.Op.Set.to_list a.Comp.a_fset in
          let index st =
            match st.Schedule_model.op.(id) with
            | Some op ->
                Option.value ~default:0
                  (List.find_index (Mclock_dfg.Op.equal op) fns)
            | None -> 0
          in
          bit_lines "fn" c ~bits:(bits_needed card) index)
      (Datapath.alus datapath)
  in
  storage_lines @ select_lines @ fn_lines

(* PLA geometry constants (lambda^2 per crosspoint / per register bit
   at the 0.8 micron scale). *)
let crosspoint_area = 95.
let plane_cap_per_term = 0.012 (* pF switched per toggled input, per term *)

let estimate tech design encoding =
  let control = Design.control design in
  let states = Control.num_steps control in
  let code_width = Encoding.width encoding ~states in
  let codes = Array.of_list (Encoding.codes encoding ~states) in
  let lines = output_lines design in
  (* Minimize each output line plus each next-state bit over the code;
     unused code points are don't-cares (this is what makes one-hot
     decode cheap). *)
  let all_codes = Array.to_list codes in
  let minimize_on_set on_states =
    let on = List.map (fun s -> codes.(s)) on_states in
    let off x = List.mem x all_codes && not (List.mem x on) in
    Qm.minimize_with_dc ~width:code_width ~off on
  in
  let output_costs = List.map (fun l -> minimize_on_set l.on_states) lines in
  let next_state_costs =
    List.map
      (fun bit ->
        let on =
          List.filter
            (fun s -> (codes.((s + 1) mod states) lsr bit) land 1 = 1)
            (Mclock_util.List_ext.range 0 (states - 1))
        in
        minimize_on_set on)
      (Mclock_util.List_ext.range 0 (code_width - 1))
  in
  let all_costs = output_costs @ next_state_costs in
  let product_terms =
    Mclock_util.List_ext.sum_by (fun c -> c.Qm.product_terms) all_costs
  in
  let total_literals =
    Mclock_util.List_ext.sum_by (fun c -> c.Qm.total_literals) all_costs
  in
  let output_lines_n = List.length lines in
  let area =
    (* AND plane + OR plane + state register. *)
    (float product_terms *. float (2 * code_width) *. crosspoint_area)
    +. (float product_terms *. float (output_lines_n + code_width) *. crosspoint_area)
    +. L.storage_area tech L.Register ~width:code_width
  in
  (* Switching per period. *)
  let register_toggles = Encoding.toggles_per_period encoding ~states in
  let output_toggles = ref 0 in
  List.iter
    (fun l ->
      let on = Array.make states false in
      List.iter (fun s -> on.(s) <- true) l.on_states;
      for s = 0 to states - 1 do
        if on.(s) <> on.((s + 1) mod states) then incr output_toggles
      done)
    lines;
  let ept cap = L.energy_per_transition tech cap in
  let energy =
    (* State register: clock every cycle + data toggles. *)
    (float states *. 2. *. ept (L.storage_clock_cap tech L.Register ~width:code_width))
    +. (float register_toggles
       *. ept (L.storage_params tech L.Register).L.internal_cap_per_bit)
    (* Plane: each toggled code bit sweeps the AND plane. *)
    +. (float register_toggles *. float product_terms *. ept plane_cap_per_term)
    (* Output lines into the datapath. *)
    +. (float !output_toggles *. ept tech.L.control_line_cap)
  in
  let period_s = float states /. tech.L.clock_frequency in
  {
    encoding;
    states;
    code_width;
    output_lines = output_lines_n;
    product_terms;
    total_literals;
    register_toggles_per_period = register_toggles;
    output_toggles_per_period = !output_toggles;
    area;
    energy_per_period_pj = energy;
    power_mw = energy *. 1e-12 /. period_s *. 1e3;
  }

let render reports =
  let table =
    Mclock_util.Table.create
      ~header:
        [ "encoding"; "bits"; "terms"; "literals"; "reg toggles"; "line toggles";
          "area [l^2]"; "power [mW]" ]
      ~aligns:
        Mclock_util.Table.[ Left; Right; Right; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun r ->
      Mclock_util.Table.add_row table
        [
          Encoding.name r.encoding;
          string_of_int r.code_width;
          string_of_int r.product_terms;
          string_of_int r.total_literals;
          string_of_int r.register_toggles_per_period;
          string_of_int r.output_toggles_per_period;
          Printf.sprintf "%.0f" r.area;
          Printf.sprintf "%.3f" r.power_mw;
        ])
    reports;
  Mclock_util.Table.render table
