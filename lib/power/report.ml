(* Per-design evaluation reports and the paper-style tables built from
   them (Tables 1-4: Power [mW], Area [lambda^2], ALUs, Mem. Cells,
   Mux In's). *)

open Mclock_rtl

type t = {
  label : string;
  design_name : string;
  power_mw : float;
  energy_per_computation_pj : float;
  area : Area.breakdown;
  alus : string; (* paper notation, e.g. "2(+),1(*-)" *)
  memory_cells : int;
  mux_inputs : int;
  energy_by_category : (Mclock_sim.Activity.category * float) list;
  iterations : int;
  functional_ok : bool;
}

let of_sim ?expected ~label tech design graph ~iterations sim =
  let verify =
    match expected with
    | Some x -> Mclock_sim.Verify.check_expected x sim
    | None ->
        let width = Datapath.width (Design.datapath design) in
        Mclock_sim.Verify.check ~width graph sim
  in
  let datapath = Design.datapath design in
  {
    label;
    design_name = Design.name design;
    power_mw = sim.Mclock_sim.Simulator.power_mw;
    energy_per_computation_pj =
      sim.Mclock_sim.Simulator.energy_pj /. float iterations;
    area = Area.of_design tech design;
    alus = Datapath.alu_inventory_string datapath;
    memory_cells = Datapath.memory_cells datapath;
    mux_inputs = Datapath.mux_input_count datapath;
    energy_by_category =
      Mclock_sim.Activity.by_category sim.Mclock_sim.Simulator.activity;
    iterations;
    functional_ok = Mclock_sim.Verify.ok verify;
  }

(* The compiled kernel is differentially tested bit-identical to
   [Simulator.run], which stays as the reference that tests compare
   against. *)
let evaluate ?expected ?(seed = 42) ?(iterations = 400) ~label tech design
    graph =
  let sim =
    Mclock_sim.Compiled.run ~seed
      (Mclock_sim.Compiled.compile tech design)
      ~iterations
  in
  of_sim ?expected ~label tech design graph ~iterations sim

(* Checkpointed evaluation: always the compiled kernel (checkpoints
   are a kernel-state snapshot), seeded fresh or extended from a prior
   checkpoint.  The report is byte-identical to [evaluate]'s at the
   same total iteration count — resuming only skips re-simulating the
   prefix. *)
let evaluate_resumable ?(seed = 42) ?(iterations = 400) ?resume_from ~label
    tech design graph =
  let kernel = Mclock_sim.Compiled.compile tech design in
  let sim, ck =
    match resume_from with
    | None -> Mclock_sim.Compiled.run_with_checkpoint ~seed kernel ~iterations
    | Some ck -> Mclock_sim.Compiled.resume kernel ck ~iterations
  in
  (of_sim ~label tech design graph ~iterations sim, ck)

(* Batch evaluation across the exec pool.  Each cell is an independent
   simulation from the same integer seed, so the reports are identical
   whatever the worker count; the pool only changes wall-clock time.

   The cells of one batch usually share a graph (a paper table is one
   behaviour under several methods), and designs of one graph with the
   same width and input columns draw the same stimulus.  Their golden
   outputs are therefore one table ([Verify.expected]), computed once
   per such group on the submitting side, before the fan-out, and read
   by every design of the group on whichever domain simulates it. *)
let evaluate_batch ~pool ?(seed = 42) ?(iterations = 400) tech cells =
  let tables = ref [] in
  let expected_of (_, design, graph) =
    let width = Datapath.width (Design.datapath design)
    and vars = Mclock_sim.Simulator.input_columns design in
    let same (g, w, v, _) =
      g == graph && w = width
      && Array.length v = Array.length vars
      && Array.for_all2 Mclock_dfg.Var.equal v vars
    in
    match List.find_opt same !tables with
    | Some (_, _, _, x) -> x
    | None ->
        let x = Mclock_sim.Verify.expected ~seed ~iterations design graph in
        tables := (graph, width, vars, x) :: !tables;
        x
  in
  let jobs = List.map (fun cell -> (cell, expected_of cell)) cells in
  (* The label callback runs once per task; indexing the list with
     [List.nth] made labelling O(rows^2).  One [Array.of_list] up front
     keeps each lookup O(1). *)
  let cells_arr = Array.of_list cells in
  Mclock_exec.Pool.map pool
    ~label:(fun i ->
      let label, design, _ = cells_arr.(i) in
      Printf.sprintf "%s/%s" (Design.name design) label)
    (fun _ ((label, design, graph), expected) ->
      evaluate ~expected ~seed ~iterations ~label tech design graph)
    jobs

let paper_table ?title reports =
  let table =
    Mclock_util.Table.create ?title
      ~header:
        [ "Design"; "Power [mW]"; "Area [l^2]"; "ALUs"; "Mem. Cells"; "Mux In's"; "OK" ]
      ~aligns:
        Mclock_util.Table.[ Left; Right; Right; Left; Right; Right; Left ]
      ()
  in
  List.iter
    (fun r ->
      Mclock_util.Table.add_row table
        [
          r.label;
          Printf.sprintf "%.2f" r.power_mw;
          Printf.sprintf "%.0f" r.area.Area.design_total;
          r.alus;
          string_of_int r.memory_cells;
          string_of_int r.mux_inputs;
          (if r.functional_ok then "yes" else "FAIL");
        ])
    reports;
  table

let render_category_breakdown r =
  let table =
    Mclock_util.Table.create
      ~title:(Printf.sprintf "energy breakdown: %s" r.label)
      ~header:[ "mechanism"; "energy [pJ]"; "share" ]
      ~aligns:Mclock_util.Table.[ Left; Right; Right ]
      ()
  in
  let total =
    Mclock_util.List_ext.sum_by_float snd r.energy_by_category
  in
  List.iter
    (fun (cat, pj) ->
      Mclock_util.Table.add_row table
        [
          Mclock_sim.Activity.category_name cat;
          Printf.sprintf "%.1f" pj;
          Printf.sprintf "%.1f%%" (100. *. pj /. total);
        ])
    r.energy_by_category;
  Mclock_util.Table.render table

(* Percentage power reduction of [r] vs a baseline (positive = saves). *)
let reduction_vs ~baseline r =
  100. *. (baseline.power_mw -. r.power_mw) /. baseline.power_mw

let area_increase_vs ~baseline r =
  100.
  *. (r.area.Area.design_total -. baseline.area.Area.design_total)
  /. baseline.area.Area.design_total
