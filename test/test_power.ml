(* Tests for mclock_power and mclock_tech: area model, power reports,
   and the paper's headline orderings on every benchmark. *)

open Mclock_core
module L = Mclock_tech.Library

let check = Alcotest.check
let tech = Mclock_tech.Cmos08.t

(* --- Technology model ----------------------------------------------------- *)

let fset ops = Mclock_dfg.Op.Set.of_list ops

let test_alu_area_monotone_in_functions () =
  let a1 = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Add ]) in
  let a2 = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Add; Mclock_dfg.Op.Mul ]) in
  check Alcotest.bool "add+mul > add" true (a2 > a1)

let test_alu_area_scales_with_width () =
  let a4 = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Add ]) in
  let a8 = L.alu_area tech ~width:8 (fset [ Mclock_dfg.Op.Add ]) in
  check (Alcotest.float 1e-6) "linear in width" (2. *. a4) a8

let test_alu_addsub_sharing () =
  (* The (+-) pair shares its adder core: cheaper than separate cores
     and exempt from the multifunction penalty. *)
  let addsub = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Add; Mclock_dfg.Op.Sub ]) in
  let add = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Add ]) in
  let sub = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Sub ]) in
  check Alcotest.bool "addsub < add + sub" true (addsub < add +. sub);
  check Alcotest.bool "addsub > add alone" true (addsub > add)

let test_alu_multifunction_penalty () =
  (* A mixed mul/or ALU costs more than the sum of its parts. *)
  let merged = L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Mul; Mclock_dfg.Op.Or ]) in
  let separate =
    L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Mul ])
    +. L.alu_area tech ~width:4 (fset [ Mclock_dfg.Op.Or ])
  in
  check Alcotest.bool "penalty applies" true (merged > separate)

let test_alu_area_empty_rejected () =
  Alcotest.check_raises "empty fset"
    (Invalid_argument "Library.alu_area: empty function set") (fun () ->
      ignore (L.alu_area tech ~width:4 Mclock_dfg.Op.Set.empty))

let test_latch_cheaper_than_register () =
  check Alcotest.bool "area" true
    (L.storage_area tech L.Latch ~width:4 < L.storage_area tech L.Register ~width:4);
  check Alcotest.bool "clock cap" true
    (L.storage_clock_cap tech L.Latch ~width:4 < L.storage_clock_cap tech L.Register ~width:4)

let test_mux_area () =
  check (Alcotest.float 1e-6) "no mux for 1 input" 0. (L.mux_area tech ~width:4 ~inputs:1);
  check Alcotest.bool "grows with inputs" true
    (L.mux_area tech ~width:4 ~inputs:4 > L.mux_area tech ~width:4 ~inputs:2)

let test_energy_per_transition () =
  (* 1/2 * 1pF * 4.65^2 = 10.81 pJ. *)
  check (Alcotest.float 0.01) "half CV^2" 10.81 (L.energy_per_transition tech 1.0)

let test_design_area_affine () =
  let base = L.design_area tech ~component_area:0. in
  check (Alcotest.float 1e-6) "base" tech.L.base_area base;
  check (Alcotest.float 1e-6) "slope" (tech.L.base_area +. (tech.L.routing_factor *. 100.))
    (L.design_area tech ~component_area:100.)

(* --- Area of designs -------------------------------------------------------- *)

let facet_design method_ =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  Flow.synthesize ~method_ ~name:"facet_p" s

let test_area_breakdown_consistent () =
  let d = facet_design (Flow.Integrated 2) in
  let b = Mclock_power.Area.of_design tech d in
  check (Alcotest.float 1e-6) "components sum"
    (b.Mclock_power.Area.storage +. b.Mclock_power.Area.alus
    +. b.Mclock_power.Area.muxes +. b.Mclock_power.Area.gating
    +. b.Mclock_power.Area.isolation)
    b.Mclock_power.Area.component_total

let test_area_gating_only_when_gated () =
  let dg = facet_design Flow.Conventional_gated in
  let dn = facet_design Flow.Conventional_non_gated in
  check Alcotest.bool "gated has gating area" true
    ((Mclock_power.Area.of_design tech dg).Mclock_power.Area.gating > 0.);
  check (Alcotest.float 1e-9) "non-gated has none" 0.
    (Mclock_power.Area.of_design tech dn).Mclock_power.Area.gating

let test_area_latches_shrink_storage () =
  (* Same mem-cell ballpark, but latch cells are smaller per bit. *)
  let d1 = facet_design (Flow.Integrated 1) in
  let dn = facet_design Flow.Conventional_non_gated in
  let per_cell d =
    (Mclock_power.Area.of_design tech d).Mclock_power.Area.storage
    /. float (Mclock_rtl.Datapath.memory_cells (Mclock_rtl.Design.datapath d))
  in
  check Alcotest.bool "latch cell smaller" true (per_cell d1 < per_cell dn)

(* --- Reports and the paper's headline orderings ------------------------------ *)

let evaluate w =
  let graph = Mclock_workloads.Workload.graph w in
  let schedule = Mclock_workloads.Workload.schedule w in
  List.map
    (fun (m, d) ->
      Mclock_power.Report.evaluate ~seed:11 ~iterations:150
        ~label:(Flow.method_label m) tech d graph)
    (Flow.standard_suite ~name:w.Mclock_workloads.Workload.name schedule)

let test_paper_ordering w () =
  match evaluate w with
  | [ non_gated; gated; c1; c2; c3 ] ->
      let name = w.Mclock_workloads.Workload.name in
      check Alcotest.bool (name ^ ": all functional") true
        (List.for_all
           (fun r -> r.Mclock_power.Report.functional_ok)
           [ non_gated; gated; c1; c2; c3 ]);
      check Alcotest.bool (name ^ ": gating saves") true
        (gated.Mclock_power.Report.power_mw < non_gated.Mclock_power.Report.power_mw);
      check Alcotest.bool (name ^ ": 2clk < 1clk") true
        (c2.Mclock_power.Report.power_mw < c1.Mclock_power.Report.power_mw);
      check Alcotest.bool (name ^ ": 3clk < 2clk") true
        (c3.Mclock_power.Report.power_mw < c2.Mclock_power.Report.power_mw);
      (* The headline claim: the 3-clock scheme beats conventional
         gated-clock power management. *)
      check Alcotest.bool (name ^ ": 3clk < gated") true
        (c3.Mclock_power.Report.power_mw < gated.Mclock_power.Report.power_mw);
      (* Multi-clock needs at least as many memory cells. *)
      check Alcotest.bool (name ^ ": mem cells grow") true
        (c3.Mclock_power.Report.memory_cells >= non_gated.Mclock_power.Report.memory_cells)
  | _ -> Alcotest.fail "expected 5 reports"

let ordering_tests =
  List.map
    (fun w ->
      ( Printf.sprintf "paper ordering: %s" w.Mclock_workloads.Workload.name,
        `Slow,
        test_paper_ordering w ))
    Mclock_workloads.Catalog.paper_tables

let test_report_table_rendering () =
  let reports = evaluate Mclock_workloads.Facet.t in
  let table = Mclock_power.Report.paper_table ~title:"t" reports in
  check Alcotest.int "five rows" 5 (List.length (Mclock_util.Table.rows table))

let test_report_reduction_math () =
  let baseline =
    {
      Mclock_power.Report.label = "b";
      design_name = "b";
      power_mw = 10.;
      energy_per_computation_pj = 0.;
      area =
        {
          Mclock_power.Area.storage = 0.;
          alus = 0.;
          muxes = 0.;
          gating = 0.;
          isolation = 0.;
          component_total = 0.;
          design_total = 100.;
        };
      alus = "";
      memory_cells = 0;
      mux_inputs = 0;
      energy_by_category = [];
      iterations = 1;
      functional_ok = true;
    }
  in
  let candidate =
    {
      baseline with
      Mclock_power.Report.power_mw = 6.;
      area = { baseline.Mclock_power.Report.area with Mclock_power.Area.design_total = 110. };
    }
  in
  check (Alcotest.float 1e-9) "40%% reduction" 40.
    (Mclock_power.Report.reduction_vs ~baseline candidate);
  check (Alcotest.float 1e-9) "10%% area growth" 10.
    (Mclock_power.Report.area_increase_vs ~baseline candidate)

(* --- Shared golden tables ------------------------------------------------ *)

let behaviour src =
  let graph = Mclock_lang.Compile.compile_string src in
  (graph, Mclock_sched.Force_directed.run graph)

(* [z := a + b] where the graph says [z := a - b]: a design that
   simulates cleanly and fails verification on [z] only. *)
let pair_source z =
  "behavior pair\ninput a, b\noutput y, z\ny := (a * b) + a\nz := " ^ z ^ "\n"

(* [evaluate_batch] verifies every design of one graph and stimulus
   against one golden table; the reports, a broken design's included,
   must be those of per-design [evaluate], at any job count, and the
   table's mismatch list must be the per-design check's. *)
let test_batch_golden_matches_per_design () =
  let seed = 5 and iterations = 40 in
  let pair, pair_schedule = behaviour (pair_source "a - b") in
  let _, broken_schedule = behaviour (pair_source "a + b") in
  let broken =
    Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"broken" broken_schedule
  in
  let suite graph schedule =
    List.map
      (fun (m, design) -> (Flow.method_label m, design, graph))
      (Flow.standard_suite ~name:(Mclock_dfg.Graph.name graph) schedule)
  in
  let facet = Mclock_workloads.Facet.t in
  let cells =
    suite
      (Mclock_workloads.Workload.graph facet)
      (Mclock_workloads.Workload.schedule facet)
    @ [ ("broken", broken, pair) ]
    @ suite pair pair_schedule
  in
  let per_design =
    List.map
      (fun (label, design, graph) ->
        Mclock_power.Report.evaluate ~seed ~iterations ~label tech design graph)
      cells
  in
  check Alcotest.(list bool) "only the broken design fails"
    (List.map (fun (label, _, _) -> label <> "broken") cells)
    (List.map (fun r -> r.Mclock_power.Report.functional_ok) per_design);
  List.iter
    (fun jobs ->
      let batch =
        Mclock_exec.Pool.with_pool ~jobs (fun pool ->
            Mclock_power.Report.evaluate_batch ~pool ~seed ~iterations tech
              cells)
      in
      if batch <> per_design then
        Alcotest.fail (Printf.sprintf "jobs %d: batch reports differ" jobs))
    [ 1; 2 ];
  let module V = Mclock_sim.Verify in
  let sim =
    Mclock_sim.Compiled.run ~seed
      (Mclock_sim.Compiled.compile tech broken)
      ~iterations
  in
  let width = Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath broken) in
  let mismatches r = List.map (Fmt.str "%a" V.pp_mismatch) r.V.mismatches in
  let per_design = mismatches (V.check ~width pair sim) in
  let table = V.expected ~seed ~iterations broken pair in
  check Alcotest.(list string) "same mismatch list" per_design
    (mismatches (V.check_expected table sim));
  check Alcotest.bool "mismatches found" true (per_design <> []);
  (* A run of another stimulus is refused, not misjudged. *)
  let other =
    Mclock_sim.Compiled.run ~seed:(seed + 1)
      (Mclock_sim.Compiled.compile tech broken)
      ~iterations
  in
  match V.check_expected table other with
  | _ -> Alcotest.fail "a table accepted another stimulus"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ("alu area monotone", `Quick, test_alu_area_monotone_in_functions);
    ("alu area width-linear", `Quick, test_alu_area_scales_with_width);
    ("alu add/sub sharing", `Quick, test_alu_addsub_sharing);
    ("alu multifunction penalty", `Quick, test_alu_multifunction_penalty);
    ("alu empty fset rejected", `Quick, test_alu_area_empty_rejected);
    ("latch cheaper than register", `Quick, test_latch_cheaper_than_register);
    ("mux area", `Quick, test_mux_area);
    ("energy per transition", `Quick, test_energy_per_transition);
    ("design area affine", `Quick, test_design_area_affine);
    ("area breakdown consistent", `Quick, test_area_breakdown_consistent);
    ("area gating only when gated", `Quick, test_area_gating_only_when_gated);
    ("area latches shrink storage", `Quick, test_area_latches_shrink_storage);
    ("report table rendering", `Quick, test_report_table_rendering);
    ("report reduction math", `Quick, test_report_reduction_math);
    ("batch golden == per-design verify", `Quick,
      test_batch_golden_matches_per_design);
  ]
  @ ordering_tests
