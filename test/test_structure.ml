(* Focused tests on structure generation internals: the idle-mux
   parking DP, idle-control policies, technology helpers, and simulator
   edge cases. *)

open Mclock_core

let check = Alcotest.check
let fail = Alcotest.fail
let tech = Mclock_tech.Cmos08.t

(* --- optimize_parking -------------------------------------------------------- *)

let no_loads ~choice:_ ~step:_ = false

let transitions_of ~num_steps ~loads_at_end selects =
  (* Re-count the DP's objective for a given assignment. *)
  let cost = ref 0 in
  for s = 1 to num_steps do
    let prev = if s = 1 then num_steps else s - 1 in
    if
      selects.(s) <> selects.(prev)
      || loads_at_end ~choice:selects.(s) ~step:prev
    then incr cost
  done;
  !cost

let test_parking_no_constraints_is_constant () =
  match
    Structure.optimize_parking ~num_steps:6 ~num_choices:3
      ~forced:(fun _ -> None)
      ~loads_at_end:no_loads
  with
  | None -> fail "expected a solution"
  | Some selects ->
      check Alcotest.int "zero transitions" 0
        (transitions_of ~num_steps:6 ~loads_at_end:no_loads selects)

let test_parking_respects_forced () =
  let forced s = if s = 2 then Some 1 else if s = 5 then Some 0 else None in
  match
    Structure.optimize_parking ~num_steps:6 ~num_choices:2 ~forced
      ~loads_at_end:no_loads
  with
  | None -> fail "expected a solution"
  | Some selects ->
      check Alcotest.int "forced at 2" 1 selects.(2);
      check Alcotest.int "forced at 5" 0 selects.(5);
      (* Two forced values differ, so at least 2 transitions cyclically. *)
      check Alcotest.int "minimal transitions" 2
        (transitions_of ~num_steps:6 ~loads_at_end:no_loads selects)

let test_parking_avoids_noisy_source () =
  (* Choice 0 reloads at the end of every step; choice 1 never.  With
     no forced routing the DP must park on choice 1 throughout. *)
  let loads_at_end ~choice ~step:_ = choice = 0 in
  match
    Structure.optimize_parking ~num_steps:4 ~num_choices:2
      ~forced:(fun _ -> None)
      ~loads_at_end
  with
  | None -> fail "expected a solution"
  | Some selects ->
      List.iter
        (fun s -> check Alcotest.int "parked on quiet source" 1 selects.(s))
        [ 1; 2; 3; 4 ];
      check Alcotest.int "zero transitions" 0
        (transitions_of ~num_steps:4 ~loads_at_end selects)

let test_parking_unsatisfiable_forced () =
  (* The same step cannot be forced to two values — conflict is raised
     earlier in build; here we check the DP's own impossibility path:
     a forced choice that is out of range never matches 'allowed'. *)
  match
    Structure.optimize_parking ~num_steps:3 ~num_choices:2
      ~forced:(fun s -> if s = 1 then Some 5 else None)
      ~loads_at_end:no_loads
  with
  | None -> ()
  | Some _ -> fail "satisfied an impossible forced routing"

let test_parking_beats_hold_baseline () =
  (* A source busy early, reloading later: holding the busy-step select
     keeps the mux output toggling; parking finds a quieter select. *)
  let loads_at_end ~choice ~step = choice = 0 && step >= 3 in
  let forced s = if s = 1 then Some 0 else None in
  match
    Structure.optimize_parking ~num_steps:6 ~num_choices:2 ~forced
      ~loads_at_end
  with
  | None -> fail "expected a solution"
  | Some selects ->
      let parked = transitions_of ~num_steps:6 ~loads_at_end selects in
      let hold = Array.make 7 0 in
      let hold_cost = transitions_of ~num_steps:6 ~loads_at_end hold in
      check Alcotest.bool
        (Printf.sprintf "parked %d < hold %d" parked hold_cost)
        true (parked < hold_cost)

(* --- Idle-control policies ------------------------------------------------------ *)

let facet_design method_ =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  Flow.synthesize ~method_ ~name:"pol" s

let control_energy design =
  let r = Mclock_sim.Simulator.run ~seed:9 tech design ~iterations:150 in
  Option.value ~default:0.
    (List.assoc_opt Mclock_sim.Activity.Control
       (Mclock_sim.Activity.by_category r.Mclock_sim.Simulator.activity))

let test_zero_policy_burns_more_control () =
  (* The non-gated conventional controller re-emits don't-care-filled
     selects each step; the gated one holds.  Same datapath topology,
     so the control-network energy difference is the policy. *)
  let non_gated = control_energy (facet_design Flow.Conventional_non_gated) in
  let gated = control_energy (facet_design Flow.Conventional_gated) in
  check Alcotest.bool
    (Printf.sprintf "non-gated %.0f > gated %.0f" non_gated gated)
    true (non_gated > gated)

(* --- Technology helpers ----------------------------------------------------------- *)

let test_tech_with_clock_frequency () =
  let t = Mclock_tech.Cmos08.with_clock_frequency 50e6 in
  check (Alcotest.float 1.) "frequency set" 50e6 t.Mclock_tech.Library.clock_frequency;
  check (Alcotest.float 1e-9) "voltage untouched"
    tech.Mclock_tech.Library.supply_voltage t.Mclock_tech.Library.supply_voltage

let test_tech_power_scales_with_frequency () =
  (* The clock is baked into the design at synthesis time, so the
     technology must be supplied there. *)
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let p_at f =
    let t = Mclock_tech.Cmos08.with_clock_frequency f in
    let design =
      Flow.synthesize
        ~params:{ Flow.tech = t; width = 4 }
        ~method_:Flow.Conventional_non_gated ~name:"f" s
    in
    (Mclock_sim.Simulator.run ~seed:4 t design ~iterations:100).Mclock_sim.Simulator.power_mw
  in
  let p1 = p_at 10e6 and p2 = p_at 20e6 in
  check (Alcotest.float 0.01) "linear in f" 2.0 (p2 /. p1)

let test_tech_voltage_scales_quadratically () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let design = Flow.synthesize ~method_:Flow.Conventional_non_gated ~name:"f" s in
  let p_at v =
    let t = Mclock_tech.Cmos08.with_supply_voltage v in
    (Mclock_sim.Simulator.run ~seed:4 t design ~iterations:100).Mclock_sim.Simulator.power_mw
  in
  let p1 = p_at 2.0 and p2 = p_at 4.0 in
  check (Alcotest.float 0.01) "quadratic in V" 4.0 (p2 /. p1)

(* --- Simulator edge cases ------------------------------------------------------------ *)

let test_single_iteration () =
  let w = Mclock_workloads.Hal.t in
  let graph = Mclock_workloads.Workload.graph w in
  let s = Mclock_workloads.Workload.schedule w in
  let design = Flow.synthesize ~method_:(Flow.Integrated 3) ~name:"one" s in
  let r = Mclock_sim.Simulator.run tech design ~iterations:1 in
  check Alcotest.int "one output set" 1 (Array.length r.Mclock_sim.Simulator.outputs);
  let verify = Mclock_sim.Verify.check ~width:4 graph r in
  check Alcotest.bool "verified" true (Mclock_sim.Verify.ok verify)

let test_outputs_observed_every_iteration () =
  let w = Mclock_workloads.Motivating.t in
  let s = Mclock_workloads.Workload.schedule w in
  let design = Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"obs" s in
  let r = Mclock_sim.Simulator.run tech design ~iterations:7 in
  check Alcotest.int "seven output sets" 7 (Array.length r.Mclock_sim.Simulator.outputs);
  let col =
    Mclock_sim.Simulator.column r.Mclock_sim.Simulator.output_vars
      (Mclock_dfg.Var.v "out")
  in
  check Alcotest.bool "out is a column" true (col >= 0);
  Array.iter
    (fun row ->
      check Alcotest.bool "out present" true
        (row.(col) <> Mclock_sim.Simulator.unobserved))
    r.Mclock_sim.Simulator.outputs

let test_observer_sees_all_cycles () =
  let w = Mclock_workloads.Facet.t in
  let s = Mclock_workloads.Workload.schedule w in
  let design = Flow.synthesize ~method_:(Flow.Integrated 3) ~name:"obs" s in
  let cycles = ref 0 in
  let _ =
    Mclock_sim.Simulator.run
      ~observer:(fun _ -> incr cycles)
      tech design ~iterations:5
  in
  (* FACET has 4 steps, padded to 6 under n=3. *)
  check Alcotest.int "5 iterations x 6 steps" 30 !cycles

let suite =
  [
    ("parking: unconstrained is constant", `Quick, test_parking_no_constraints_is_constant);
    ("parking: respects forced routing", `Quick, test_parking_respects_forced);
    ("parking: avoids noisy source", `Quick, test_parking_avoids_noisy_source);
    ("parking: impossible forced routing", `Quick, test_parking_unsatisfiable_forced);
    ("parking: beats hold baseline", `Quick, test_parking_beats_hold_baseline);
    ("zero policy burns more control", `Quick, test_zero_policy_burns_more_control);
    ("tech with_clock_frequency", `Quick, test_tech_with_clock_frequency);
    ("power linear in frequency", `Quick, test_tech_power_scales_with_frequency);
    ("power quadratic in voltage", `Quick, test_tech_voltage_scales_quadratically);
    ("simulator single iteration", `Quick, test_single_iteration);
    ("outputs observed every iteration", `Quick, test_outputs_observed_every_iteration);
    ("observer sees all cycles", `Quick, test_observer_sees_all_cycles);
  ]
