(* Tests for mclock_sim: golden interpreter, simulator functional
   correctness on every workload x method, activity accounting
   properties, VCD output. *)

open Mclock_dfg
open Mclock_core

let check = Alcotest.check
let fail = Alcotest.fail
module B = Mclock_util.Bitvec

let tech = Mclock_tech.Cmos08.t

(* --- Golden ------------------------------------------------------------- *)

let test_golden_simple () =
  let r =
    Parse.parse_string "dfg t\ninputs a b\noutputs y\nn1: x = a + b @ 1\nn2: y = x * 2 @ 2\n"
  in
  let env =
    Var.Map.of_seq
      (List.to_seq
         [ (Var.v "a", B.create ~width:4 3); (Var.v "b", B.create ~width:4 4) ])
  in
  let out = Mclock_sim.Golden.eval ~width:4 r.Parse.graph env in
  check Alcotest.int "(3+4)*2 = 14" 14 (B.to_int (Var.Map.find (Var.v "y") out))

let test_golden_missing_input () =
  let r = Parse.parse_string "dfg t\ninputs a\noutputs y\ny = a + 1\n" in
  Alcotest.check_raises "missing" (Invalid_argument "Golden.eval: missing input a")
    (fun () -> ignore (Mclock_sim.Golden.eval ~width:4 r.Parse.graph Var.Map.empty))

let test_golden_motivating_by_hand () =
  (* out = (t4 + t2) - (t2 + d) with t4 = e - f, t2 = (a+b) - c. *)
  let g = Mclock_workloads.Workload.graph Mclock_workloads.Motivating.t in
  let env =
    List.fold_left2
      (fun acc name value -> Var.Map.add (Var.v name) (B.create ~width:4 value) acc)
      Var.Map.empty
      [ "a"; "b"; "c"; "d"; "e"; "f" ]
      [ 1; 2; 3; 4; 9; 5 ]
  in
  let t2 = (1 + 2 - 3) land 15 in
  let t3 = (t2 + 4) land 15 in
  let t4 = (9 - 5) land 15 in
  let t5 = (t4 + t2) land 15 in
  let expected = (t5 - t3) land 15 in
  let out = Mclock_sim.Golden.eval ~width:4 g env in
  check Alcotest.int "hand computation" expected
    (B.to_int (Var.Map.find (Var.v "out") out))

(* --- Slot-compiled oracle vs. a plain environment fold ---------------------- *)

(* The evaluator the slot-compiled oracle replaced: fold the nodes over
   a variable map, in node order. *)
let fold_eval ~width graph env =
  let env =
    List.fold_left
      (fun env node ->
        let operand = function
          | Node.Operand_var v -> Var.Map.find v env
          | Node.Operand_const c -> B.create ~width c
        in
        Var.Map.add (Node.result node)
          (Op.eval (Node.op node) (List.map operand (Node.operands node)))
          env)
      env (Graph.nodes graph)
  in
  List.map (fun v -> Var.Map.find v env) (Graph.outputs graph)

(* A random layered DFG over the whole op alphabet, plus one node with
   a constant operand (the generator draws none) as an extra output. *)
let oracle_case_gen =
  let gen (seed, width) =
    let rng = Mclock_util.Rng.create seed in
    let spec =
      {
        Generator.name = "oracle";
        layers = 1 + Mclock_util.Rng.int rng 4;
        width = 1 + Mclock_util.Rng.int rng 3;
        num_inputs = 1 + Mclock_util.Rng.int rng 4;
        ops = Op.all;
      }
    in
    let g = (Generator.generate rng spec).Generator.graph in
    let src = List.hd (Graph.outputs g) in
    let k = Var.v "k_const" in
    let node =
      Node.make ~id:(Graph.node_count g + 1)
        ~op:(Mclock_util.Rng.choose rng [ Op.Add; Op.Sub; Op.Div; Op.Shl ])
        ~operands:[ Node.Operand_var src; Node.Operand_const (Mclock_util.Rng.bits rng) ]
        ~result:k
    in
    let graph =
      Graph.create ~name:"oracle" ~inputs:(Graph.inputs g)
        ~outputs:(Graph.outputs g @ [ k ])
        (Graph.nodes g @ [ node ])
    in
    let row =
      Array.of_list
        (List.map (fun _ -> Mclock_util.Rng.bits rng) (Graph.inputs graph))
    in
    (width, graph, row)
  in
  QCheck.map gen QCheck.(pair small_nat (int_range 1 16))

let prop_oracle_matches_fold =
  QCheck.Test.make ~name:"slot-compiled oracle = environment fold" ~count:300
    oracle_case_gen (fun (width, graph, row) ->
      let oracle = Mclock_sim.Golden.compile ~width graph in
      let env =
        List.fold_left2
          (fun env v x -> Var.Map.add v (B.create ~width x) env)
          Var.Map.empty (Graph.inputs graph) (Array.to_list row)
      in
      let expected = fold_eval ~width graph env in
      let got = Array.to_list (Mclock_sim.Golden.run oracle row) in
      let via_eval =
        let out = Mclock_sim.Golden.eval ~width graph env in
        List.map (fun v -> Var.Map.find v out) (Graph.outputs graph)
      in
      List.equal B.equal expected got && List.equal B.equal expected via_eval)

(* Corrupting one observed output of a real run must be reported as
   exactly that iteration, variable, expected and actual value; erasing
   one must be reported as never observed. *)
let test_verify_pinpoints_corruption () =
  let w = Mclock_workloads.Facet.t in
  let graph = Mclock_workloads.Workload.graph w in
  let design =
    Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"corrupt"
      (Mclock_workloads.Workload.schedule w)
  in
  let width = Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath design) in
  let r = Mclock_sim.Simulator.run ~seed:3 tech design ~iterations:9 in
  let module S = Mclock_sim.Simulator in
  let module V = Mclock_sim.Verify in
  check Alcotest.bool "clean run verifies" true
    (V.ok (V.check ~width graph r));
  let var = List.nth (Graph.outputs graph) 1 in
  let col = S.column r.S.output_vars var in
  let good = r.S.outputs.(5).(col) in
  let bad = (good + 1) land ((1 lsl width) - 1) in
  r.S.outputs.(5).(col) <- bad;
  (match (V.check ~width graph r).V.mismatches with
  | [ m ] ->
      check Alcotest.int "iteration" 6 m.V.iteration;
      check Alcotest.string "variable" (Var.name var) (Var.name m.V.var);
      check Alcotest.int "expected" good (B.to_int m.V.expected);
      check Alcotest.(option int) "actual" (Some bad)
        (Option.map B.to_int m.V.actual)
  | ms -> fail (Printf.sprintf "%d mismatches, expected 1" (List.length ms)));
  r.S.outputs.(5).(col) <- S.unobserved;
  match (V.check ~width graph r).V.mismatches with
  | [ { V.iteration = 6; actual = None; _ } ] -> ()
  | _ -> fail "an erased output must be reported as never observed"

(* --- Functional correctness of all flows ---------------------------------- *)

let methods =
  [
    Flow.Conventional_non_gated;
    Flow.Conventional_gated;
    Flow.Integrated 1;
    Flow.Integrated 2;
    Flow.Integrated 3;
    Flow.Integrated 4;
    Flow.Split 2;
    Flow.Split 3;
  ]

let test_functional workload method_ () =
  let graph = Mclock_workloads.Workload.graph workload in
  let schedule = Mclock_workloads.Workload.schedule workload in
  let design = Flow.synthesize ~method_ ~name:"f" schedule in
  let report = Mclock_sim.Verify.run ~seed:17 ~iterations:30 tech design graph in
  match report.Mclock_sim.Verify.mismatches with
  | [] -> ()
  | m :: _ -> fail (Fmt.str "%a" Mclock_sim.Verify.pp_mismatch m)

let functional_tests =
  List.concat_map
    (fun w ->
      List.map
        (fun m ->
          ( Printf.sprintf "functional %s / %s" w.Mclock_workloads.Workload.name
              (Flow.method_label m),
            `Quick,
            test_functional w m ))
        methods)
    Mclock_workloads.Catalog.all

let test_functional_random_graphs () =
  (* Random layered DFGs through the full integrated flow. *)
  let rng = Mclock_util.Rng.create 2024 in
  List.iter
    (fun i ->
      let spec =
        {
          Generator.name = Printf.sprintf "rnd%d" i;
          layers = 3 + Mclock_util.Rng.int rng 3;
          width = 2 + Mclock_util.Rng.int rng 3;
          num_inputs = 3;
          ops = [ Op.Add; Op.Sub; Op.Mul; Op.And ];
        }
      in
      let r = Generator.generate rng spec in
      let s = Mclock_sched.Schedule.create r.Generator.graph r.Generator.steps in
      List.iter
        (fun n ->
          let design = Integrated.allocate ~n ~name:"rnd" s in
          let report =
            Mclock_sim.Verify.run ~seed:i ~iterations:10 tech design r.Generator.graph
          in
          if not (Mclock_sim.Verify.ok report) then
            fail
              (Fmt.str "random graph %d n=%d: %a" i n Mclock_sim.Verify.pp_mismatch
                 (List.hd report.Mclock_sim.Verify.mismatches)))
        [ 1; 2; 3 ])
    (Mclock_util.List_ext.range 1 6)

(* --- Simulator accounting --------------------------------------------------- *)

let facet_design method_ =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  Flow.synthesize ~method_ ~name:"facet_s" s

let test_sim_deterministic () =
  let d = facet_design (Flow.Integrated 2) in
  let r1 = Mclock_sim.Simulator.run ~seed:5 tech d ~iterations:50 in
  let r2 = Mclock_sim.Simulator.run ~seed:5 tech d ~iterations:50 in
  check (Alcotest.float 1e-9) "same energy" r1.Mclock_sim.Simulator.energy_pj
    r2.Mclock_sim.Simulator.energy_pj

let test_sim_seed_changes_inputs () =
  let d = facet_design (Flow.Integrated 2) in
  let r1 = Mclock_sim.Simulator.run ~seed:5 tech d ~iterations:20 in
  let r2 = Mclock_sim.Simulator.run ~seed:6 tech d ~iterations:20 in
  if r1.Mclock_sim.Simulator.inputs = r2.Mclock_sim.Simulator.inputs then
    fail "different seeds produced identical stimulus"

let test_sim_energy_scales_with_iterations () =
  let d = facet_design Flow.Conventional_non_gated in
  let r1 = Mclock_sim.Simulator.run ~seed:5 tech d ~iterations:100 in
  let r2 = Mclock_sim.Simulator.run ~seed:5 tech d ~iterations:200 in
  let ratio = r2.Mclock_sim.Simulator.energy_pj /. r1.Mclock_sim.Simulator.energy_pj in
  check Alcotest.bool "roughly doubles" true (ratio > 1.8 && ratio < 2.2)

let test_sim_power_positive () =
  List.iter
    (fun m ->
      let d = facet_design m in
      let r = Mclock_sim.Simulator.run tech d ~iterations:50 in
      check Alcotest.bool (Flow.method_label m) true
        (r.Mclock_sim.Simulator.power_mw > 0.))
    methods

let test_sim_clock_energy_scales_inverse_n () =
  (* Per-element clock energy falls with the clock count: compare a
     2-clock and the matching 1-clock design's clock energy per
     storage element. *)
  let d1 = facet_design (Flow.Integrated 1) in
  let d2 = facet_design (Flow.Integrated 2) in
  let clock_energy d =
    let r = Mclock_sim.Simulator.run ~seed:3 tech d ~iterations:100 in
    List.assoc Mclock_sim.Activity.Clock
      (Mclock_sim.Activity.by_category r.Mclock_sim.Simulator.activity)
    /. float (Mclock_rtl.Datapath.memory_cells (Mclock_rtl.Design.datapath d))
  in
  check Alcotest.bool "per-cell clock energy halves" true
    (clock_energy d2 < 0.7 *. clock_energy d1)

let test_sim_gating_cuts_clock_energy () =
  let dn = facet_design Flow.Conventional_non_gated in
  let dg = facet_design Flow.Conventional_gated in
  let clock_energy d =
    let r = Mclock_sim.Simulator.run ~seed:3 tech d ~iterations:100 in
    List.assoc Mclock_sim.Activity.Clock
      (Mclock_sim.Activity.by_category r.Mclock_sim.Simulator.activity)
  in
  check Alcotest.bool "gated clock energy lower" true
    (clock_energy dg < clock_energy dn)

let test_sim_isolation_appears_only_when_gated () =
  let r = Mclock_sim.Simulator.run tech (facet_design Flow.Conventional_gated) ~iterations:50 in
  let cats = List.map fst (Mclock_sim.Activity.by_category r.Mclock_sim.Simulator.activity) in
  check Alcotest.bool "isolation present" true
    (List.mem Mclock_sim.Activity.Isolation cats);
  let r2 = Mclock_sim.Simulator.run tech (facet_design (Flow.Integrated 2)) ~iterations:50 in
  let cats2 = List.map fst (Mclock_sim.Activity.by_category r2.Mclock_sim.Simulator.activity) in
  check Alcotest.bool "no isolation in multiclock" false
    (List.mem Mclock_sim.Activity.Isolation cats2)

let test_sim_rejects_zero_iterations () =
  Alcotest.check_raises "0 iterations"
    (Invalid_argument "Simulator.run: iterations must be >= 1") (fun () ->
      ignore
        (Mclock_sim.Simulator.run tech (facet_design (Flow.Integrated 1)) ~iterations:0))

let test_activity_bookkeeping () =
  let a = Mclock_sim.Activity.create () in
  Mclock_sim.Activity.add a ~comp:1 ~category:Mclock_sim.Activity.Clock 2.0;
  Mclock_sim.Activity.add a ~comp:1 ~category:Mclock_sim.Activity.Data 1.0;
  Mclock_sim.Activity.add a ~comp:2 ~category:Mclock_sim.Activity.Clock 3.0;
  check (Alcotest.float 1e-9) "total" 6.0 (Mclock_sim.Activity.total a);
  check (Alcotest.float 1e-9) "comp 1" 3.0 (Mclock_sim.Activity.of_component a 1);
  check (Alcotest.float 1e-9) "clock cat" 5.0
    (List.assoc Mclock_sim.Activity.Clock (Mclock_sim.Activity.by_category a))

(* --- VCD ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_vcd_structure () =
  let vcd = Mclock_sim.Vcd.create () in
  let s1 = Mclock_sim.Vcd.register vcd ~name:"sig1" ~width:4 in
  Mclock_sim.Vcd.sample vcd ~time:1 [ (s1, B.create ~width:4 5) ];
  Mclock_sim.Vcd.sample vcd ~time:2 [ (s1, B.create ~width:4 5) ];
  Mclock_sim.Vcd.sample vcd ~time:3 [ (s1, B.create ~width:4 9) ];
  let out = Mclock_sim.Vcd.contents vcd in
  check Alcotest.bool "header" true (contains out "$enddefinitions");
  check Alcotest.bool "initial value" true (contains out "b0101");
  check Alcotest.bool "change at 3" true (contains out "#3");
  check Alcotest.bool "no redundant #2" false (contains out "#2")

let test_vcd_from_simulation () =
  let vcd = Mclock_sim.Vcd.create () in
  let d = facet_design (Flow.Integrated 2) in
  let _ =
    Mclock_sim.Simulator.run ~seed:1
      ~trace:{ Mclock_sim.Simulator.vcd; max_cycles = 12 }
      tech d ~iterations:5
  in
  let out = Mclock_sim.Vcd.contents vcd in
  check Alcotest.bool "has var decls" true (contains out "$var wire 4");
  check Alcotest.bool "has samples" true (contains out "#1")

let suite =
  [
    ("golden simple", `Quick, test_golden_simple);
    ("golden missing input", `Quick, test_golden_missing_input);
    ("golden motivating by hand", `Quick, test_golden_motivating_by_hand);
    ("functional random graphs", `Quick, test_functional_random_graphs);
    ("sim deterministic", `Quick, test_sim_deterministic);
    ("sim seed changes inputs", `Quick, test_sim_seed_changes_inputs);
    ("sim energy scales with iterations", `Quick, test_sim_energy_scales_with_iterations);
    ("sim power positive", `Quick, test_sim_power_positive);
    ("sim clock energy inverse n", `Quick, test_sim_clock_energy_scales_inverse_n);
    ("sim gating cuts clock energy", `Quick, test_sim_gating_cuts_clock_energy);
    ("sim isolation only when gated", `Quick, test_sim_isolation_appears_only_when_gated);
    ("sim rejects zero iterations", `Quick, test_sim_rejects_zero_iterations);
    ("activity bookkeeping", `Quick, test_activity_bookkeeping);
    ("vcd structure", `Quick, test_vcd_structure);
    ("vcd from simulation", `Quick, test_vcd_from_simulation);
  ]
  @ functional_tests
  @ [
      Seeded.to_alcotest prop_oracle_matches_fold;
      ("verify pinpoints corruption", `Quick, test_verify_pinpoints_corruption);
    ]
