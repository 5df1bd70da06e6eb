(* Tests for the static switching-activity analyzer: closed-form
   stimulus statistics, charge-exact data-independent categories, and
   the headline soundness property — the certified bound dominates
   simulated power on every catalog x method x clock-count cell, under
   both simulation kernels and every stimulus model. *)

open Mclock_core
module Static = Mclock_static
module Workload = Mclock_workloads.Workload
module Catalog = Mclock_workloads.Catalog
module Stimulus = Mclock_sim.Stimulus
module Simulator = Mclock_sim.Simulator
module Compiled = Mclock_sim.Compiled
module Activity = Mclock_sim.Activity
module Rtl = Mclock_rtl

let check = Alcotest.check
let tech = Mclock_tech.Cmos08.t
let width = 4

let methods =
  [
    ("conv", Flow.Conventional_non_gated);
    ("gated", Flow.Conventional_gated);
    ("mc1", Flow.Integrated 1);
    ("mc2", Flow.Integrated 2);
    ("mc3", Flow.Integrated 3);
    ("mc4", Flow.Integrated 4);
    ("split2", Flow.Split 2);
    ("split4", Flow.Split 4);
  ]

let synth w m =
  Flow.synthesize ~method_:m ~name:w.Workload.name (Workload.schedule w)

(* Stimulus statistics: the Ramp closed form must equal the exhaustive
   per-period toggle rate of x -> x + k mod 2^width. *)
let test_ramp_rates () =
  let n = 1 lsl width in
  for k = 0 to n - 1 do
    let rates = Static.Stim.transition (Stimulus.Ramp k) ~width in
    for j = 0 to width - 1 do
      let count = ref 0 in
      for x = 0 to n - 1 do
        if (x lxor ((x + k) land (n - 1))) land (1 lsl j) <> 0 then
          incr count
      done;
      check (Alcotest.float 1e-12)
        (Printf.sprintf "k=%d bit %d" k j)
        (float_of_int !count /. float_of_int n)
        rates.(j)
    done
  done

let test_stimulus_stats () =
  let all_equal name expected arr =
    Array.iteri
      (fun i v ->
        check (Alcotest.float 1e-12) (Printf.sprintf "%s bit %d" name i)
          expected v)
      arr
  in
  all_equal "uniform" 0.5 (Static.Stim.transition Stimulus.Uniform ~width);
  all_equal "correlated" 0.3
    (Static.Stim.transition (Stimulus.Correlated 0.3) ~width);
  all_equal "constant" 0. (Static.Stim.transition Stimulus.Constant ~width);
  (* the bound pins exactly the provably quiet bits *)
  let b = Static.Stim.transition_bound (Stimulus.Ramp 8) ~width in
  check
    Alcotest.(list (float 0.))
    "ramp+8 bound" [ 0.; 0.; 0.; 1. ] (Array.to_list b)

let test_stimulus_parse () =
  let ok s m =
    match Static.Stim.parse s with
    | Ok m' -> check Alcotest.string s (Stimulus.name m) (Stimulus.name m')
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "uniform" Stimulus.Uniform;
  ok "constant" Stimulus.Constant;
  ok "correlated:0.25" (Stimulus.Correlated 0.25);
  ok "ramp:3" (Stimulus.Ramp 3);
  List.iter
    (fun s ->
      match Static.Stim.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "gaussian"; "correlated:1.5"; "correlated:x"; "ramp:-2"; "ramp:" ]

(* The data-independent categories (Clock, Gating, Control,
   Mux_select) are closed forms, not estimates: charge-for-charge
   equal to the simulator on every (component, category) cell. *)
let exact_categories =
  [ Activity.Clock; Activity.Gating; Activity.Control; Activity.Mux_select ]

let max_comp_id design =
  List.fold_left
    (fun acc c -> max acc (Rtl.Comp.id c))
    Activity.global_component
    (Rtl.Datapath.comps (Rtl.Design.datapath design))

let test_exact_categories () =
  let iterations = 37 in
  List.iter
    (fun w ->
      List.iter
        (fun (label, m) ->
          let d = synth w m in
          let a = Static.Analyze.run ~iterations tech d in
          let envs =
            Stimulus.generate Stimulus.Uniform
              (Mclock_util.Rng.create 7)
              ~width ~iterations (Workload.graph w)
          in
          let r = Simulator.run ~seed:7 ~stimulus:envs tech d ~iterations in
          for comp = 0 to max_comp_id d do
            List.iter
              (fun category ->
                let e = Activity.get a.Static.Analyze.estimate ~comp ~category
                and b = Activity.get a.Static.Analyze.bound ~comp ~category
                and s = Activity.get r.Simulator.activity ~comp ~category in
                let name =
                  Printf.sprintf "%s/%s comp %d %s" w.Workload.name label
                    comp
                    (Activity.category_name category)
                in
                check (Alcotest.float (1e-9 *. Float.max 1. s)) name s e;
                check (Alcotest.float (1e-9 *. Float.max 1. s)) name s b)
              exact_categories
          done)
        methods)
    Catalog.all

(* Headline soundness: on every catalog x method cell the certified
   bound dominates both the estimate and the simulated power, in
   total and per component — under the reference kernel. *)
let test_bound_dominates_reference () =
  let iterations = 60 in
  List.iter
    (fun w ->
      List.iter
        (fun (label, m) ->
          let d = synth w m in
          let a = Static.Analyze.run ~iterations tech d in
          let c =
            Static.Report.compare_with_simulation tech d (Workload.graph w) a
          in
          check Alcotest.bool
            (Printf.sprintf "%s/%s sound" w.Workload.name label)
            true c.Static.Report.sound)
        methods)
    Catalog.all

(* ... and under the compiled kernel, with the same stimulus. *)
let test_bound_dominates_compiled () =
  let iterations = 60 in
  List.iter
    (fun w ->
      List.iter
        (fun (label, m) ->
          let d = synth w m in
          let a = Static.Analyze.run ~iterations tech d in
          let envs =
            Stimulus.generate Stimulus.Uniform
              (Mclock_util.Rng.create 42)
              ~width ~iterations (Workload.graph w)
          in
          let r =
            Compiled.run ~seed:42 ~stimulus:envs
              (Compiled.compile tech d)
              ~iterations
          in
          check Alcotest.bool
            (Printf.sprintf "%s/%s compiled sound" w.Workload.name label)
            true
            (Static.Report.leq_tol r.Simulator.power_mw
               a.Static.Analyze.b_power_mw))
        methods)
    Catalog.all

(* Soundness across the non-uniform stimulus models on a spread of
   cells; degenerate stimuli (constant, high-bit ramps) are exactly
   where a naive estimator would overshoot its own certificate. *)
let test_bound_dominates_stimuli () =
  let iterations = 50 in
  let stimuli =
    [
      Stimulus.Correlated 0.15;
      Stimulus.Correlated 0.85;
      Stimulus.Ramp 1;
      Stimulus.Ramp 8;
      Stimulus.Constant;
    ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun (label, m) ->
          let d = synth w m in
          List.iter
            (fun stimulus ->
              let a = Static.Analyze.run ~stimulus ~iterations tech d in
              let c =
                Static.Report.compare_with_simulation tech d
                  (Workload.graph w) a
              in
              check Alcotest.bool
                (Printf.sprintf "%s/%s %s sound" w.Workload.name label
                   (Stimulus.name stimulus))
                true c.Static.Report.sound)
            stimuli)
        [ ("gated", Flow.Conventional_gated); ("mc2", Flow.Integrated 2);
          ("mc4", Flow.Integrated 4); ("split2", Flow.Split 2) ])
    [ Mclock_workloads.Facet.t; Mclock_workloads.Biquad.t ]

(* Documented accuracy band: under the paper's uniform-random
   methodology the estimate lands within 10% of simulation on every
   paper-table benchmark (empirically ~2%; `mclock estimate --compare`
   reports the error of any one cell). *)
let test_estimate_accuracy () =
  let iterations = 100 in
  List.iter
    (fun w ->
      List.iter
        (fun (label, m) ->
          let d = synth w m in
          let a = Static.Analyze.run ~iterations tech d in
          let c =
            Static.Report.compare_with_simulation tech d (Workload.graph w) a
          in
          let err = Float.abs c.Static.Report.rel_error in
          if err > 0.10 then
            Alcotest.failf "%s/%s estimate off by %.1f%%" w.Workload.name
              label (100. *. err))
        methods)
    Catalog.paper_tables

(* Bound tightening: constant inputs provably never toggle the ports
   or the registers that latch them, so the bound charges those cells
   exactly zero — a naive worst-case analysis would not. *)
let test_constant_stimulus_bound_tight () =
  let w = Mclock_workloads.Facet.t in
  let d = synth w (Flow.Integrated 2) in
  let a = Static.Analyze.run ~stimulus:Stimulus.Constant ~iterations:50 tech d in
  List.iter
    (fun (v, port) ->
      check (Alcotest.float 0.)
        (Printf.sprintf "port %d data" port)
        0.
        (Activity.get a.Static.Analyze.bound ~comp:port ~category:Activity.Data);
      match Rtl.Design.input_port d v with
      | None -> ()
      | Some _ ->
          List.iter
            (fun (c, s) ->
              if List.exists (Mclock_dfg.Var.equal v) s.Rtl.Comp.s_holds then
                check (Alcotest.float 0.)
                  (Printf.sprintf "input register %d write" (Rtl.Comp.id c))
                  0.
                  (Activity.get a.Static.Analyze.bound ~comp:(Rtl.Comp.id c)
                     ~category:Activity.Storage_write))
            (Rtl.Datapath.storages (Rtl.Design.datapath d)))
    (Rtl.Design.input_ports d)

(* Random DFGs over every operation at datapath widths 1-6: the catalog
   never uses shifts, division or comparisons, so these are what reach
   the per-operation rules and the constant-folding path beyond
   add/sub/mul/and/or/xor. *)
let generated_designs () =
  let rng = Mclock_util.Rng.create 29 in
  let flow_methods =
    [|
      Flow.Conventional_non_gated;
      Flow.Conventional_gated;
      Flow.Integrated 2;
      Flow.Split 2;
    |]
  in
  List.map
    (fun i ->
      let spec =
        {
          Mclock_dfg.Generator.name = Printf.sprintf "gen%d" i;
          layers = 2 + Mclock_util.Rng.int rng 3;
          width = 2 + Mclock_util.Rng.int rng 2;
          num_inputs = 2 + Mclock_util.Rng.int rng 2;
          ops = Mclock_dfg.Op.all;
        }
      in
      let r = Mclock_dfg.Generator.generate rng spec in
      let s =
        Mclock_sched.Schedule.create r.Mclock_dfg.Generator.graph
          r.Mclock_dfg.Generator.steps
      in
      let params = { Flow.default_params with Flow.width = 1 + (i mod 6) } in
      Flow.synthesize ~params ~method_:flow_methods.(i mod 4)
        ~name:spec.Mclock_dfg.Generator.name s)
    (Mclock_util.List_ext.range 0 39)

(* The analyzer's exact bits: an MD5 over the [%h] rendering of every
   estimate and bound cell and both totals, across the catalog, the
   generated designs, every stimulus model and run lengths that cover
   the first period alone (1), the switch to the steady period (3) and
   a long steady run (40).  Any change to the propagation's float
   expressions or charge order moves the digest.  The committed value
   was produced by the list-walking engine that preceded the flat-array
   one, and the flat-array engine reproduces it. *)
let analyzer_bits_digest = "17cef2680e13b0e34add718d8b7457d3"

let test_analyzer_bits_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let stimuli =
    [ Stimulus.Uniform; Stimulus.Correlated 0.3; Stimulus.Ramp 3; Stimulus.Constant ]
  in
  let designs =
    List.concat_map
      (fun w -> List.map (fun (_, m) -> synth w m) methods)
      Catalog.all
    @ generated_designs ()
  in
  List.iter
    (fun d ->
      let max_comp = max_comp_id d in
      List.iter
        (fun stimulus ->
          List.iter
            (fun iterations ->
              let a = Static.Analyze.run ~stimulus ~iterations tech d in
              List.iter
                (fun act ->
                  for comp = 0 to max_comp do
                    List.iter
                      (fun category ->
                        Printf.bprintf buf "%h " (Activity.get act ~comp ~category))
                      Activity.all_categories
                  done;
                  Printf.bprintf buf "%h\n" (Activity.total act))
                [ a.Static.Analyze.estimate; a.Static.Analyze.bound ])
            [ 1; 3; 40 ])
        stimuli)
    designs;
  check Alcotest.string "analyzer digest" analyzer_bits_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The propagation's cycle loop allocates nothing: per-bit state is
   flat float arrays, sources are offsets resolved once per run, and
   the combinators and charges are same-module inlined float code.
   What a run still allocates is its compiled design and result, fixed
   per run.  Measured on ewf/mc2: 0.00 words per extra cycle in both
   modes; the list-walking engine this replaced allocated 2,733
   (estimate) and 2,327 (bound) per cycle, from boxed combinator
   results, source-view tuples, [Array.init] closures and charges. *)
let test_propagation_allocation_free () =
  let d = synth Mclock_workloads.Ewf.t (Flow.Integrated 2) in
  let model = Rtl.Schedule_model.build d in
  List.iter
    (fun (label, mode) ->
      let words iterations =
        let before = Gc.minor_words () in
        ignore
          (Sys.opaque_identity
             (Static.Propagate.run mode tech d model ~stimulus:Stimulus.Uniform
                ~iterations));
        Gc.minor_words () -. before
      in
      ignore (words 100);
      let w1 = words 100 in
      let w2 = words 200 in
      let per_cycle =
        (w2 -. w1) /. float_of_int (100 * model.Rtl.Schedule_model.t_steps)
      in
      if per_cycle > 1. then
        Alcotest.failf
          "%s: %.2f words allocated per extra propagated cycle (bound 1)" label
          per_cycle)
    [ ("estimate", Static.Propagate.Estimate); ("bound", Static.Propagate.Bound) ]

let suite =
  [
    Alcotest.test_case "ramp rates exact" `Quick test_ramp_rates;
    Alcotest.test_case "propagation allocates nothing per cycle" `Quick
      test_propagation_allocation_free;
    Alcotest.test_case "analyzer bits pinned" `Quick test_analyzer_bits_pinned;
    Alcotest.test_case "stimulus stats" `Quick test_stimulus_stats;
    Alcotest.test_case "stimulus parse" `Quick test_stimulus_parse;
    Alcotest.test_case "exact categories" `Slow test_exact_categories;
    Alcotest.test_case "bound dominates (reference)" `Slow
      test_bound_dominates_reference;
    Alcotest.test_case "bound dominates (compiled)" `Slow
      test_bound_dominates_compiled;
    Alcotest.test_case "bound dominates (stimuli)" `Slow
      test_bound_dominates_stimuli;
    Alcotest.test_case "estimate accuracy" `Slow test_estimate_accuracy;
    Alcotest.test_case "constant bound tight" `Quick
      test_constant_stimulus_bound_tight;
  ]
