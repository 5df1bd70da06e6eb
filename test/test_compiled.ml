(* Differential tests for the compiled simulation kernel: it must be
   charge-for-charge identical to the reference interpreter — same
   energy, same per-(component, category) activity cells, same
   iteration outputs — across the workload catalog, both allocators,
   and several batch sizes; plus VCD/observer parity and the loud
   failure on out-of-range mux selects. *)

open Mclock_core
open Mclock_rtl
module B = Mclock_util.Bitvec
module Sim = Mclock_sim.Simulator
module Compiled = Mclock_sim.Compiled
module Activity = Mclock_sim.Activity
module Var = Mclock_dfg.Var

let check = Alcotest.check
let fail = Alcotest.fail
let tech = Mclock_tech.Cmos08.t
(* Results carry one int row per computation; equal results have equal
   column headers and equal rows. *)
let matrices_equal vars_a a vars_b b =
  Array.length vars_a = Array.length vars_b
  && Array.for_all2 Var.equal vars_a vars_b
  && a = b

(* A result's input rows as the env list [~stimulus] takes. *)
let stimulus_of ~width (r : Sim.result) =
  Array.to_list
    (Array.map
       (fun row ->
         Array.fold_left
           (fun (j, env) v -> (j + 1, Var.Map.add v (B.create ~width row.(j)) env))
           (0, Var.Map.empty) r.Sim.input_vars
         |> snd)
       r.Sim.inputs)

let assert_identical label (r : Sim.result) (c : Sim.result) =
  check Alcotest.int (label ^ ": cycles") r.Sim.cycles c.Sim.cycles;
  if not (Float.equal r.Sim.energy_pj c.Sim.energy_pj) then
    fail
      (Printf.sprintf "%s: energy %.17g (reference) vs %.17g (compiled)" label
         r.Sim.energy_pj c.Sim.energy_pj);
  if not (Float.equal r.Sim.power_mw c.Sim.power_mw) then
    fail (label ^ ": power differs");
  if not (Activity.equal_cells r.Sim.activity c.Sim.activity) then
    fail (label ^ ": per-(component, category) activity differs");
  if not (matrices_equal r.Sim.input_vars r.Sim.inputs c.Sim.input_vars c.Sim.inputs)
  then
    fail (label ^ ": input streams differ");
  if
    not
      (matrices_equal r.Sim.output_vars r.Sim.outputs c.Sim.output_vars
         c.Sim.outputs)
  then
    fail (label ^ ": outputs differ")

(* Catalog x both conventional styles x both allocators at n in
   {1, 2, 4}, each at 1, 2 and 4 computations. *)
let methods =
  [
    Flow.Conventional_non_gated;
    Flow.Conventional_gated;
    Flow.Integrated 1;
    Flow.Integrated 2;
    Flow.Integrated 3;
    Flow.Integrated 4;
    Flow.Split 1;
    Flow.Split 2;
    Flow.Split 4;
  ]

let test_differential workload method_ () =
  let schedule = Mclock_workloads.Workload.schedule workload in
  let design = Flow.synthesize ~method_ ~name:"diff" schedule in
  let kernel = Compiled.compile tech design in
  List.iter
    (fun iterations ->
      let label =
        Printf.sprintf "%s/%s/n=%d" workload.Mclock_workloads.Workload.name
          (Flow.method_label method_) iterations
      in
      let r = Sim.run ~seed:97 tech design ~iterations in
      let c = Compiled.run ~seed:97 kernel ~iterations in
      assert_identical label r c)
    [ 1; 2; 4 ]

let differential_tests =
  List.concat_map
    (fun w ->
      List.map
        (fun m ->
          ( Printf.sprintf "compiled = reference: %s / %s"
              w.Mclock_workloads.Workload.name (Flow.method_label m),
            `Quick,
            test_differential w m ))
        methods)
    Mclock_workloads.Catalog.all

(* A compiled design is reusable: one [compile], many seeds, each
   matching a fresh reference run. *)
let test_compile_once_many_seeds () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Biquad.t in
  let design = Flow.synthesize ~method_:(Flow.Integrated 3) ~name:"reuse" s in
  let kernel = Compiled.compile tech design in
  List.iter
    (fun seed ->
      let r = Sim.run ~seed tech design ~iterations:8 in
      let c = Compiled.run ~seed kernel ~iterations:8 in
      assert_identical (Printf.sprintf "seed %d" seed) r c)
    [ 1; 42; 1234 ]

(* Explicit stimulus takes the same path through both kernels. *)
let test_stimulus_parity () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let design = Flow.synthesize ~method_:(Flow.Split 2) ~name:"stim" s in
  let probe = Sim.run ~seed:7 tech design ~iterations:6 in
  let stimulus =
    stimulus_of
      ~width:(Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath design))
      probe
  in
  let r = Sim.run ~stimulus tech design ~iterations:6 in
  let c = Compiled.run ~stimulus (Compiled.compile tech design) ~iterations:6 in
  assert_identical "stimulus" r c;
  if r.Sim.inputs <> probe.Sim.inputs then fail "stimulus not echoed"

(* Seeded VCD parity: the trace streams must be byte-identical. *)
let test_vcd_parity () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let design = Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"vcdp" s in
  let capture run =
    let vcd = Mclock_sim.Vcd.create () in
    ignore (run ~trace:{ Sim.vcd; max_cycles = 60 });
    Mclock_sim.Vcd.contents vcd
  in
  let reference =
    capture (fun ~trace -> Sim.run ~seed:11 ~trace tech design ~iterations:5)
  in
  let kernel = Compiled.compile tech design in
  let compiled =
    capture (fun ~trace -> Compiled.run ~seed:11 ~trace kernel ~iterations:5)
  in
  check Alcotest.string "identical VCD" reference compiled

(* Seeded observer parity: every component value at the end of every
   cycle, plus the step/phase bookkeeping. *)
let test_observer_parity () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Hal.t in
  let design = Flow.synthesize ~method_:(Flow.Split 2) ~name:"obsp" s in
  let comp_ids =
    List.map Comp.id (Datapath.comps (Design.datapath design))
  in
  let capture run =
    let log = ref [] in
    let observer o =
      log :=
        ( o.Sim.obs_cycle,
          o.Sim.obs_step,
          o.Sim.obs_phase,
          List.map (fun id -> B.to_int (o.Sim.obs_value id)) comp_ids )
        :: !log
    in
    ignore (run ~observer);
    List.rev !log
  in
  let reference =
    capture (fun ~observer -> Sim.run ~seed:3 ~observer tech design ~iterations:4)
  in
  let kernel = Compiled.compile tech design in
  let compiled =
    capture (fun ~observer -> Compiled.run ~seed:3 ~observer kernel ~iterations:4)
  in
  if reference <> compiled then fail "observer streams differ"

(* A control word selecting a nonexistent mux choice fails loudly in
   both kernels: the interpreter at the offending cycle, the compiler
   at compile time. *)
let bad_select_design () =
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let m =
    Datapath.add_mux dp ~name:"m" ~phase:1
      ~choices:[| Comp.From_comp a; Comp.From_const 1 |]
  in
  let r =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp m) ~gated:false ~holds:[]
  in
  Datapath.set_output dp (Var.v "y") (Comp.From_comp r);
  let control =
    Control.create
      [ { Control.selects = [ (m, 5) ]; loads = [ r ]; alu_ops = [] } ]
  in
  Design.create ~name:"bad" ~behaviour:"bad" ~datapath:dp ~control
    ~clock:(Clock.single ~frequency:50e6)
    ~style:Design.conventional_style
    ~input_ports:[ (Var.v "a", a) ]
    ~output_taps:
      [ { Design.var = Var.v "y"; source = Comp.From_comp r; ready_step = 1 } ]

let test_bad_select_raises () =
  let design = bad_select_design () in
  (match Sim.run tech design ~iterations:1 with
  | _ -> fail "reference accepted an out-of-range mux select"
  | exception Invalid_argument _ -> ());
  match Compiled.compile tech design with
  | _ -> fail "compiler accepted an out-of-range mux select"
  | exception Invalid_argument _ -> ()

(* The per-cycle path allocates nothing: energy charges go to the
   kernel's unboxed cell array and the stimulus is drawn without a
   boxed int64 per value.  What a run still allocates grows with
   computations (one input and one output row each), not with cycles.
   Measured on this design (30 cycles per computation): 0.5 words per
   extra cycle, which is those rows; 30 when [charge] is not inlined
   and every charge boxes its float, and 81 before the kernel owned
   its accumulator (a boxed float per [Activity.add], a boxed int64
   per [Rng.bits]).  The bound of 2 admits the rows and no per-charge
   allocation. *)
let test_allocation_free () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Ewf.t in
  let design = Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"alloc" s in
  let kernel = Compiled.compile tech design in
  let words iterations =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Compiled.run ~seed:42 kernel ~iterations));
    Gc.minor_words () -. before
  in
  let n = 500 in
  ignore (words n);
  let w1 = words n in
  let w2 = words (2 * n) in
  let r = Compiled.run ~seed:42 kernel ~iterations:n in
  let per_cycle = (w2 -. w1) /. float_of_int r.Sim.cycles in
  if per_cycle > 2. then
    fail
      (Printf.sprintf "%.1f words allocated per extra simulated cycle (bound 2)"
         per_cycle)

let suite =
  differential_tests
  @ [
      ("compile once, many seeds", `Quick, test_compile_once_many_seeds);
      ("stimulus parity", `Quick, test_stimulus_parity);
      ("vcd parity", `Quick, test_vcd_parity);
      ("observer parity", `Quick, test_observer_parity);
      ("out-of-range mux select raises", `Quick, test_bad_select_raises);
      ("per-cycle path allocates nothing", `Quick, test_allocation_free);
    ]
