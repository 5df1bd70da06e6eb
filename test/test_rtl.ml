(* Unit tests for mclock_rtl: clocks, datapath wiring, controller,
   checkers, VHDL/DOT emitters. *)

open Mclock_dfg
open Mclock_rtl

let check = Alcotest.check
let fail = Alcotest.fail

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Clock ------------------------------------------------------------- *)

let test_clock_phase_of_cycle () =
  let c = Clock.create ~phases:3 ~frequency:10e6 in
  check Alcotest.(list int) "phases cycle" [ 1; 2; 3; 1; 2; 3 ]
    (List.map (Clock.phase_of_cycle c) (Mclock_util.List_ext.range 1 6))

let test_clock_single () =
  let c = Clock.single ~frequency:10e6 in
  check Alcotest.int "always phase 1" 1 (Clock.phase_of_cycle c 17)

let test_clock_phase_frequency () =
  let c = Clock.create ~phases:4 ~frequency:20e6 in
  check (Alcotest.float 1.) "f/4" 5e6 (Clock.phase_frequency c)

let test_clock_non_overlapping () =
  List.iter
    (fun n ->
      let c = Clock.create ~phases:n ~frequency:10e6 in
      check Alcotest.bool (Printf.sprintf "%d phases" n) true
        (Clock.non_overlapping c))
    [ 1; 2; 3; 4; 5; 8 ]

let test_clock_waveform_pulses () =
  let c = Clock.create ~phases:2 ~frequency:10e6 in
  check
    Alcotest.(list bool)
    "clk1 over 2 cycles"
    [ true; false; false; false ]
    (Clock.waveform c ~phase:1 ~cycles:2);
  check
    Alcotest.(list bool)
    "clk2 over 2 cycles"
    [ false; false; true; false ]
    (Clock.waveform c ~phase:2 ~cycles:2)

let test_clock_render () =
  let c = Clock.create ~phases:2 ~frequency:10e6 in
  let s = Clock.render_waveforms c ~cycles:4 in
  check Alcotest.bool "has CLK1 row" true (contains s "CLK1");
  check Alcotest.bool "has CLK2 row" true (contains s "CLK2")

let test_clock_invalid () =
  Alcotest.check_raises "0 phases" (Invalid_argument "Clock.create: phases must be >= 1")
    (fun () -> ignore (Clock.create ~phases:0 ~frequency:1e6))

(* --- Datapath ------------------------------------------------------------ *)

(* A minimal FB: in -> alu(+const) -> reg, plus a mux in front. *)
let tiny_datapath () =
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let b = Datapath.add_input dp (Var.v "b") in
  let mux =
    Datapath.add_mux dp ~name:"m" ~phase:1
      ~choices:[| Comp.From_comp a; Comp.From_comp b |]
  in
  let alu =
    Datapath.add_alu dp ~name:"alu" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp mux) ~src_b:(Some (Comp.From_const 1))
      ~isolated:false ~ops:[ 1 ]
  in
  let reg =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp alu) ~gated:false ~holds:[ Var.v "x" ]
  in
  Datapath.set_output dp (Var.v "x") (Comp.From_comp reg);
  (dp, a, b, mux, alu, reg)

let test_datapath_stats () =
  let dp, _, _, _, _, _ = tiny_datapath () in
  check Alcotest.int "mem cells" 1 (Datapath.memory_cells dp);
  check Alcotest.int "mux inputs" 2 (Datapath.mux_input_count dp);
  check Alcotest.string "alus" "1(+)" (Datapath.alu_inventory_string dp)

let test_datapath_validate_ok () =
  let dp, _, _, _, _, _ = tiny_datapath () in
  Datapath.validate dp

let test_datapath_combinational_order () =
  let dp, _, _, mux, alu, _ = tiny_datapath () in
  match List.map Comp.id (Datapath.combinational_order dp) with
  | [ m; a ] ->
      check Alcotest.int "mux first" mux m;
      check Alcotest.int "alu second" alu a
  | _ -> fail "expected 2 combinational comps"

let test_datapath_fanout () =
  let dp, a, _, _, alu, _ = tiny_datapath () in
  let fanout = Datapath.fanout_counts dp in
  check Alcotest.int "input a feeds mux" 1 (fanout a);
  check Alcotest.int "alu feeds reg" 1 (fanout alu)

let test_datapath_rejects_dangling () =
  let dp = Datapath.create ~width:4 in
  let _ =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp 99) ~gated:false ~holds:[]
  in
  try
    Datapath.validate dp;
    fail "dangling reference accepted"
  with Datapath.Invalid _ -> ()

let test_datapath_rejects_comb_cycle () =
  let dp = Datapath.create ~width:4 in
  (* alu1 <- alu2 <- alu1: a combinational loop. *)
  let alu1 =
    Datapath.add_alu dp ~name:"a1" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp 2) ~src_b:None ~isolated:false ~ops:[]
  in
  let _alu2 =
    Datapath.add_alu dp ~name:"a2" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp alu1) ~src_b:None ~isolated:false ~ops:[]
  in
  try
    Datapath.validate dp;
    fail "combinational cycle accepted"
  with Datapath.Invalid _ -> ()

let test_datapath_storage_feedback_allowed () =
  let dp = Datapath.create ~width:4 in
  (* alu <- reg <- alu: fine, feedback passes through storage. *)
  let alu =
    Datapath.add_alu dp ~name:"a" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp 2) ~src_b:None ~isolated:false ~ops:[]
  in
  let _reg =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp alu) ~gated:false ~holds:[]
  in
  Datapath.validate dp

let test_datapath_rejects_tiny_mux () =
  let dp = Datapath.create ~width:4 in
  try
    ignore (Datapath.add_mux dp ~name:"m" ~phase:1 ~choices:[| Comp.From_const 0 |]);
    fail "1-input mux accepted"
  with Datapath.Invalid _ -> ()

(* --- Control --------------------------------------------------------------- *)

let test_control_wraps () =
  let w1 = { Control.selects = [ (1, 0) ]; loads = [ 2 ]; alu_ops = [] } in
  let w2 = { Control.selects = []; loads = []; alu_ops = [] } in
  let c = Control.create [ w1; w2 ] in
  check Alcotest.int "period" 2 (Control.num_steps c);
  check Alcotest.(list int) "step 3 = step 1 loads" [ 2 ] (Control.loads c ~step:3);
  check Alcotest.(option int) "select wrap" (Some 0) (Control.select c ~step:3 ~mux:1)

let test_control_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Control.create: no control words")
    (fun () -> ignore (Control.create []))

let test_control_duplicate_rejected () =
  let ok = Control.empty_word in
  let raises what word =
    Alcotest.check_raises what (Invalid_argument what) (fun () ->
        ignore (Control.create [ ok; word ]))
  in
  raises "Control.create: step 2 assigns mux 3 twice"
    { ok with Control.selects = [ (3, 0); (4, 1); (3, 1) ] };
  raises "Control.create: step 2 assigns load 5 twice"
    { ok with Control.loads = [ 5; 6; 5 ] };
  raises "Control.create: step 2 assigns ALU 9 twice"
    { ok with Control.alu_ops = [ (9, Op.Add); (9, Op.Add) ] };
  (* The same id on different kinds of line is not a clash. *)
  ignore
    (Control.create
       [ { Control.selects = [ (3, 1) ]; loads = [ 3 ]; alu_ops = [ (3, Op.Sub) ] } ])

(* --- Schedule replay ------------------------------------------------------- *)

(* A hand-built two-step design: step 1 reselects the mux, switches the
   ALU from its reset function and loads [r]; step 2 assigns nothing,
   so every line holds.  Input [a] is sampled into register [ra]. *)
let test_schedule_model_replay () =
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let b = Datapath.add_input dp (Var.v "b") in
  let ra =
    Datapath.add_storage dp ~name:"ra" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp a) ~gated:false ~holds:[ Var.v "a" ]
  in
  let m =
    Datapath.add_mux dp ~name:"m" ~phase:1
      ~choices:[| Comp.From_comp ra; Comp.From_comp b |]
  in
  let fset = Op.Set.of_list [ Op.Sub; Op.Add ] in
  let alu =
    Datapath.add_alu dp ~name:"alu" ~fset ~phase:1 ~src_a:(Comp.From_comp m)
      ~src_b:(Some (Comp.From_comp b)) ~isolated:false ~ops:[]
  in
  let r =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp alu) ~gated:false ~holds:[ Var.v "y" ]
  in
  let control =
    Control.create
      [
        { Control.selects = [ (m, 1) ]; loads = [ r ]; alu_ops = [ (alu, Op.Sub) ] };
        Control.empty_word;
      ]
  in
  let design =
    Design.create ~name:"replay" ~behaviour:"replay" ~datapath:dp ~control
      ~clock:(Clock.create ~phases:1 ~frequency:1e6)
      ~style:Design.conventional_style
      ~input_ports:[ (Var.v "a", a); (Var.v "b", b) ]
      ~output_taps:[]
  in
  let model = Schedule_model.build design in
  let op = Alcotest.testable Op.pp Op.equal in
  let alu_comp =
    match Comp.kind (Datapath.comp dp alu) with
    | Comp.Alu x -> x
    | _ -> fail "not an ALU"
  in
  check op "default op: first of the set" Op.Add
    (Schedule_model.default_op alu_comp);
  check Alcotest.(option op) "reset op" (Some Op.Add) model.reset_op.(alu);
  check
    Alcotest.(list (triple int int (option int)))
    "input plumbing" [ (0, a, Some ra); (1, b, None) ]
    (Schedule_model.input_plumbing design);
  let expect label (s : Schedule_model.step) ~sel_changed ~op_changed ~busy
      ~load ~changes =
    check Alcotest.int (label ^ " held select") 1 s.sel.(m);
    check Alcotest.bool (label ^ " select changed") sel_changed s.sel_changed.(m);
    check Alcotest.(option op) (label ^ " held op") (Some Op.Sub) s.op.(alu);
    check Alcotest.bool (label ^ " op changed") op_changed s.op_changed.(alu);
    check Alcotest.bool (label ^ " busy") busy s.busy.(alu);
    check Alcotest.bool (label ^ " load") load s.loads.(r);
    check Alcotest.int (label ^ " control changes") changes s.control_changes
  in
  (* From reset: select 0 -> 1, Add -> Sub and the load edge. *)
  expect "first 1" model.first.(0) ~sel_changed:true ~op_changed:true
    ~busy:true ~load:true ~changes:3;
  expect "first 2" model.first.(1) ~sel_changed:false ~op_changed:false
    ~busy:false ~load:false ~changes:1;
  (* Every later period: the held lines no longer change, only the
     load-enable toggles. *)
  expect "steady 1" model.steady.(0) ~sel_changed:false ~op_changed:false
    ~busy:true ~load:true ~changes:1;
  expect "steady 2" model.steady.(1) ~sel_changed:false ~op_changed:false
    ~busy:false ~load:false ~changes:1;
  check Alcotest.bool "cycle 2 is first" true
    (Schedule_model.step_at model ~cycle:2 == model.first.(1));
  check Alcotest.bool "cycle 5 is steady" true
    (Schedule_model.step_at model ~cycle:5 == model.steady.(0))

(* --- Full designs (via the allocator) and checkers ------------------------- *)

let facet_design method_ =
  let w = Mclock_workloads.Facet.t in
  let s = Mclock_workloads.Workload.schedule w in
  Mclock_core.Flow.synthesize ~method_ ~name:"facet_t" s

(* The historical Mclock_rtl.Check checkers live on as lint rules
   MC001-MC005; these tests exercise them through the lint entry
   point, filtered to the structural codes. *)
let lint_codes codes d =
  List.filter
    (fun g -> List.mem g.Mclock_lint.Diagnostic.code codes)
    (Mclock_lint.Lint.design d)

let structural_codes = [ "MC001"; "MC002"; "MC003"; "MC004"; "MC005" ]

let test_check_clean_designs () =
  List.iter
    (fun m ->
      let d = facet_design m in
      match lint_codes structural_codes d with
      | [] -> ()
      | vs ->
          fail
            (Fmt.str "%s: %s" (Mclock_core.Flow.method_label m)
               (Mclock_lint.Diagnostic.render vs)))
    [
      Mclock_core.Flow.Conventional_non_gated;
      Mclock_core.Flow.Conventional_gated;
      Mclock_core.Flow.Integrated 1;
      Mclock_core.Flow.Integrated 2;
      Mclock_core.Flow.Integrated 3;
      Mclock_core.Flow.Split 2;
      Mclock_core.Flow.Split 3;
    ]

let test_check_catches_partition_violation () =
  (* Hand-build a design whose storage loads off-phase. *)
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let reg =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Latch ~phase:2
      ~input:(Comp.From_comp a) ~gated:false ~holds:[ Var.v "x" ]
  in
  let control =
    Control.create
      [
        { Control.selects = []; loads = [ reg ]; alu_ops = [] };
        Control.empty_word;
      ]
  in
  let design =
    Design.create ~name:"bad" ~behaviour:"bad" ~datapath:dp ~control
      ~clock:(Clock.create ~phases:2 ~frequency:1e6)
      ~style:Design.multiclock_style ~input_ports:[ (Var.v "a", a) ]
      ~output_taps:[]
  in
  (* Loaded at step 1 (phase 1) but the latch is phase 2. *)
  check Alcotest.bool "violation found" true
    (lint_codes [ "MC002" ] design <> [])

let test_check_catches_latch_rw () =
  let dp = Datapath.create ~width:4 in
  let l1 =
    Datapath.add_storage dp ~name:"l1" ~kind:Mclock_tech.Library.Latch ~phase:1
      ~input:(Comp.From_const 0) ~gated:false ~holds:[ Var.v "x" ]
  in
  let alu =
    Datapath.add_alu dp ~name:"alu" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp l1) ~src_b:(Some (Comp.From_const 1))
      ~isolated:false ~ops:[]
  in
  let l2 =
    Datapath.add_storage dp ~name:"l2" ~kind:Mclock_tech.Library.Latch ~phase:1
      ~input:(Comp.From_comp alu) ~gated:false ~holds:[ Var.v "y" ]
  in
  (* Rewire l1's input to l2 so both have writers, then load both in
     the same step: l1 is read (through the ALU into l2) while written. *)
  (match Comp.kind (Datapath.comp dp l1) with
  | Comp.Storage s ->
      Datapath.replace_kind dp l1 (Comp.Storage { s with Comp.s_input = Comp.From_comp l2 })
  | _ -> fail "expected storage");
  let control =
    Control.create [ { Control.selects = []; loads = [ l1; l2 ]; alu_ops = [] } ]
  in
  let design =
    Design.create ~name:"bad" ~behaviour:"bad" ~datapath:dp ~control
      ~clock:(Clock.single ~frequency:1e6)
      ~style:Design.multiclock_style ~input_ports:[] ~output_taps:[]
  in
  check Alcotest.bool "latch R/W caught" true
    (lint_codes [ "MC003" ] design <> [])

let test_check_catches_bad_select () =
  let dp, _, _, mux, _, reg = tiny_datapath () in
  let control =
    Control.create
      [ { Control.selects = [ (mux, 7) ]; loads = [ reg ]; alu_ops = [] } ]
  in
  let design =
    Design.create ~name:"bad" ~behaviour:"bad" ~datapath:dp ~control
      ~clock:(Clock.single ~frequency:1e6)
      ~style:Design.conventional_style ~input_ports:[] ~output_taps:[]
  in
  check Alcotest.bool "bad select caught" true
    (lint_codes [ "MC004" ] design <> [])

let test_check_catches_foreign_op () =
  let dp, _, _, _, alu, _ = tiny_datapath () in
  let control =
    Control.create
      [ { Control.selects = []; loads = []; alu_ops = [ (alu, Op.Div) ] } ]
  in
  let design =
    Design.create ~name:"bad" ~behaviour:"bad" ~datapath:dp ~control
      ~clock:(Clock.single ~frequency:1e6)
      ~style:Design.conventional_style ~input_ports:[] ~output_taps:[]
  in
  check Alcotest.bool "foreign op caught" true
    (lint_codes [ "MC005" ] design <> [])

(* --- Emitters --------------------------------------------------------------- *)

let test_vhdl_emits () =
  let d = facet_design (Mclock_core.Flow.Integrated 2) in
  let vhdl = Vhdl.emit d in
  check Alcotest.bool "entity" true (contains vhdl "entity facet_t is");
  check Alcotest.bool "two clocks" true (contains vhdl "clk2 : in std_logic");
  check Alcotest.bool "architecture" true (contains vhdl "architecture rtl");
  check Alcotest.bool "microcode" true (contains vhdl "case step is");
  check Alcotest.bool "latch process" true (contains vhdl "_en = '1'")

let test_vhdl_register_style () =
  let d = facet_design Mclock_core.Flow.Conventional_non_gated in
  let vhdl = Vhdl.emit d in
  check Alcotest.bool "rising edge" true (contains vhdl "rising_edge(clk1)")

let test_vhdl_keyword_safe () =
  check Alcotest.string "reserved" "signal_s" (Vhdl.keyword_safe "signal");
  check Alcotest.string "bad chars" "a_b" (Vhdl.keyword_safe "a-b");
  check Alcotest.string "leading digit" "s_1x" (Vhdl.keyword_safe "1x")

let test_rtl_dot_emits () =
  let d = facet_design (Mclock_core.Flow.Integrated 3) in
  let dot = Rtl_dot.emit (Design.datapath d) in
  check Alcotest.bool "clusters per phase" true (contains dot "cluster_phase3");
  check Alcotest.bool "alu node" true (contains dot "ALU")

let test_design_style_labels () =
  check Alcotest.string "gated" "gated/FF"
    (Design.style_label (facet_design Mclock_core.Flow.Conventional_gated));
  check Alcotest.string "3-clock" "3-clock/latch"
    (Design.style_label (facet_design (Mclock_core.Flow.Integrated 3)))

let suite =
  [
    ("clock phase of cycle", `Quick, test_clock_phase_of_cycle);
    ("clock single", `Quick, test_clock_single);
    ("clock phase frequency", `Quick, test_clock_phase_frequency);
    ("clock non-overlapping", `Quick, test_clock_non_overlapping);
    ("clock waveform pulses", `Quick, test_clock_waveform_pulses);
    ("clock render", `Quick, test_clock_render);
    ("clock invalid", `Quick, test_clock_invalid);
    ("datapath stats", `Quick, test_datapath_stats);
    ("datapath validate ok", `Quick, test_datapath_validate_ok);
    ("datapath combinational order", `Quick, test_datapath_combinational_order);
    ("datapath fanout", `Quick, test_datapath_fanout);
    ("datapath rejects dangling", `Quick, test_datapath_rejects_dangling);
    ("datapath rejects comb cycle", `Quick, test_datapath_rejects_comb_cycle);
    ("datapath storage feedback ok", `Quick, test_datapath_storage_feedback_allowed);
    ("datapath rejects tiny mux", `Quick, test_datapath_rejects_tiny_mux);
    ("control wraps", `Quick, test_control_wraps);
    ("control empty rejected", `Quick, test_control_empty_rejected);
    ("control duplicate assignment rejected", `Quick, test_control_duplicate_rejected);
    ("schedule model replay from reset", `Quick, test_schedule_model_replay);
    ("checkers pass on allocator output", `Quick, test_check_clean_designs);
    ("checker catches partition violation", `Quick, test_check_catches_partition_violation);
    ("checker catches latch R/W", `Quick, test_check_catches_latch_rw);
    ("checker catches bad select", `Quick, test_check_catches_bad_select);
    ("checker catches foreign op", `Quick, test_check_catches_foreign_op);
    ("vhdl emits", `Quick, test_vhdl_emits);
    ("vhdl register style", `Quick, test_vhdl_register_style);
    ("vhdl keyword safe", `Quick, test_vhdl_keyword_safe);
    ("rtl dot emits", `Quick, test_rtl_dot_emits);
    ("design style labels", `Quick, test_design_style_labels);
  ]
