(* Tests for mclock_lint: one seeded-violation fixture per rule (each
   triggers its rule exactly once), allocator cleanliness over the
   whole workload catalog, JSON round-trips, and the CDC acceptance
   case (a deliberately removed transfer register must fire MC006). *)

open Mclock_dfg
open Mclock_rtl
open Mclock_lint

let check = Alcotest.check
let fail = Alcotest.fail

let count_code code ds =
  List.length (List.filter (fun d -> d.Diagnostic.code = code) ds)

(* Assert the fixture fires [code] exactly once; other codes may ride
   along (e.g. a deliberately broken design is often also dead), the
   seeded violation must not. *)
let fires_once code ds =
  check Alcotest.int
    (Printf.sprintf "%s fires exactly once in:\n%s" code (Diagnostic.render ds))
    1 (count_code code ds)

(* --- Fixture scaffolding -------------------------------------------------- *)

let design_of ?(phases = 1) ?(style = Design.multiclock_style)
    ?(input_ports = []) ?(output_taps = []) dp words =
  Design.create ~name:"fixture" ~behaviour:"fixture" ~datapath:dp
    ~control:(Control.create words)
    ~clock:(Clock.create ~phases ~frequency:1e6)
    ~style ~input_ports ~output_taps

(* in -> alu(+1) -> latch, output-tapped. *)
let tiny_latch_pipeline () =
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let alu =
    Datapath.add_alu dp ~name:"alu" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp a) ~src_b:(Some (Comp.From_const 1))
      ~isolated:false ~ops:[ 1 ]
  in
  let reg =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Latch ~phase:1
      ~input:(Comp.From_comp alu) ~gated:false ~holds:[ Var.v "x" ]
  in
  Datapath.set_output dp (Var.v "x") (Comp.From_comp reg);
  (dp, a, alu, reg)

let tap reg =
  [ { Design.var = Var.v "x"; source = Comp.From_comp reg; ready_step = 1 } ]

(* --- MC002 partition discipline ------------------------------------------- *)

let test_mc002_off_phase_load () =
  let dp, a, _, reg = tiny_latch_pipeline () in
  (* The latch claims phase 2 but is loaded at step 1 (phase 1). *)
  (match Comp.kind (Datapath.comp dp reg) with
  | Comp.Storage s ->
      Datapath.replace_kind dp reg (Comp.Storage { s with Comp.s_phase = 2 })
  | _ -> fail "expected storage");
  let d =
    design_of ~phases:2
      ~input_ports:[ (Var.v "a", a) ]
      ~output_taps:(tap reg) dp
      [
        { Control.selects = []; loads = [ reg ]; alu_ops = [] };
        Control.empty_word;
      ]
  in
  fires_once "MC002" (Lint.design d)

(* --- MC003 latch read/write ----------------------------------------------- *)

let test_mc003_latch_race () =
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
  (* l1 is loaded (from a constant) in the very step l2 latches the
     ALU result that reads l1: a one-directional READ/WRITE race. *)
  Datapath.set_output dp (Var.v "y") (Comp.From_comp l2);
  let d =
    design_of
      ~output_taps:
        [ { Design.var = Var.v "y"; source = Comp.From_comp l2; ready_step = 1 } ]
      dp
      [ { Control.selects = []; loads = [ l1; l2 ]; alu_ops = [] } ]
  in
  fires_once "MC003" (Lint.design d)

(* --- MC004 / MC005 control sanity ------------------------------------------ *)

let muxed_pipeline () =
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
  (dp, mux, alu, reg)

let test_mc004_select_out_of_range () =
  let dp, mux, _, reg = muxed_pipeline () in
  let d =
    design_of ~style:Design.conventional_style ~output_taps:(tap reg) dp
      [ { Control.selects = [ (mux, 7) ]; loads = [ reg ]; alu_ops = [] } ]
  in
  fires_once "MC004" (Lint.design d)

let test_mc005_foreign_op () =
  let dp, mux, alu, reg = muxed_pipeline () in
  let d =
    design_of ~style:Design.conventional_style ~output_taps:(tap reg) dp
      [
        {
          Control.selects = [ (mux, 0) ];
          loads = [ reg ];
          alu_ops = [ (alu, Op.Div) ];
        };
      ]
  in
  fires_once "MC005" (Lint.design d)

(* --- MC006 missing transfer register ---------------------------------------- *)

(* Two latches written in different partitions feed one ALU directly:
   the paper requires the phase-1 operand to be copied through a
   transfer register in the ALU's partition first. *)
let test_mc006_missing_transfer () =
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let l1 =
    Datapath.add_storage dp ~name:"l1" ~kind:Mclock_tech.Library.Latch ~phase:1
      ~input:(Comp.From_comp a) ~gated:false ~holds:[ Var.v "u" ]
  in
  let l2 =
    Datapath.add_storage dp ~name:"l2" ~kind:Mclock_tech.Library.Latch ~phase:2
      ~input:(Comp.From_comp a) ~gated:false ~holds:[ Var.v "v" ]
  in
  let alu =
    Datapath.add_alu dp ~name:"alu" ~fset:(Op.Set.singleton Op.Add) ~phase:2
      ~src_a:(Comp.From_comp l1) ~src_b:(Some (Comp.From_comp l2))
      ~isolated:false ~ops:[ 1 ]
  in
  let out =
    Datapath.add_storage dp ~name:"out" ~kind:Mclock_tech.Library.Latch
      ~phase:2 ~input:(Comp.From_comp alu) ~gated:false ~holds:[ Var.v "x" ]
  in
  Datapath.set_output dp (Var.v "x") (Comp.From_comp out);
  let d =
    design_of ~phases:2
      ~input_ports:[ (Var.v "a", a) ]
      ~output_taps:(tap out) dp
      [
        { Control.selects = []; loads = [ l1 ]; alu_ops = [] };
        { Control.selects = []; loads = [ l2 ]; alu_ops = [] };
        Control.empty_word;
        { Control.selects = []; loads = [ out ]; alu_ops = [] };
      ]
  in
  fires_once "MC006" (Lint.design d)

(* The acceptance case: the integrated allocator with transfer
   insertion deliberately disabled must stop being lint-clean, and the
   rule that fires must be the CDC one. *)
let test_mc006_removed_transfers_end_to_end () =
  let hit = ref false in
  List.iter
    (fun w ->
      let s = Mclock_workloads.Workload.schedule w in
      List.iter
        (fun n ->
          let r =
            Mclock_core.Integrated.run ~transfers:false ~n ~name:"notr" s
          in
          let ds = Lint.design r.Mclock_core.Integrated.design in
          if count_code "MC006" ds > 0 then hit := true;
          (* Nothing else may break: disabling transfers violates only
             the transfer discipline. *)
          List.iter
            (fun d ->
              if d.Diagnostic.code <> "MC006" then
                fail
                  (Printf.sprintf "unexpected %s on %s (n=%d): %s"
                     d.Diagnostic.code w.Mclock_workloads.Workload.name n
                     d.Diagnostic.message))
            ds)
        [ 2; 3 ])
    Mclock_workloads.Catalog.all;
  check Alcotest.bool "MC006 fires somewhere without transfers" true !hit

(* --- MC007 combinational loop ---------------------------------------------- *)

let test_mc007_comb_loop () =
  let dp = Datapath.create ~width:4 in
  let alu1 =
    Datapath.add_alu dp ~name:"a1" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp 2) ~src_b:None ~isolated:false ~ops:[]
  in
  let _alu2 =
    Datapath.add_alu dp ~name:"a2" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp alu1) ~src_b:None ~isolated:false ~ops:[]
  in
  fires_once "MC007" (Lint.datapath dp)

let test_mc007_self_loop () =
  let dp = Datapath.create ~width:4 in
  let _alu =
    Datapath.add_alu dp ~name:"a" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp 1) ~src_b:None ~isolated:false ~ops:[]
  in
  fires_once "MC007" (Lint.datapath dp)

(* --- MC008 width ------------------------------------------------------------ *)

let test_mc008_constant_too_wide () =
  let dp = Datapath.create ~width:4 in
  let a = Datapath.add_input dp (Var.v "a") in
  let _alu =
    Datapath.add_alu dp ~name:"alu" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp a) ~src_b:(Some (Comp.From_const 99))
      ~isolated:false ~ops:[]
  in
  fires_once "MC008" (Lint.datapath dp)

(* --- MC009 dead component --------------------------------------------------- *)

let test_mc009_dead_storage () =
  let dp, _, _, reg = tiny_latch_pipeline () in
  (* A second latch nobody reads. *)
  let _orphan =
    Datapath.add_storage dp ~name:"orphan" ~kind:Mclock_tech.Library.Latch
      ~phase:1 ~input:(Comp.From_const 0) ~gated:false ~holds:[]
  in
  let d =
    design_of ~output_taps:(tap reg) dp
      [ { Control.selects = []; loads = [ reg ]; alu_ops = [] } ]
  in
  fires_once "MC009" (Lint.design d)

(* --- MC010 latch transparency ----------------------------------------------- *)

let test_mc010_transparent_self_loop () =
  let dp = Datapath.create ~width:4 in
  let l =
    Datapath.add_storage dp ~name:"acc" ~kind:Mclock_tech.Library.Latch
      ~phase:1 ~input:(Comp.From_const 0) ~gated:false ~holds:[ Var.v "x" ]
  in
  let alu =
    Datapath.add_alu dp ~name:"alu" ~fset:(Op.Set.singleton Op.Add) ~phase:1
      ~src_a:(Comp.From_comp l) ~src_b:(Some (Comp.From_const 1))
      ~isolated:false ~ops:[]
  in
  (match Comp.kind (Datapath.comp dp l) with
  | Comp.Storage s ->
      Datapath.replace_kind dp l
        (Comp.Storage { s with Comp.s_input = Comp.From_comp alu })
  | _ -> fail "expected storage");
  Datapath.set_output dp (Var.v "x") (Comp.From_comp l);
  let d =
    design_of ~output_taps:(tap l) dp
      [ { Control.selects = []; loads = [ l ]; alu_ops = [] } ]
  in
  let ds = Lint.design d in
  fires_once "MC010" ds;
  (* The same accumulator on an edge-triggered register is fine. *)
  (match Comp.kind (Datapath.comp dp l) with
  | Comp.Storage s ->
      Datapath.replace_kind dp l
        (Comp.Storage { s with Comp.s_kind = Mclock_tech.Library.Register })
  | _ -> fail "expected storage");
  let d =
    design_of ~style:Design.conventional_style ~output_taps:(tap l) dp
      [ { Control.selects = []; loads = [ l ]; alu_ops = [] } ]
  in
  check Alcotest.int "register accumulator is clean" 0
    (count_code "MC010" (Lint.design d))

(* --- MC011 dangling reference ------------------------------------------------ *)

let test_mc011_dangling () =
  let dp = Datapath.create ~width:4 in
  let _ =
    Datapath.add_storage dp ~name:"r" ~kind:Mclock_tech.Library.Register
      ~phase:1 ~input:(Comp.From_comp 99) ~gated:false ~holds:[]
  in
  fires_once "MC011" (Lint.datapath dp)

(* --- MC101-MC105 behaviour rules --------------------------------------------- *)

let behaviour_graph () =
  (* y = (a + b) * c, with a dead node and an unused input d. *)
  Graph.create ~name:"g"
    ~inputs:[ Var.v "a"; Var.v "b"; Var.v "c"; Var.v "d" ]
    ~outputs:[ Var.v "y" ]
    [
      Node.make ~id:1 ~op:Op.Add
        ~operands:[ Node.Operand_var (Var.v "a"); Node.Operand_var (Var.v "b") ]
        ~result:(Var.v "t");
      Node.make ~id:2 ~op:Op.Mul
        ~operands:[ Node.Operand_var (Var.v "t"); Node.Operand_var (Var.v "c") ]
        ~result:(Var.v "y");
      Node.make ~id:3 ~op:Op.Sub
        ~operands:[ Node.Operand_var (Var.v "t"); Node.Operand_var (Var.v "c") ]
        ~result:(Var.v "dead");
    ]

let test_mc101_unscheduled () =
  fires_once "MC101"
    (Lint.schedule (behaviour_graph ()) [ (1, 1); (2, 2) ] (* 3 missing *))

let test_mc102_bad_binding () =
  let g = behaviour_graph () in
  fires_once "MC102" (Lint.schedule g [ (1, 1); (2, 2); (3, 2); (99, 1) ]);
  fires_once "MC102" (Lint.schedule g [ (1, 1); (1, 2); (2, 3); (3, 3) ]);
  fires_once "MC102" (Lint.schedule g [ (1, 0); (2, 2); (3, 2) ])

let test_mc103_dependency_violation () =
  (* Node 2 consumes t in the same step node 1 produces it. *)
  fires_once "MC103"
    (Lint.schedule (behaviour_graph ()) [ (1, 1); (2, 1); (3, 2) ])

let test_mc104_unused_input () =
  let ds = Lint.graph (behaviour_graph ()) in
  fires_once "MC104" ds;
  (match List.find_opt (fun d -> d.Diagnostic.code = "MC104") ds with
  | Some d ->
      check Alcotest.string "info severity" "info"
        (Diagnostic.severity_label d.Diagnostic.severity)
  | None -> fail "MC104 missing")

let test_mc105_dead_node () = fires_once "MC105" (Lint.graph (behaviour_graph ()))

(* --- Allocator cleanliness over the catalog ----------------------------------- *)

let all_methods =
  [
    Mclock_core.Flow.Conventional_non_gated;
    Mclock_core.Flow.Conventional_gated;
    Mclock_core.Flow.Integrated 1;
    Mclock_core.Flow.Integrated 2;
    Mclock_core.Flow.Integrated 3;
    Mclock_core.Flow.Split 1;
    Mclock_core.Flow.Split 2;
    Mclock_core.Flow.Split 3;
  ]

let test_catalog_lint_clean () =
  List.iter
    (fun w ->
      let s = Mclock_workloads.Workload.schedule w in
      List.iter
        (fun m ->
          (* synthesize itself lints (raising Lint_failed on errors);
             assert the stronger property that not even warnings or
             info diagnostics remain. *)
          let d =
            Mclock_core.Flow.synthesize ~method_:m
              ~name:w.Mclock_workloads.Workload.name s
          in
          match Lint.design d with
          | [] -> ()
          | ds ->
              fail
                (Printf.sprintf "%s under %s:\n%s"
                   w.Mclock_workloads.Workload.name
                   (Mclock_core.Flow.method_label m)
                   (Diagnostic.render ds)))
        all_methods)
    Mclock_workloads.Catalog.all

(* The split method's direct cross-partition connections are its
   defining shortcut (paper §4.1): its designs must declare the MC006
   waiver, while the integrated method keeps the claim. *)
let test_split_waives_cdc () =
  let w = List.hd Mclock_workloads.Catalog.all in
  let s = Mclock_workloads.Workload.schedule w in
  let claim m =
    let d = Mclock_core.Flow.synthesize ~method_:m ~name:"waiver" s in
    (Design.style d).Design.cross_partition_transfers
  in
  check Alcotest.bool "split waives the transfer discipline" false
    (claim (Mclock_core.Flow.Split 2));
  check Alcotest.bool "integrated claims the transfer discipline" true
    (claim (Mclock_core.Flow.Integrated 2))

let test_catalog_behaviour_clean () =
  List.iter
    (fun w ->
      let g = Mclock_workloads.Workload.graph w in
      let s = Mclock_workloads.Workload.schedule w in
      match Lint.behaviour g (Mclock_sched.Schedule.assignments s) with
      | [] -> ()
      | ds ->
          fail
            (Printf.sprintf "%s behaviour:\n%s" w.Mclock_workloads.Workload.name
               (Diagnostic.render ds)))
    Mclock_workloads.Catalog.all

(* --- Diagnostics framework ----------------------------------------------------- *)

let test_catalog_rule_codes_unique () =
  let codes = List.map (fun i -> i.Rules.code) Rules.catalog in
  check Alcotest.int "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes));
  check Alcotest.bool "lookup by code" true (Rules.find "MC006" <> None);
  check Alcotest.bool "lookup by slug" true (Rules.find "cdc-transfer" <> None);
  check Alcotest.bool "unknown lookup" true (Rules.find "MC999" = None)

let test_werror_promotes () =
  let ds = Lint.graph (behaviour_graph ()) in
  check Alcotest.bool "not all errors" true (Diagnostic.errors ds = []);
  let promoted = Diagnostic.promote ~werror:true ds in
  check Alcotest.int "all promoted"
    (List.length promoted)
    (List.length (Diagnostic.errors promoted))

let test_render_mentions_code_and_summary () =
  let ds = Lint.graph (behaviour_graph ()) in
  let text = Diagnostic.render ds in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions MC104" true (contains text "MC104");
  check Alcotest.bool "has summary line" true (contains text "warning(s)");
  check Alcotest.string "clean render" "clean (no diagnostics)"
    (Diagnostic.render [])

(* --- JSON ----------------------------------------------------------------------- *)

let test_json_roundtrip_diagnostics () =
  (* Collect a diverse diagnostic set: every behaviour rule plus a few
     design rules with steps and component locations. *)
  let dp, _, _, reg = tiny_latch_pipeline () in
  let design =
    design_of ~output_taps:(tap reg) dp
      [ { Control.selects = [ (reg, 0) ]; loads = [ reg ]; alu_ops = [] } ]
  in
  let ds =
    Lint.design design
    @ Lint.graph (behaviour_graph ())
    @ Lint.schedule (behaviour_graph ()) [ (1, 1); (2, 1) ]
  in
  check Alcotest.bool "fixture produced diagnostics" true (ds <> []);
  let json = Diagnostic.list_to_json ~subject:"fixture" ds in
  let text = Json.to_string json in
  match Json.parse text with
  | Error e -> fail ("emitted JSON does not parse: " ^ e)
  | Ok parsed -> (
      check Alcotest.bool "round-trips structurally" true (parsed = json);
      match Json.member "diagnostics" parsed with
      | Some (Json.List items) ->
          check Alcotest.int "all diagnostics present" (List.length ds)
            (List.length items);
          let decoded =
            List.map
              (fun item ->
                match Diagnostic.of_json item with
                | Ok d -> d
                | Error e -> fail ("diagnostic does not decode: " ^ e))
              items
          in
          let sorted = List.sort Diagnostic.compare ds in
          check Alcotest.bool "decoded equals original" true (decoded = sorted)
      | _ -> fail "no diagnostics array")

let test_json_parser_basics () =
  let roundtrip v =
    match Json.parse (Json.to_string v) with
    | Ok v' -> check Alcotest.bool (Json.to_string v) true (v = v')
    | Error e -> fail e
  in
  roundtrip Json.Null;
  roundtrip (Json.Bool true);
  roundtrip (Json.Int (-42));
  roundtrip (Json.String "quote \" backslash \\ newline \n tab \t");
  roundtrip (Json.List [ Json.Int 1; Json.String "two"; Json.Null ]);
  roundtrip
    (Json.Obj
       [ ("a", Json.List []); ("b", Json.Obj [ ("nested", Json.Bool false) ]) ]);
  (match Json.parse "{\"a\": [1, 2.5, \"x\"], \"b\": null}" with
  | Ok (Json.Obj _) -> ()
  | Ok _ | Error _ -> fail "hand-written JSON should parse");
  (match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> fail "bad JSON should not parse");
  match Json.parse "[1] trailing" with
  | Error _ -> ()
  | Ok _ -> fail "trailing garbage should not parse"

(* --- Pretty rendering of JSON matches compact structurally ----------------------- *)

let test_json_pretty_equivalent () =
  let ds = Lint.graph (behaviour_graph ()) in
  let json = Diagnostic.list_to_json ds in
  match (Json.parse (Json.to_string_pretty json), Json.parse (Json.to_string json)) with
  | Ok a, Ok b -> check Alcotest.bool "pretty == compact" true (a = b)
  | _ -> fail "pretty output should parse"

(* [Flow.synthesize ~transfers:false] is the integrated method's
   ablation: the same design as the allocator run without transfers,
   and its exit lint waives MC006 (which then fires) and nothing else. *)
let test_flow_no_transfers_waives_mc006 () =
  let fired = ref false in
  List.iter
    (fun w ->
      let s = Mclock_workloads.Workload.schedule w in
      List.iter
        (fun n ->
          let d =
            Mclock_core.Flow.synthesize ~transfers:false
              ~method_:(Mclock_core.Flow.Integrated n) ~name:"notr" s
          in
          let r =
            Mclock_core.Integrated.run ~transfers:false ~n ~name:"notr" s
          in
          check Alcotest.string "same design as the allocator"
            (Verilog.emit r.Mclock_core.Integrated.design)
            (Verilog.emit d);
          if count_code "MC006" (Lint.design d) > 0 then fired := true)
        [ 2; 3 ])
    Mclock_workloads.Catalog.all;
  check Alcotest.bool "MC006 waived somewhere" true !fired

(* The transfers switch belongs to the integrated method alone: every
   other method allocates the same design either way. *)
let test_flow_transfers_ignored_by_other_methods () =
  List.iter
    (fun w ->
      let s = Mclock_workloads.Workload.schedule w in
      List.iter
        (fun m ->
          let synth transfers =
            Verilog.emit
              (Mclock_core.Flow.synthesize ~transfers ~method_:m
                 ~name:w.Mclock_workloads.Workload.name s)
          in
          check Alcotest.string
            (Mclock_core.Flow.method_label m)
            (synth true) (synth false))
        (List.filter
           (function Mclock_core.Flow.Integrated _ -> false | _ -> true)
           all_methods))
    Mclock_workloads.Catalog.all

let suite =
  [
    ("MC002 off-phase load", `Quick, test_mc002_off_phase_load);
    ("MC003 latch race", `Quick, test_mc003_latch_race);
    ("MC004 select out of range", `Quick, test_mc004_select_out_of_range);
    ("MC005 foreign op", `Quick, test_mc005_foreign_op);
    ("MC006 missing transfer", `Quick, test_mc006_missing_transfer);
    ("MC006 without transfer insertion", `Slow, test_mc006_removed_transfers_end_to_end);
    ("MC007 comb loop", `Quick, test_mc007_comb_loop);
    ("MC007 self loop", `Quick, test_mc007_self_loop);
    ("MC008 constant too wide", `Quick, test_mc008_constant_too_wide);
    ("MC009 dead storage", `Quick, test_mc009_dead_storage);
    ("MC010 transparent self-loop", `Quick, test_mc010_transparent_self_loop);
    ("MC011 dangling reference", `Quick, test_mc011_dangling);
    ("MC101 unscheduled node", `Quick, test_mc101_unscheduled);
    ("MC102 bad bindings", `Quick, test_mc102_bad_binding);
    ("MC103 dependency violation", `Quick, test_mc103_dependency_violation);
    ("MC104 unused input", `Quick, test_mc104_unused_input);
    ("MC105 dead node", `Quick, test_mc105_dead_node);
    ("catalog designs lint-clean", `Slow, test_catalog_lint_clean);
    ("split waives cdc discipline", `Quick, test_split_waives_cdc);
    ("catalog behaviours lint-clean", `Quick, test_catalog_behaviour_clean);
    ("rule codes unique", `Quick, test_catalog_rule_codes_unique);
    ("werror promotes", `Quick, test_werror_promotes);
    ("render output", `Quick, test_render_mentions_code_and_summary);
    ("json diagnostics round-trip", `Quick, test_json_roundtrip_diagnostics);
    ("json parser basics", `Quick, test_json_parser_basics);
    ("json pretty equivalent", `Quick, test_json_pretty_equivalent);
    ("flow no-transfers waives MC006", `Slow, test_flow_no_transfers_waives_mc006);
    ( "flow transfers ignored by other methods",
      `Quick,
      test_flow_transfers_ignored_by_other_methods );
  ]
