(* Property-based tests (QCheck) on the core data structures and
   invariants: bit-vector algebra, left-edge optimality, clock
   non-overlap, partition arithmetic, schedulers, transfers, the full
   allocation flow on random scheduled DFGs, the static analyzer's
   certified bound over every operation, and the two decoders
   through which outside bytes enter the evaluation cache: the store's
   entry decoder and the simulation checkpoint decoder, the
   constraint, objective and stimulus grammars, and the behaviour and
   DFG text parsers. *)

open Mclock_dfg
module B = Mclock_util.Bitvec
module Q = QCheck

let to_alcotest = Seeded.to_alcotest

(* --- Generators ------------------------------------------------------------ *)

let bitvec_gen width = Q.map (fun v -> B.create ~width v) Q.small_nat

let bitvec_pair width =
  Q.pair (bitvec_gen width) (bitvec_gen width)

(* A random scheduled DFG via the layered generator. *)
let dfg_gen =
  let gen seed =
    let rng = Mclock_util.Rng.create seed in
    let spec =
      {
        Generator.name = "prop";
        layers = 2 + Mclock_util.Rng.int rng 4;
        width = 1 + Mclock_util.Rng.int rng 4;
        num_inputs = 2 + Mclock_util.Rng.int rng 3;
        ops = [ Op.Add; Op.Sub; Op.Mul; Op.And; Op.Xor ];
      }
    in
    Generator.generate rng spec
  in
  Q.map gen Q.small_nat

let schedule_of r = Mclock_sched.Schedule.create r.Generator.graph r.Generator.steps

(* --- Bitvec algebra ---------------------------------------------------------- *)

let prop_add_commutative =
  Q.Test.make ~name:"bitvec add commutative" ~count:200 (bitvec_pair 6)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_add_associative =
  Q.Test.make ~name:"bitvec add associative" ~count:200
    (Q.triple (bitvec_gen 6) (bitvec_gen 6) (bitvec_gen 6))
    (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)))

let prop_sub_inverse =
  Q.Test.make ~name:"bitvec a+b-b = a" ~count:200 (bitvec_pair 6) (fun (a, b) ->
      B.equal a (B.sub (B.add a b) b))

let prop_xor_involution =
  Q.Test.make ~name:"bitvec xor involution" ~count:200 (bitvec_pair 6)
    (fun (a, b) -> B.equal a (B.logxor (B.logxor a b) b))

let prop_not_involution =
  Q.Test.make ~name:"bitvec not involution" ~count:200 (bitvec_gen 6) (fun a ->
      B.equal a (B.lognot (B.lognot a)))

let prop_hamming_symmetric =
  Q.Test.make ~name:"hamming symmetric" ~count:200 (bitvec_pair 6)
    (fun (a, b) -> B.hamming a b = B.hamming b a)

let prop_hamming_triangle =
  Q.Test.make ~name:"hamming triangle inequality" ~count:200
    (Q.triple (bitvec_gen 6) (bitvec_gen 6) (bitvec_gen 6))
    (fun (a, b, c) -> B.hamming a c <= B.hamming a b + B.hamming b c)

let prop_hamming_zero_iff_equal =
  Q.Test.make ~name:"hamming 0 iff equal" ~count:200 (bitvec_pair 6)
    (fun (a, b) -> B.hamming a b = 0 = B.equal a b)

let prop_mul_matches_int =
  Q.Test.make ~name:"mul matches int arithmetic" ~count:200 (bitvec_pair 5)
    (fun (a, b) ->
      B.to_int (B.mul a b) = B.to_int a * B.to_int b land ((1 lsl 5) - 1))

(* --- Left-edge --------------------------------------------------------------- *)

let interval_list_gen =
  let itv =
    Q.map
      (fun (lo, len) -> Mclock_util.Interval.make lo (lo + (len mod 8)))
      (Q.pair Q.small_nat Q.small_nat)
  in
  Q.list_of_size (Q.Gen.int_range 1 30) itv

let max_overlap_depth intervals =
  let points =
    List.concat_map
      (fun i -> [ Mclock_util.Interval.lo i; Mclock_util.Interval.hi i ])
      intervals
  in
  List.fold_left
    (fun acc p ->
      max acc
        (List.length
           (List.filter (fun i -> Mclock_util.Interval.contains i p) intervals)))
    0 points

let prop_left_edge_tracks_disjoint =
  Q.Test.make ~name:"left-edge tracks are disjoint" ~count:100 interval_list_gen
    (fun intervals ->
      let tracks = Mclock_util.Interval.left_edge_pack ~key:Fun.id intervals in
      List.for_all
        (fun track ->
          let rec ok = function
            | a :: (b :: _ as rest) ->
                Mclock_util.Interval.disjoint a b && ok rest
            | [ _ ] | [] -> true
          in
          ok track)
        tracks)

let prop_left_edge_optimal =
  (* For interval graphs the left-edge algorithm is optimal: track
     count equals the maximum overlap depth. *)
  Q.Test.make ~name:"left-edge is optimal" ~count:100 interval_list_gen
    (fun intervals ->
      let tracks = Mclock_util.Interval.left_edge_pack ~key:Fun.id intervals in
      List.length tracks = max_overlap_depth intervals)

let prop_left_edge_preserves_items =
  Q.Test.make ~name:"left-edge loses nothing" ~count:100 interval_list_gen
    (fun intervals ->
      let tracks = Mclock_util.Interval.left_edge_pack ~key:Fun.id intervals in
      Mclock_util.List_ext.sum_by List.length tracks = List.length intervals)

(* --- Clock ------------------------------------------------------------------- *)

let prop_clock_non_overlapping =
  Q.Test.make ~name:"phase clocks never overlap" ~count:50
    Q.(int_range 1 10)
    (fun n ->
      Mclock_rtl.Clock.non_overlapping
        (Mclock_rtl.Clock.create ~phases:n ~frequency:1e6))

let prop_clock_every_cycle_has_a_phase =
  Q.Test.make ~name:"every cycle belongs to exactly one phase" ~count:100
    Q.(pair (int_range 1 8) (int_range 1 100))
    (fun (n, cycle) ->
      let c = Mclock_rtl.Clock.create ~phases:n ~frequency:1e6 in
      let p = Mclock_rtl.Clock.phase_of_cycle c cycle in
      p >= 1 && p <= n)

(* --- Partition arithmetic ------------------------------------------------------ *)

let prop_partition_roundtrip =
  Q.Test.make ~name:"partition local/global roundtrip" ~count:200
    Q.(pair (int_range 1 8) (int_range 1 100))
    (fun (n, t) ->
      let open Mclock_core in
      let p = Partition.of_step ~n t in
      let l = Partition.local_of_global ~n t in
      Partition.global_of_local ~n ~partition:p l = t)

let prop_partition_counts =
  Q.Test.make ~name:"partition step counts sum to T" ~count:100
    Q.(pair (int_range 1 6) (int_range 1 40))
    (fun (n, num_steps) ->
      let open Mclock_core in
      Mclock_util.List_ext.sum_by
        (fun p -> Partition.local_steps ~n ~num_steps p)
        (Mclock_util.List_ext.range 1 n)
      = num_steps)

(* --- Schedulers ------------------------------------------------------------------ *)

let prop_asap_at_most_alap =
  Q.Test.make ~name:"asap <= alap per node" ~count:40 dfg_gen (fun r ->
      let g = r.Generator.graph in
      let asap = Mclock_sched.Asap.steps g in
      let alap = Mclock_sched.Alap.steps g in
      List.for_all2 (fun (_, a) (_, l) -> a <= l) asap alap)

let prop_asap_is_valid =
  Q.Test.make ~name:"asap is a valid schedule" ~count:40 dfg_gen (fun r ->
      ignore (Mclock_sched.Asap.run r.Generator.graph);
      true)

let prop_force_directed_within_deadline =
  Q.Test.make ~name:"force-directed stays within deadline" ~count:20 dfg_gen
    (fun r ->
      let g = r.Generator.graph in
      let deadline = Mclock_sched.Alap.critical_path_length g + 2 in
      let s = Mclock_sched.Force_directed.run ~deadline g in
      Mclock_sched.Schedule.num_steps s <= deadline)

let prop_list_sched_constraint_held =
  Q.Test.make ~name:"list scheduling respects bounds" ~count:30 dfg_gen (fun r ->
      let g = r.Generator.graph in
      let s = Mclock_sched.List_sched.run ~constraints:[ (Op.Mul, 1); (Op.Add, 2) ] g in
      List.for_all
        (fun step ->
          let nodes = Mclock_sched.Schedule.nodes_at s step in
          let count op = List.length (List.filter (fun n -> Op.equal (Node.op n) op) nodes) in
          count Op.Mul <= 1 && count Op.Add <= 2)
        (Mclock_util.List_ext.range 1 (Mclock_sched.Schedule.num_steps s)))

(* --- Transfers -------------------------------------------------------------------- *)

let prop_transfer_unifies_operand_partitions =
  Q.Test.make ~name:"transfers unify stored-operand partitions" ~count:30
    (Q.pair dfg_gen Q.(int_range 2 4))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let p = Transfer.insert (Lifetime.analyze ~n s) in
      List.for_all
        (fun node ->
          let stored_partitions =
            List.filter_map
              (fun src ->
                match src with
                | Lifetime.S_const _ -> None
                | Lifetime.S_var v ->
                    let u = Lifetime.usage p v in
                    if u.Lifetime.is_input then None
                    else Some u.Lifetime.partition)
              (Node.Map.find (Node.id node) p.Lifetime.node_operands)
          in
          match Mclock_util.List_ext.dedup ~compare:Int.compare stored_partitions with
          | [] | [ _ ] -> true
          | _ :: _ :: _ -> false)
        (Graph.nodes (Mclock_sched.Schedule.graph s)))

let prop_transfer_steps_legal =
  Q.Test.make ~name:"transfer steps precede consumers, follow writers" ~count:30
    (Q.pair dfg_gen Q.(int_range 2 4))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let p = Transfer.insert (Lifetime.analyze ~n s) in
      List.for_all
        (fun tr ->
          let src = Lifetime.usage p tr.Lifetime.t_src in
          let dest = Lifetime.usage p tr.Lifetime.t_dest in
          src.Lifetime.write_step < tr.Lifetime.t_step
          && List.for_all (fun r -> r > tr.Lifetime.t_step) dest.Lifetime.read_steps
          && Partition.of_step ~n tr.Lifetime.t_step = tr.Lifetime.t_partition)
        p.Lifetime.transfers)

(* --- Register allocation -------------------------------------------------------------- *)

let prop_reg_alloc_total =
  Q.Test.make ~name:"every stored variable gets exactly one class" ~count:30
    (Q.pair dfg_gen Q.(int_range 1 3))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let p = Transfer.insert (Lifetime.analyze ~n s) in
      let classes = Reg_alloc.allocate ~kind:Mclock_tech.Library.Latch p in
      List.for_all
        (fun u ->
          let holders =
            List.filter
              (fun rc -> List.exists (Var.equal u.Lifetime.var) rc.Reg_alloc.rc_vars)
              classes
          in
          List.length holders = 1)
        (Lifetime.stored_usages p))

(* --- End-to-end: random DFG through the integrated flow -------------------------------- *)

let prop_integrated_flow_functional =
  Q.Test.make ~name:"integrated flow is functionally correct" ~count:10
    (Q.pair dfg_gen Q.(int_range 1 3))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let design = Integrated.allocate ~n ~name:"prop" s in
      let report =
        Mclock_sim.Verify.run ~seed:99 ~iterations:8 Mclock_tech.Cmos08.t design
          r.Generator.graph
      in
      Mclock_sim.Verify.ok report)

let prop_integrated_flow_checks_clean =
  Q.Test.make ~name:"integrated flow passes structural checks" ~count:10
    (Q.pair dfg_gen Q.(int_range 1 3))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let design = Integrated.allocate ~n ~name:"prop" s in
      List.for_all
        (fun g ->
          not
            (List.mem g.Mclock_lint.Diagnostic.code
               [ "MC001"; "MC002"; "MC003"; "MC004"; "MC005" ]))
        (Mclock_lint.Lint.design design))

let prop_split_flow_functional =
  Q.Test.make ~name:"split flow is functionally correct" ~count:8
    (Q.pair dfg_gen Q.(int_range 2 3))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let design = Split_alloc.allocate ~n ~name:"prop" s in
      let report =
        Mclock_sim.Verify.run ~seed:13 ~iterations:8 Mclock_tech.Cmos08.t design
          r.Generator.graph
      in
      Mclock_sim.Verify.ok report)

let prop_resched_preserves_validity =
  Q.Test.make ~name:"rescheduling preserves validity and bound" ~count:20
    (Q.pair dfg_gen Q.(int_range 2 4))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let b = Resched.balance ~n s in
      Resched.partition_alu_bound ~n b <= Resched.partition_alu_bound ~n s)

let prop_mux_aware_binding_functional =
  Q.Test.make ~name:"mux-aware binding is functionally correct" ~count:8
    (Q.pair dfg_gen Q.(int_range 1 3))
    (fun (r, n) ->
      let open Mclock_core in
      let s = schedule_of r in
      let result = Integrated.run ~binding:`Mux_aware ~n ~name:"prop" s in
      let report =
        Mclock_sim.Verify.run ~seed:21 ~iterations:8 Mclock_tech.Cmos08.t
          result.Integrated.design r.Generator.graph
      in
      Mclock_sim.Verify.ok report)

let prop_conventional_flow_functional =
  Q.Test.make ~name:"conventional flow is functionally correct" ~count:10
    (Q.pair dfg_gen Q.bool)
    (fun (r, gated) ->
      let open Mclock_core in
      let s = schedule_of r in
      let design = Conventional.allocate ~gated ~name:"prop" s in
      let report =
        Mclock_sim.Verify.run ~seed:7 ~iterations:8 Mclock_tech.Cmos08.t design
          r.Generator.graph
      in
      Mclock_sim.Verify.ok report)

(* --- Static analysis soundness over every operation --------------------------- *)

(* The certified bound dominates simulation (and the estimate) on random
   DFGs over the whole operation alphabet — shifts, division and
   comparisons included, which the catalog never uses — at datapath
   widths 1-6, under every design style and stimulus model. *)
let prop_static_bound_sound_all_ops =
  Q.Test.make ~name:"static bound sound over Op.all" ~count:100 Q.small_nat
    (fun seed ->
      let open Mclock_core in
      let rng = Mclock_util.Rng.create seed in
      let spec =
        {
          Generator.name = "ops";
          layers = 2 + Mclock_util.Rng.int rng 3;
          width = 2 + Mclock_util.Rng.int rng 2;
          num_inputs = 2 + Mclock_util.Rng.int rng 2;
          ops = Op.all;
        }
      in
      let r = Generator.generate rng spec in
      let params =
        { Flow.default_params with Flow.width = 1 + Mclock_util.Rng.int rng 6 }
      in
      let stimuli =
        Mclock_sim.Stimulus.
          [
            Uniform;
            Correlated (float_of_int (Mclock_util.Rng.int rng 101) /. 100.);
            Ramp (Mclock_util.Rng.int rng 64);
            Constant;
          ]
      in
      List.for_all
        (fun method_ ->
          let design =
            Flow.synthesize ~params ~method_ ~name:"ops" (schedule_of r)
          in
          List.for_all
            (fun stimulus ->
              let a =
                Mclock_static.Analyze.run ~stimulus ~iterations:12
                  params.Flow.tech design
              in
              (Mclock_static.Report.compare_with_simulation ~seed
                 params.Flow.tech design r.Generator.graph a)
                .Mclock_static.Report.sound)
            stimuli)
        [
          Flow.Conventional_non_gated;
          Flow.Conventional_gated;
          Flow.Integrated 2;
          Flow.Split 2;
        ])

(* --- Store entry decoder -------------------------------------------------------- *)

module Store = Mclock_explore.Store
module Metrics = Mclock_explore.Metrics

let entry_key = "0123456789abcdef0123456789abcdef"

(* Metrics of real catalog cells, from one small facet exploration. *)
let catalog_metrics =
  lazy
    (let w = Mclock_workloads.Facet.t in
     let r =
       Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
           Mclock_explore.Engine.explore ~pool ~seed:42 ~iterations:30
             ~max_clocks:2 ~name:"facet"
             ~sched_constraints:w.Mclock_workloads.Workload.constraints
             (Mclock_workloads.Workload.graph w))
     in
     Array.of_list
       (List.filter_map
          (fun c ->
            match c.Mclock_explore.Engine.status with
            | Mclock_explore.Engine.Simulated m | Mclock_explore.Engine.Cached m
              ->
                Some m
            | Mclock_explore.Engine.Pruned _ -> None)
          r.Mclock_explore.Engine.cells))

let catalog_cell =
  Q.map
    (fun i ->
      let ms = Lazy.force catalog_metrics in
      ms.(i mod Array.length ms))
    Q.small_nat

let bits_equal (a : Metrics.t) (b : Metrics.t) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  same a.power_mw b.power_mw
  && same a.area b.area
  && same a.energy_per_computation_pj b.energy_per_computation_pj
  && a.latency_steps = b.latency_steps
  && a.memory_cells = b.memory_cells
  && a.mux_inputs = b.mux_inputs
  && a.functional_ok = b.functional_ok

(* Arbitrary bytes, plus strings over JSON's own alphabet so the parser
   gets past the first character. *)
let hostile_string =
  let json_char =
    Q.Gen.oneofl
      [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '0'; '1'; '9'; '-'; '.';
        'e'; 'x'; 'p'; 't'; 'f'; 'n'; 'u'; ' '; '\n' ]
  in
  Q.oneof [ Q.string; Q.string_gen json_char ]

let prop_decode_entry_hostile =
  Q.Test.make ~name:"entry decoder: garbage is a miss" ~count:500
    hostile_string (fun s -> Store.decode_entry ~key:entry_key s = None)

let prop_decode_entry_mutated =
  Q.Test.make ~name:"entry decoder: mutations never raise" ~count:300
    (Q.triple catalog_cell Q.small_nat Q.char)
    (fun (m, pos, c) ->
      let b = Bytes.of_string (Store.encode_entry ~key:entry_key m) in
      Bytes.set b (pos mod Bytes.length b) c;
      match Store.decode_entry ~key:entry_key (Bytes.to_string b) with
      | Some _ | None -> true)

let prop_decode_entry_truncated =
  Q.Test.make ~name:"entry decoder: truncations are a miss" ~count:20
    catalog_cell (fun m ->
      let text = Store.encode_entry ~key:entry_key m in
      let close = String.rindex text '}' in
      List.for_all
        (fun len ->
          Store.decode_entry ~key:entry_key (String.sub text 0 len) = None)
        (List.init (close + 1) Fun.id))

let prop_decode_entry_roundtrip =
  Q.Test.make ~name:"entry decoder: round-trip is bit-exact" ~count:100
    catalog_cell (fun m ->
      match
        Store.decode_entry ~key:entry_key (Store.encode_entry ~key:entry_key m)
      with
      | Some m' -> bits_equal m m'
      | None -> false)

let prop_decode_entry_wrong_key =
  Q.Test.make ~name:"entry decoder: another key's entry is a miss" ~count:100
    (Q.pair catalog_cell (Q.string_gen (Q.Gen.oneofl [ 'a'; 'b'; '0'; '9' ])))
    (fun (m, other) ->
      Q.assume (not (String.equal other entry_key));
      Store.decode_entry ~key:other (Store.encode_entry ~key:entry_key m) = None)

let prop_encode_entry_canonical =
  Q.Test.make ~name:"entry encoder: decode then encode is the identity"
    ~count:100 catalog_cell (fun m ->
      let text = Store.encode_entry ~key:entry_key m in
      match Store.decode_entry ~key:entry_key text with
      | Some m' -> String.equal text (Store.encode_entry ~key:entry_key m')
      | None -> false)

(* --- Checkpoint decoder ------------------------------------------------------ *)

module Compiled = Mclock_sim.Compiled
module Sim = Mclock_sim.Simulator

(* Kernels of real catalog designs, one per (workload, method), built
   on first use. *)
let ckpt_kernels =
  lazy
    (Array.of_list
       (List.concat_map
          (fun w ->
            List.map
              (fun method_ ->
                Compiled.compile Mclock_tech.Cmos08.t
                  (Mclock_core.Flow.synthesize ~method_ ~name:"ckpt"
                     (Mclock_workloads.Workload.schedule w)))
              [
                Mclock_core.Flow.Conventional_gated;
                Mclock_core.Flow.Integrated 2;
                Mclock_core.Flow.Split 3;
              ])
          Mclock_workloads.Catalog.all))

(* (kernel, seed, checkpointed computations) of a real run. *)
let ckpt_case =
  Q.map
    (fun (i, seed, k1) ->
      let ks = Lazy.force ckpt_kernels in
      (ks.(i mod Array.length ks), seed, k1))
    Q.(triple small_nat small_nat (int_range 1 4))

let ckpt_blob (kernel, seed, k1) =
  Compiled.Checkpoint.encode
    (snd (Compiled.run_with_checkpoint ~seed kernel ~iterations:k1))

let decodes_to_error blob =
  match Compiled.Checkpoint.decode blob with
  | Error _ -> true
  | Ok _ -> false

let prop_ckpt_decode_hostile =
  Q.Test.make ~name:"checkpoint decoder: garbage is an error" ~count:500
    Q.string decodes_to_error

let prop_ckpt_decode_mutated =
  Q.Test.make ~name:"checkpoint decoder: a changed byte is an error" ~count:200
    (Q.triple ckpt_case Q.small_nat (Q.int_range 1 255))
    (fun (case, pos, flip) ->
      let b = Bytes.of_string (ckpt_blob case) in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      decodes_to_error (Bytes.to_string b))

let prop_ckpt_decode_truncated =
  Q.Test.make ~name:"checkpoint decoder: every truncation is an error" ~count:4
    ckpt_case (fun case ->
      let blob = ckpt_blob case in
      List.for_all
        (fun len -> decodes_to_error (String.sub blob 0 len))
        (List.init (String.length blob) Fun.id))

let prop_ckpt_decode_v1_magic =
  Q.Test.make ~name:"checkpoint decoder: a v1 blob is an error" ~count:20
    ckpt_case (fun case ->
      let blob = ckpt_blob case in
      let v2 = "MCLOCK-CKPT-v2\n" and v1 = "MCLOCK-CKPT-v1\n" in
      String.sub blob 0 (String.length v2) = v2
      && decodes_to_error
           (v1 ^ String.sub blob (String.length v1)
                   (String.length blob - String.length v1)))

(* Damage behind a valid seal reaches the structural decoder: a
   changed payload byte may still decode, but nothing raises, and a
   shortened payload is always an error. *)
let prop_ckpt_decode_resealed =
  Q.Test.make ~name:"checkpoint decoder: resealed damage never raises"
    ~count:200
    (Q.triple ckpt_case Q.small_nat (Q.int_range 1 255))
    (fun (case, pos, flip) ->
      let magic = "MCLOCK-CKPT-v2\n" in
      let blob = ckpt_blob case in
      let skip = String.length magic + 16 in
      let payload = String.sub blob skip (String.length blob - skip) in
      let reseal p = Mclock_util.Binio.seal ~magic p in
      let b = Bytes.of_string payload in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      (match Compiled.Checkpoint.decode (reseal (Bytes.to_string b)) with
      | Ok _ | Error _ -> true)
      && decodes_to_error (reseal (String.sub payload 0 pos)))

let prop_ckpt_roundtrip_resumes =
  Q.Test.make
    ~name:"checkpoint decoder: decode (encode ck) resumes bit-identically"
    ~count:60 ckpt_case (fun ((kernel, seed, k1) as case) ->
      match Compiled.Checkpoint.decode (ckpt_blob case) with
      | Error _ -> false
      | Ok ck ->
          let iterations = k1 + 3 in
          let fresh = Compiled.run ~seed kernel ~iterations in
          let resumed, _ = Compiled.resume kernel ck ~iterations in
          Int64.equal
            (Int64.bits_of_float fresh.Sim.energy_pj)
            (Int64.bits_of_float resumed.Sim.energy_pj)
          && Mclock_sim.Activity.equal_cells fresh.Sim.activity
               resumed.Sim.activity
          && fresh.Sim.inputs = resumed.Sim.inputs
          && fresh.Sim.outputs = resumed.Sim.outputs)

(* --- Json string codec ------------------------------------------------------ *)

let prop_json_string_roundtrip =
  Q.Test.make ~name:"json: strings round-trip through the escaper" ~count:500
    Q.string (fun s ->
      Mclock_util.Json.parse (Mclock_util.Json.to_string (Mclock_util.Json.String s))
      = Ok (Mclock_util.Json.String s))

let prop_json_escape_no_raw_controls =
  Q.Test.make ~name:"json: escaped strings hold no raw control bytes"
    ~count:500 Q.string (fun s ->
      let e = Mclock_util.Json.escape_string s in
      (not (String.exists (fun c -> Char.code c < 0x20) e))
      && String.length e >= String.length s + 2)

(* --- Constraint, objective and stimulus grammars ----------------------------- *)

(* Arbitrary bytes, plus concatenated grammar fragments so that a
   string often parses a long way before it fails. *)
let grammar_string =
  let token =
    Q.Gen.oneofl
      [ "power"; "area"; "energy"; "mem"; "latency"; "uniform"; "constant";
        "correlated"; "ramp"; "<="; "<"; "="; "*"; "+"; ":"; " "; "0"; "1";
        "0.1234567"; "1e7"; "1e+400"; "-3"; "nan"; "inf";
        "99999999999999999999" ]
  in
  Q.oneof
    [
      Q.string;
      Q.make ~print:Fun.id
        Q.Gen.(map (String.concat "") (list_size (int_bound 6) token));
    ]

(* Each parser answers Ok or Error and never raises; what parses
   prints back to text that parses to the same value. *)
let prop_grammars_total_and_roundtrip =
  Q.Test.make
    ~name:"constraint/objective/stimulus parsers: total, print round-trips"
    ~count:1000 grammar_string (fun s ->
      let module M = Mclock_explore.Metrics in
      let module O = Mclock_explore.Objective in
      (match M.parse_constraint s with
      | Ok c -> M.parse_constraint (M.constraint_to_string c) = Ok c
      | Error _ -> true)
      && (match O.parse s with
         | Ok t -> (
             match O.parse (O.to_string t) with
             | Ok t' -> O.equal t t'
             | Error _ -> false)
         | Error _ -> true)
      &&
      match Mclock_static.Stim.parse s with Ok _ | Error _ -> true)

(* --- Behaviour and DFG text parsers ----------------------------------------- *)

(* Token soup: keywords, names, operators, literals (one out of int
   range), separators and a stray byte, in any order, half the time
   after a well-formed header, so that a string often lexes and parses
   a long way before it fails. *)
let soup ~header tokens =
  Q.make ~print:Fun.id
    Q.Gen.(
      map2
        (fun with_header body -> if with_header then header ^ body else body)
        bool
        (map (String.concat " ") (list_size (int_bound 24) (oneofl tokens))))

let beh_soup =
  soup ~header:"behavior b\ninput x, y\noutput y, z\n"
    [ "behavior"; "behaviour"; "input"; "output"; "x"; "y"; "z"; "t1"; ":=";
      "+"; "-"; "*"; "/"; "&"; "|"; "^"; "~"; "<<"; ">>"; "<"; ">"; "=";
      "("; ")"; ","; "\n"; "0"; "3"; "99999999999999999999"; "# c"; "$" ]

let dfg_soup =
  soup ~header:"dfg d\ninputs x y\noutputs t1\n"
    [ "dfg"; "d"; "inputs"; "outputs"; "x"; "y"; "t1"; "n1:"; "n2:"; "nq:";
      "="; "+"; "-"; "*"; "~"; "<<"; "@"; "0"; "2"; "-1";
      "99999999999999999999"; "\n"; "# c" ]

(* The CLI's loaders catch exactly the exceptions these parsers
   document; anything else surfaces as an internal error. *)
let prop_beh_parser_documented_errors =
  Q.Test.make ~name:".beh compiler raises only its documented errors"
    ~count:2000 beh_soup (fun s ->
      match Mclock_lang.Compile.compile_string s with
      | _ -> true
      | exception
          ( Mclock_lang.Lexer.Error _ | Mclock_lang.Parser.Error _
          | Mclock_lang.Compile.Error _ | Graph.Invalid _ ) ->
          true)

let prop_dfg_parser_documented_errors =
  Q.Test.make ~name:"DFG text parser raises only Parse.Error" ~count:2000
    dfg_soup (fun s ->
      match Parse.parse_string s with
      | _ -> true
      | exception Parse.Error _ -> true)

let suite =
  List.map to_alcotest
    [
      prop_add_commutative;
      prop_add_associative;
      prop_sub_inverse;
      prop_xor_involution;
      prop_not_involution;
      prop_hamming_symmetric;
      prop_hamming_triangle;
      prop_hamming_zero_iff_equal;
      prop_mul_matches_int;
      prop_left_edge_tracks_disjoint;
      prop_left_edge_optimal;
      prop_left_edge_preserves_items;
      prop_clock_non_overlapping;
      prop_clock_every_cycle_has_a_phase;
      prop_partition_roundtrip;
      prop_partition_counts;
      prop_asap_at_most_alap;
      prop_asap_is_valid;
      prop_force_directed_within_deadline;
      prop_list_sched_constraint_held;
      prop_transfer_unifies_operand_partitions;
      prop_transfer_steps_legal;
      prop_reg_alloc_total;
      prop_integrated_flow_functional;
      prop_integrated_flow_checks_clean;
      prop_split_flow_functional;
      prop_resched_preserves_validity;
      prop_mux_aware_binding_functional;
      prop_conventional_flow_functional;
      prop_static_bound_sound_all_ops;
      prop_decode_entry_hostile;
      prop_decode_entry_mutated;
      prop_decode_entry_truncated;
      prop_decode_entry_roundtrip;
      prop_decode_entry_wrong_key;
      prop_encode_entry_canonical;
      prop_json_string_roundtrip;
      prop_json_escape_no_raw_controls;
      prop_ckpt_decode_hostile;
      prop_ckpt_decode_mutated;
      prop_ckpt_decode_truncated;
      prop_ckpt_decode_v1_magic;
      prop_ckpt_roundtrip_resumes;
      prop_ckpt_decode_resealed;
      prop_grammars_total_and_roundtrip;
      prop_beh_parser_documented_errors;
      prop_dfg_parser_documented_errors;
    ]
