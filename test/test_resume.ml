(* Checkpoint/resume differential suite.

   The tentpole contract: [Compiled.resume ckpt ~iterations:k2] is
   byte-identical — energy, per-(component, category) activity cells,
   power, input/output envs, VCD — to a fresh [Compiled.run] at k2,
   for every catalog workload, every synthesis method and several
   batch sizes.  On top of the kernel, the suite covers the sealed
   binary serialization (round-trip exactness, corruption degrading
   to a decode error), the store's checkpoint sidecars and GC, the
   engine's resume-or-recompute fallback, and the search's resume
   determinism and keep rule. *)

open Mclock_core
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
      (Printf.sprintf "%s: energy %.17g (fresh) vs %.17g (resumed)" label
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

let methods =
  [
    Flow.Conventional_non_gated;
    Flow.Conventional_gated;
    Flow.Integrated 1;
    Flow.Integrated 2;
    Flow.Integrated 4;
    Flow.Split 1;
    Flow.Split 2;
    Flow.Split 4;
  ]

(* --- Kernel-level byte-identity ---------------------------------------- *)

(* For every (workload, method, n): checkpoint at every proper prefix
   k1 of n and resume to n; both the prefix result and the combined
   result must equal the fresh runs at k1 and n. *)
let test_differential workload method_ () =
  let schedule = Mclock_workloads.Workload.schedule workload in
  let design = Flow.synthesize ~method_ ~name:"resume" schedule in
  let kernel = Compiled.compile tech design in
  List.iter
    (fun iterations ->
      let fresh = Compiled.run ~seed:97 kernel ~iterations in
      for k1 = 1 to iterations - 1 do
        let label =
          Printf.sprintf "%s/%s/%d->%d"
            workload.Mclock_workloads.Workload.name
            (Flow.method_label method_) k1 iterations
        in
        let prefix, ck =
          Compiled.run_with_checkpoint ~seed:97 kernel ~iterations:k1
        in
        assert_identical (label ^ " (prefix)")
          (Compiled.run ~seed:97 kernel ~iterations:k1)
          prefix;
        check Alcotest.int (label ^ ": checkpoint iterations") k1
          (Compiled.checkpoint_iterations ck);
        let resumed, ck' = Compiled.resume kernel ck ~iterations in
        assert_identical label fresh resumed;
        check Alcotest.int (label ^ ": extended checkpoint") iterations
          (Compiled.checkpoint_iterations ck')
      done)
    [ 2; 4 ]

let differential_tests =
  List.concat_map
    (fun w ->
      List.map
        (fun m ->
          ( Printf.sprintf "resume = fresh: %s / %s"
              w.Mclock_workloads.Workload.name (Flow.method_label m),
            `Quick,
            test_differential w m ))
        methods)
    Mclock_workloads.Catalog.all

(* A checkpoint chain 2 -> 4 -> 7 equals the fresh 7-computation run,
   and the intermediate checkpoint is reusable (resuming twice from
   the same checkpoint gives identical results — no hidden mutation). *)
let test_chained_resume () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Biquad.t in
  let design = Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"chain" s in
  let kernel = Compiled.compile tech design in
  let fresh = Compiled.run ~seed:5 kernel ~iterations:7 in
  let _, ck2 = Compiled.run_with_checkpoint ~seed:5 kernel ~iterations:2 in
  let r4, ck4 = Compiled.resume kernel ck2 ~iterations:4 in
  assert_identical "chain @4" (Compiled.run ~seed:5 kernel ~iterations:4) r4;
  let r7, _ = Compiled.resume kernel ck4 ~iterations:7 in
  assert_identical "chain @7" fresh r7;
  (* ck2 is not consumed: a second, different extension still works. *)
  let r7', _ = Compiled.resume kernel ck2 ~iterations:7 in
  assert_identical "chain 2->7 direct" fresh r7'

(* VCD: prefix samples [1 .. k1*t-1], resume continues into the same
   dump — concatenation byte-identical to the uninterrupted
   checkpointed trace at the combined count (both leave their final
   cycle untraced, since it is the one cycle an extension replays
   differently). *)
let test_vcd_concatenation () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let design = Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"vcdr" s in
  let kernel = Compiled.compile tech design in
  let full =
    let vcd = Mclock_sim.Vcd.create () in
    ignore
      (Compiled.run_with_checkpoint ~seed:11
         ~trace:{ Sim.vcd; max_cycles = max_int }
         kernel ~iterations:5);
    Mclock_sim.Vcd.contents vcd
  in
  let vcd = Mclock_sim.Vcd.create () in
  let _, ck =
    Compiled.run_with_checkpoint ~seed:11
      ~trace:{ Sim.vcd; max_cycles = max_int }
      kernel ~iterations:2
  in
  let _ =
    Compiled.resume ~trace:{ Sim.vcd; max_cycles = max_int } kernel ck
      ~iterations:5
  in
  check Alcotest.string "concatenated VCD = uninterrupted VCD" full
    (Mclock_sim.Vcd.contents vcd)

(* Observer streams concatenate the same way. *)
let test_observer_concatenation () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Hal.t in
  let design = Flow.synthesize ~method_:(Flow.Split 2) ~name:"obsr" s in
  let kernel = Compiled.compile tech design in
  let comp_ids =
    List.map Mclock_rtl.Comp.id
      (Mclock_rtl.Datapath.comps (Mclock_rtl.Design.datapath design))
  in
  let log = ref [] in
  let observer o =
    log :=
      ( o.Sim.obs_cycle,
        o.Sim.obs_step,
        o.Sim.obs_phase,
        List.map (fun id -> B.to_int (o.Sim.obs_value id)) comp_ids )
      :: !log
  in
  let capture f =
    log := [];
    f observer;
    List.rev !log
  in
  let full =
    capture (fun observer ->
        ignore
          (Compiled.run_with_checkpoint ~seed:3 ~observer kernel ~iterations:4))
  in
  let stitched =
    capture (fun observer ->
        let _, ck =
          Compiled.run_with_checkpoint ~seed:3 ~observer kernel ~iterations:2
        in
        ignore (Compiled.resume ~observer kernel ck ~iterations:4))
  in
  if full <> stitched then fail "observer streams differ"

(* Explicit stimulus: the resumed run needs the combined stimulus, its
   prefix is validated, and omitting it raises. *)
let test_stimulus_resume () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let design = Flow.synthesize ~method_:(Flow.Split 2) ~name:"stimr" s in
  let kernel = Compiled.compile tech design in
  let probe = Compiled.run ~seed:7 kernel ~iterations:6 in
  let stimulus =
    stimulus_of
      ~width:(Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath design))
      probe
  in
  let fresh = Compiled.run ~stimulus kernel ~iterations:6 in
  let prefix3 = Mclock_util.List_ext.take 3 stimulus in
  let _, ck =
    Compiled.run_with_checkpoint ~stimulus:prefix3 kernel ~iterations:3
  in
  let resumed, _ = Compiled.resume ~stimulus kernel ck ~iterations:6 in
  assert_identical "stimulus resume" fresh resumed;
  (match Compiled.resume kernel ck ~iterations:6 with
  | _ -> fail "resume without stimulus must raise"
  | exception Invalid_argument _ -> ());
  let mangled =
    match stimulus with
    | e0 :: rest ->
        Var.Map.map (fun b -> B.lognot b) e0 :: rest
    | [] -> assert false
  in
  match Compiled.resume ~stimulus:mangled kernel ck ~iterations:6 with
  | _ -> fail "resume with a different prefix must raise"
  | exception Invalid_argument _ -> ()

(* Mismatched kernels and non-increasing totals are rejected. *)
let test_resume_validation () =
  let sched w = Mclock_workloads.Workload.schedule w in
  let d1 =
    Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"v1"
      (sched Mclock_workloads.Facet.t)
  in
  let d2 =
    Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"v2"
      (sched Mclock_workloads.Biquad.t)
  in
  let k1 = Compiled.compile tech d1 in
  let k2 = Compiled.compile tech d2 in
  let _, ck = Compiled.run_with_checkpoint k1 ~iterations:2 in
  (match Compiled.resume k2 ck ~iterations:4 with
  | _ -> fail "foreign kernel must be rejected"
  | exception Invalid_argument _ -> ());
  match Compiled.resume k1 ck ~iterations:2 with
  | _ -> fail "non-increasing iterations must be rejected"
  | exception Invalid_argument _ -> ()

(* --- Serialization ----------------------------------------------------- *)

let facet_kernel_and_ck () =
  let s = Mclock_workloads.Workload.schedule Mclock_workloads.Facet.t in
  let design = Flow.synthesize ~method_:(Flow.Integrated 2) ~name:"ser" s in
  let kernel = Compiled.compile tech design in
  let _, ck = Compiled.run_with_checkpoint ~seed:13 kernel ~iterations:3 in
  (kernel, ck)

let test_encode_decode_roundtrip () =
  let kernel, ck = facet_kernel_and_ck () in
  let fresh = Compiled.run ~seed:13 kernel ~iterations:8 in
  let blob = Compiled.Checkpoint.encode ck in
  match Compiled.Checkpoint.decode blob with
  | Error e -> fail ("decode failed: " ^ e)
  | Ok ck' ->
      check Alcotest.int "iterations survive" 3
        (Compiled.checkpoint_iterations ck');
      let resumed, _ = Compiled.resume kernel ck' ~iterations:8 in
      assert_identical "decoded checkpoint resumes identically" fresh resumed;
      (* encode is deterministic *)
      check Alcotest.string "encode deterministic" blob
        (Compiled.Checkpoint.encode ck)

(* Re-seal [blob] with its energy cell array replaced by [f cells],
   copying every other field of the v2 payload through unchanged. *)
let with_cells f blob =
  let module Binio = Mclock_util.Binio in
  let magic = "MCLOCK-CKPT-v2\n" in
  let payload = Result.get_ok (Binio.unseal ~magic blob) in
  let r = Binio.R.of_string payload and w = Binio.W.create () in
  let ints n = for _ = 1 to n do Binio.W.int w (Binio.R.int r) done in
  let matrix () =
    let rows = Binio.R.int r in
    Binio.W.int w rows;
    for _ = 1 to rows do Binio.W.int_array w (Binio.R.int_array r) done
  in
  ints 7;
  Binio.W.bool w (Binio.R.bool r);
  Binio.W.i64 w (Binio.R.i64 r);
  matrix ();
  for _ = 1 to 8 do Binio.W.int_array w (Binio.R.int_array r) done;
  for _ = 1 to 2 do Binio.W.bool_array w (Binio.R.bool_array r) done;
  Binio.W.float_array w (f (Binio.R.float_array r));
  Binio.W.float w (Binio.R.float r);
  matrix ();
  Binio.R.expect_end r;
  Binio.seal ~magic (Binio.W.contents w)

let test_decode_rejects_corruption () =
  let _, ck = facet_kernel_and_ck () in
  let blob = Compiled.Checkpoint.encode ck in
  let expect_error label b =
    match Compiled.Checkpoint.decode b with
    | Error _ -> ()
    | Ok _ -> fail (label ^ ": corrupt blob decoded")
  in
  expect_error "empty" "";
  expect_error "truncated" (String.sub blob 0 (String.length blob / 2));
  expect_error "wrong magic" ("XXXX" ^ blob);
  let flipped = Bytes.of_string blob in
  let mid = String.length blob / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  expect_error "bit flip" (Bytes.to_string flipped);
  expect_error "appended garbage" (blob ^ "trailing");
  (* The kernel indexes the decoded energy cells directly, so their
     count must be exactly components x categories. *)
  check Alcotest.string "unchanged cells re-encode to the same bytes" blob
    (with_cells Fun.id blob);
  expect_error "energy cells one short"
    (with_cells (fun c -> Array.sub c 0 (Array.length c - 1)) blob);
  expect_error "energy cells one long"
    (with_cells (fun c -> Array.append c [| 0. |]) blob);
  expect_error "energy cells empty" (with_cells (fun _ -> [||]) blob)

(* --- Store sidecars, engine fallback, search resume -------------------- *)

open Mclock_explore

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mclock-test-resume.%d.%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()
  end

let with_store f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()))

let smoke_workload = Mclock_workloads.Facet.t
let smoke_graph = Mclock_workloads.Workload.graph smoke_workload
let smoke_constraints = smoke_workload.Mclock_workloads.Workload.constraints

let search ?cache ?(jobs = 1) ?min_iterations ?(iterations = 60) ?resume () =
  Mclock_exec.Pool.with_pool ~jobs (fun pool ->
      Halving.run ~pool ?cache ~eta:2 ?min_iterations ~seed:42 ~iterations
        ~max_clocks:2 ?resume ~name:"facet"
        ~sched_constraints:smoke_constraints smoke_graph)

let doc r = Mclock_util.Json.to_string (Halving.result_json r)

let test_store_checkpoint_roundtrip () =
  with_store (fun store ->
      let _, ck = facet_kernel_and_ck () in
      let blob = Compiled.Checkpoint.encode ck in
      let key = String.make 32 'a' in
      check Alcotest.bool "absent sidecar misses" true
        (Store.find_checkpoint store ~key = None);
      Store.store_checkpoint store ~key blob;
      (match Store.find_checkpoint store ~key with
      | Some b -> check Alcotest.string "sidecar bytes round-trip" blob b
      | None -> fail "stored sidecar not found");
      (* A path-hostile key is refused, never written. *)
      Store.store_checkpoint store ~key:"../evil" blob;
      check Alcotest.bool "hostile key misses" true
        (Store.find_checkpoint store ~key:"../evil" = None);
      let s = Store.stats store in
      check Alcotest.int "ckpt stores" 1 s.Store.ckpt_stores;
      check Alcotest.int "ckpt hits" 1 s.Store.ckpt_hits)

(* A corrupted sidecar degrades to a fresh simulation with identical
   metrics — the cache can make evaluation faster, never wrong. *)
let test_corrupt_sidecar_degrades () =
  with_store (fun store ->
      Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
          let space =
            Engine.prepare ~max_clocks:2 ~iterations:8 ~name:"facet"
              ~sched_constraints:smoke_constraints smoke_graph
          in
          let cells = space.Engine.sp_cells in
          let reference, _ =
            Engine.evaluate_at ~pool ~seed:42 ~iterations:8 space cells
          in
          (* Populate rung-4 checkpoints, then corrupt every sidecar. *)
          let _, rs4 =
            Engine.evaluate_at ~pool ~cache:store ~checkpoints:true ~seed:42
              ~iterations:4 space cells
          in
          check Alcotest.bool "rung 4 wrote checkpoints" true
            (rs4.Engine.rs_checkpoints_written > 0);
          List.iter
            (fun p ->
              let key = Engine.cell_key space ~seed:42 ~iterations:4 p in
              let path = Store.checkpoint_path store ~key in
              let oc = open_out_bin path in
              output_string oc "garbage";
              close_out oc)
            cells;
          let metrics, rs8 =
            Engine.evaluate_at ~pool ~cache:store ~resume_from:[ 4 ] ~seed:42
              ~iterations:8 space cells
          in
          check Alcotest.int "nothing resumed from garbage" 0
            rs8.Engine.rs_resumed;
          check Alcotest.int "everything simulated fresh"
            (List.length cells) rs8.Engine.rs_simulated;
          List.iter2
            (fun a b ->
              if not (Metrics.equal a b) then
                fail "degraded metrics differ from reference")
            (List.map Engine.metrics reference)
            (List.map Engine.metrics metrics)))

(* The engine resumes from the highest cached rung at or below the
   target, and the metrics equal an uncached evaluation's. *)
let test_engine_resume_ladder () =
  with_store (fun store ->
      Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
          let space =
            Engine.prepare ~max_clocks:2 ~iterations:12 ~name:"facet"
              ~sched_constraints:smoke_constraints smoke_graph
          in
          let cells = space.Engine.sp_cells in
          let reference, _ =
            Engine.evaluate_at ~pool ~seed:42 ~iterations:12 space cells
          in
          let _ =
            Engine.evaluate_at ~pool ~cache:store ~checkpoints:true ~seed:42
              ~iterations:3 space cells
          in
          let _ =
            Engine.evaluate_at ~pool ~cache:store ~checkpoints:true ~seed:42
              ~iterations:6 space cells
          in
          let metrics, rs =
            Engine.evaluate_at ~pool ~cache:store ~resume_from:[ 3; 6 ]
              ~checkpoints:true ~seed:42 ~iterations:12 space cells
          in
          let n = List.length cells in
          check Alcotest.int "every cell resumed" n rs.Engine.rs_resumed;
          (* The ladder picks 6, not 3. *)
          check Alcotest.int "resumed from the highest rung" (n * 6)
            rs.Engine.rs_resumed_iterations;
          check Alcotest.int "only the extension simulated" (n * 6)
            rs.Engine.rs_fresh_iterations;
          List.iter2
            (fun a b ->
              if not (Metrics.equal a b) then
                fail "resumed metrics differ from uncached")
            (List.map Engine.metrics reference)
            (List.map Engine.metrics metrics)))

(* Search determinism with resume: the uncached, cold-cache and
   warm-cache documents are byte-identical, the warm run simulates
   nothing, and the cold run writes and extends checkpoints. *)
let test_halving_resume_deterministic () =
  with_store (fun store ->
      let uncached = search () in
      let cold = search ~cache:store () in
      let warm = search ~cache:store () in
      check Alcotest.string "cold doc = uncached doc" (doc uncached) (doc cold);
      check Alcotest.string "warm doc = uncached doc" (doc uncached) (doc warm);
      check Alcotest.bool "cold run resumed promotions" true
        (cold.Halving.stats.Halving.resumed > 0);
      check Alcotest.bool "cold run wrote checkpoints" true
        (cold.Halving.stats.Halving.checkpoints_written > 0);
      check Alcotest.int "warm run simulates nothing" 0
        warm.Halving.stats.Halving.simulated;
      (* Resume must beat restart-per-rung on actually-simulated
         iterations, winner unchanged. *)
      rm_rf (Store.dir store);
      let restart = with_store (fun s -> search ~cache:s ~resume:false ()) in
      check Alcotest.string "winner invariant under resume"
        (match restart.Halving.winner with
        | Some w -> w.Halving.c_label
        | None -> "none")
        (match cold.Halving.winner with
        | Some w -> w.Halving.c_label
        | None -> "none");
      (* Rung labels, budgets, scores and kept sets do not depend on
         whether promotions resume. *)
      let rungs r =
        Mclock_util.Json.member "rungs" (Halving.result_json r)
        |> Option.get |> Mclock_util.Json.to_string
      in
      check Alcotest.string "rungs invariant under resume" (rungs restart)
        (rungs cold);
      let ratio =
        float_of_int restart.Halving.stats.Halving.simulated_iterations
        /. float_of_int cold.Halving.stats.Halving.simulated_iterations
      in
      if ratio < 1.2 then
        fail
          (Printf.sprintf "resume saved only %.2fx over restart-per-rung"
             ratio))

let test_halving_resume_jobs_invariant () =
  let d1 = with_store (fun s -> doc (search ~cache:s ~jobs:1 ())) in
  let d4 = with_store (fun s -> doc (search ~cache:s ~jobs:4 ())) in
  check Alcotest.string "jobs=1 doc = jobs=4 doc" d1 d4

(* The keep rule, pinned: the canonical ceil(n/eta), capped at the
   functional candidates there are. *)
let test_keep_width () =
  let scores = [ 0.10; 0.20; 0.30; 0.31; 0.90 ] in
  check Alcotest.int "default = canonical" 3
    (Halving.keep_width ~eta:2 ~field:5 scores);
  check Alcotest.int "fewer functional than base keeps all" 2
    (Halving.keep_width ~eta:2 ~field:8 [ 0.1; 0.2 ])

let test_degenerate_diagnostic () =
  let r = search ~min_iterations:60 () in
  (match r.Halving.degenerate with
  | None -> fail "min_iterations = iterations must flag a degenerate schedule"
  | Some msg ->
      check Alcotest.bool "message names the cause" true
        (let has needle =
           let nl = String.length needle and l = String.length msg in
           let rec go i = i + nl <= l && (String.sub msg i nl = needle || go (i + 1)) in
           go 0
         in
         has "min_iterations"));
  check Alcotest.int "single rung" 1 (List.length r.Halving.rungs);
  check Alcotest.bool "healthy schedule has no diagnostic" true
    ((search ()).Halving.degenerate = None)

(* --- GC and manifest --------------------------------------------------- *)

let test_gc_and_manifest () =
  with_store (fun store ->
      ignore (search ~cache:store ());
      let m0 = Store.manifest store in
      check Alcotest.bool "manifest rebuilt on first read" true m0.Store.m_rebuilt;
      check Alcotest.bool "entries after a search" true (m0.Store.m_entries > 0);
      check Alcotest.bool "bytes after a search" true (m0.Store.m_bytes > 0);
      let m1 = Store.manifest store in
      check Alcotest.bool "second read is O(1)" false m1.Store.m_rebuilt;
      check Alcotest.int "cached entries agree" m0.Store.m_entries
        m1.Store.m_entries;
      check Alcotest.int "cached bytes agree" m0.Store.m_bytes m1.Store.m_bytes;
      (* Corrupt the manifest: the next read rebuilds atomically. *)
      let oc = open_out_bin (Filename.concat (Store.dir store) "MANIFEST.json") in
      output_string oc "{broken";
      close_out oc;
      let m2 = Store.manifest store in
      check Alcotest.bool "corrupt manifest rebuilds" true m2.Store.m_rebuilt;
      check Alcotest.int "rebuild recovers totals" m0.Store.m_entries
        m2.Store.m_entries;
      (* Size-bounded GC evicts down to the budget and updates the
         manifest; age-bounded GC with a zero age clears everything. *)
      let budget = m0.Store.m_bytes / 2 in
      let g = Store.gc ~max_bytes:budget store in
      check Alcotest.bool "gc evicted something" true
        (g.Store.gc_removed_entries > 0);
      check Alcotest.bool "gc respects the byte budget" true
        (g.Store.gc_remaining_bytes <= budget);
      let m3 = Store.manifest store in
      check Alcotest.bool "gc refreshed the manifest" false m3.Store.m_rebuilt;
      check Alcotest.int "manifest matches gc" g.Store.gc_remaining_entries
        m3.Store.m_entries;
      let g2 = Store.gc ~max_age:0. store in
      check Alcotest.int "zero age clears the store" 0
        g2.Store.gc_remaining_entries;
      check Alcotest.int "nothing left on disk" 0
        (Store.manifest ~rebuild:true store).Store.m_entries;
      (* A warm search after GC recomputes and still matches. *)
      let after = search ~cache:store () in
      check Alcotest.string "post-gc search is unchanged" (doc (search ()))
        (doc after))

let suite =
  differential_tests
  @ [
      ("chained resume", `Quick, test_chained_resume);
      ("vcd concatenation", `Quick, test_vcd_concatenation);
      ("observer concatenation", `Quick, test_observer_concatenation);
      ("stimulus resume", `Quick, test_stimulus_resume);
      ("resume validation", `Quick, test_resume_validation);
      ("encode/decode roundtrip", `Quick, test_encode_decode_roundtrip);
      ("decode rejects corruption", `Quick, test_decode_rejects_corruption);
      ("store checkpoint roundtrip", `Quick, test_store_checkpoint_roundtrip);
      ("corrupt sidecar degrades", `Quick, test_corrupt_sidecar_degrades);
      ("engine resume ladder", `Quick, test_engine_resume_ladder);
      ( "halving resume deterministic",
        `Quick,
        test_halving_resume_deterministic );
      ("halving resume jobs invariant", `Quick, test_halving_resume_jobs_invariant);
      ("keep width", `Quick, test_keep_width);
      ("degenerate diagnostic", `Quick, test_degenerate_diagnostic);
      ("gc and manifest", `Quick, test_gc_and_manifest);
    ]
