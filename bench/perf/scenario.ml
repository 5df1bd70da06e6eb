(* The four benchmark workloads: their set-up, one timed pass, the layer
   probes of a traced run, and the untimed correctness checks.

   Layers are timed from outside, through their public functions: the
   probes replay a stage on the same cells with the workload's pool
   alive and compare their total with the in-program span that covers
   the same work. *)

open Mclock_explore
module Pool = Mclock_exec.Pool
module Obs = Mclock_obs.Obs
module Registry = Mclock_obs.Registry
module Workload = Mclock_workloads.Workload
module Flow = Mclock_core.Flow
module Report = Mclock_power.Report
module Design = Mclock_rtl.Design

type kind = Explore_cold | Explore_warm | Search_cold | Paper_eval

let kinds = [ Explore_cold; Explore_warm; Search_cold; Paper_eval ]

let name = function
  | Explore_cold -> "explore_cold"
  | Explore_warm -> "explore_warm"
  | Search_cold -> "search_cold"
  | Paper_eval -> "paper_eval"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* Worker domains of every workload's pool, fixed so that every host
   runs the same shape.  One, which Pool runs inline on the calling
   domain without spawning any: on a shared 2-core host, two worker
   domains spread paper_eval's wall time over 14% of its median across
   runs (4.7% with one), and parked domains slow explore's serial
   prepare stage (exec.parked_slowdown). *)
let jobs = 1

type scale = {
  behaviours : Workload.t list;
  max_clocks : int;
  iterations : int;  (** computations per explore/search cell *)
  paper_iterations : int;  (** computations per paper_eval design *)
  parked : Workload.t;  (** the behaviour exec.parked_slowdown analyzes *)
  setup_seconds : float;
      (** set-up repeats for at least this long (and three times); one
          set-up of the cheap workloads takes tens of milliseconds, too
          little to time once *)
  probe_pairs : int;  (** traced pass + probe pairs, at least *)
  strict : bool;
      (** whether {!Pinned}'s values and the probe agreement are checked:
          both only hold at the full scale *)
}

(* The whole catalog over the whole grid.  Computations per cell are
   cut from the catalog default of 400 so that one pass takes seconds
   and a run holds several.  Static analysis and simulation both grow
   with them, so the layers keep their order but not their shares:
   prepare is 65% of a cold exploration at 400 computations and 81% at
   50 (README.md). *)
let full =
  {
    behaviours = Mclock_workloads.Catalog.all;
    max_clocks = 4;
    iterations = 50;
    paper_iterations = 2000;
    parked = Mclock_workloads.Ewf.t;
    setup_seconds = 1.;
    probe_pairs = 7;
    strict = true;
  }

let smoke =
  {
    behaviours = [ Mclock_workloads.Motivating.t; Mclock_workloads.Facet.t ];
    max_clocks = 2;
    iterations = 120;
    paper_iterations = 120;
    parked = Mclock_workloads.Motivating.t;
    setup_seconds = 0.;
    probe_pairs = 1;
    strict = false;
  }

let tech = Mclock_tech.Cmos08.t

type behaviour = {
  b_name : string;
  b_graph : Mclock_dfg.Graph.t;
  b_constraints : Mclock_sched.List_sched.constraints;
}

let behaviour (w : Workload.t) =
  {
    b_name = w.Workload.name;
    b_graph = Workload.graph w;
    b_constraints = w.Workload.constraints;
  }

(* --- Bench-side spans and stage timers ----------------------------------- *)

let span name f = Obs.with_span ~cat:"bench" ~name f

type stage = {
  mutable seconds : float;
  mutable calls : int;
  mutable alloc_bytes : float;
}

let stage () = { seconds = 0.; calls = 0; alloc_bytes = 0. }

(* [f ()] inside a bench span, charged to [st].  Allocation is the
   calling domain's, so a stage is only ever charged from one domain. *)
let timed st name f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Measure.now () in
  let r = span name f in
  st.seconds <- st.seconds +. (Measure.now () -. t0);
  st.alloc_bytes <- st.alloc_bytes +. (Gc.allocated_bytes () -. a0);
  st.calls <- st.calls + 1;
  r

(* --- The operations a pass runs ------------------------------------------ *)

let paper_methods ~max_clocks =
  [ ("conv", Flow.Conventional_non_gated, 1); ("gated", Flow.Conventional_gated, 1) ]
  @ List.map (fun n -> (Printf.sprintf "mc%d" n, Flow.Integrated n, n)) [ 1; 2; 3; 4 ]
  @ [ ("split2", Flow.Split 2, 2); ("split4", Flow.Split 4, 4) ]
  |> List.filter (fun (_, _, clocks) -> clocks <= max_clocks)

let paper_designs ~synth ~max_clocks workloads =
  List.concat_map
    (fun w ->
      let graph = Workload.graph w and schedule = Workload.schedule w in
      List.map
        (fun (m_label, method_, _) ->
          let label = w.Workload.name ^ "/" ^ m_label in
          let design =
            timed synth "bench.synthesize" (fun () ->
                Flow.synthesize ~method_ ~name:label schedule)
          in
          (label, design, graph))
        (paper_methods ~max_clocks))
    workloads

let explore_all ~pool ?cache ~seed ~iterations ~max_clocks behaviours =
  List.map
    (fun b ->
      span "bench.explore" (fun () ->
          Engine.explore ~pool ?cache ~seed ~iterations ~max_clocks ~name:b.b_name
            ~sched_constraints:b.b_constraints b.b_graph))
    behaviours

let search_all ~pool ?cache ~seed ~iterations ~max_clocks behaviours =
  List.map
    (fun b ->
      span "bench.search" (fun () ->
          Halving.run ~pool ?cache ~eta:2 ~resume:true ~seed ~iterations
            ~max_clocks ~name:b.b_name ~sched_constraints:b.b_constraints
            b.b_graph))
    behaviours

let evaluate_all ~pool ~seed ~iterations designs =
  span "bench.evaluate_batch" (fun () ->
      Report.evaluate_batch ~pool ~seed ~iterations tech designs)

type outcome =
  | Explored of Engine.result list
  | Searched of Halving.result list
  | Evaluated of Report.t list

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* The result documents a user reads: frontiers, search reports, or
   each design's power as an exact hex float. *)
let document = function
  | Explored rs ->
      String.concat "\n"
        (List.map (fun r -> Mclock_lint.Json.to_string (Engine.frontier_json r)) rs)
  | Searched rs ->
      String.concat "\n"
        (List.map (fun r -> Mclock_lint.Json.to_string (Halving.result_json r)) rs)
  | Evaluated rs ->
      String.concat "\n"
        (List.map (fun r -> Printf.sprintf "%s %h" r.Report.label r.Report.power_mw) rs)

(* Cells answered: every enumerated cell of an exploration, every
   candidate evaluation of a search, every evaluated design. *)
let cells = function
  | Explored rs -> sum (fun r -> r.Engine.stats.Engine.enumerated) rs
  | Searched rs ->
      sum (fun r -> sum (fun g -> List.length g.Halving.r_candidates) r.Halving.rungs) rs
  | Evaluated rs -> List.length rs

(* Cells the golden model found functionally correct. *)
let functional = function
  | Explored rs ->
      sum
        (fun r ->
          sum
            (fun c ->
              match c.Engine.status with
              | (Engine.Cached m | Engine.Simulated m) when m.Metrics.functional_ok -> 1
              | _ -> 0)
            r.Engine.cells)
        rs
  | Searched rs ->
      sum
        (fun r ->
          sum
            (fun g ->
              sum
                (fun c -> if c.Halving.c_metrics.Metrics.functional_ok then 1 else 0)
                g.Halving.r_candidates)
            r.Halving.rungs)
        rs
  | Evaluated rs -> sum (fun r -> if r.Report.functional_ok then 1 else 0) rs

(* Computations actually simulated (a resumed extension counts only
   the computations beyond its checkpoint). *)
let computations = function
  | Explored rs -> sum (fun r -> r.Engine.stats.Engine.simulated * r.Engine.iterations) rs
  | Searched rs -> sum (fun r -> r.Halving.stats.Halving.simulated_iterations) rs
  | Evaluated rs -> sum (fun r -> r.Report.iterations) rs

(* Deterministic counts of one pass, pinned in {!Pinned}. *)
let outcome_counts = function
  | Explored rs ->
      let s f = sum (fun r -> f r.Engine.stats) rs in
      [
        ("explore.cells_simulated", s (fun x -> x.Engine.simulated));
        ("explore.cache_hits", s (fun x -> x.Engine.cache_hits));
        ("explore.pruned", s (fun x -> x.Engine.pruned));
      ]
  | Searched rs ->
      let s f = sum (fun r -> f r.Halving.stats) rs in
      [
        ("explore.cells_simulated", s (fun x -> x.Halving.simulated));
        ("explore.cache_hits", s (fun x -> x.Halving.cache_hits));
        ("explore.pruned", sum (fun r -> r.Halving.pruned) rs);
        ("search.rungs", sum (fun r -> List.length r.Halving.rungs) rs);
        ("search.simulated_iterations", s (fun x -> x.Halving.simulated_iterations));
        ("search.resumed", s (fun x -> x.Halving.resumed));
      ]
  | Evaluated _ -> []

(* --- Set-up and one timed pass ------------------------------------------- *)

type ctx = {
  kind : kind;
  scale : scale;
  seed : int;
  pool : Pool.t;
  work : string;  (** this run's scratch directory *)
  mutable stores : int;
}

let fresh_store ctx =
  ctx.stores <- ctx.stores + 1;
  let dir = Filename.concat ctx.work (Printf.sprintf "store-%d" ctx.stores) in
  (Store.open_ ~dir (), dir)

type state = {
  behaviours : behaviour list;
  designs : (string * Design.t * Mclock_dfg.Graph.t) list;  (** paper_eval *)
  synth : stage;  (** paper_eval: the designs' synthesis *)
  warm : (Store.t * string * string) option;
      (** explore_warm: the populated store, its directory, and the
          document of the pass that populated it *)
}

(* Inputs, one untimed warm-up pass (motivating at 2 clocks) and, for
   explore_warm, the cold pass that populates the store. *)
let setup ctx =
  let sc = ctx.scale and pool = ctx.pool and seed = ctx.seed in
  let behaviours = List.map behaviour sc.behaviours in
  let synth = stage () in
  let designs =
    match ctx.kind with
    | Paper_eval -> paper_designs ~synth ~max_clocks:sc.max_clocks sc.behaviours
    | Explore_cold | Explore_warm | Search_cold -> []
  in
  let warmup = [ behaviour Mclock_workloads.Motivating.t ] in
  (match ctx.kind with
  | Explore_cold | Explore_warm ->
      ignore (explore_all ~pool ~seed ~iterations:sc.iterations ~max_clocks:2 warmup)
  | Search_cold ->
      let cache, dir = fresh_store ctx in
      ignore
        (search_all ~pool ~cache ~seed ~iterations:sc.iterations ~max_clocks:2 warmup);
      Measure.rm_rf dir
  | Paper_eval ->
      let motivating =
        paper_designs ~synth:(stage ()) ~max_clocks:2 [ Mclock_workloads.Motivating.t ]
      in
      ignore (evaluate_all ~pool ~seed ~iterations:sc.paper_iterations motivating));
  let warm =
    match ctx.kind with
    | Explore_warm ->
        let cache, dir = fresh_store ctx in
        let populated =
          explore_all ~pool ~cache ~seed ~iterations:sc.iterations
            ~max_clocks:sc.max_clocks behaviours
        in
        Some (cache, dir, document (Explored populated))
    | Explore_cold | Search_cold | Paper_eval -> None
  in
  { behaviours; designs; synth; warm }

let discard st =
  Option.iter (fun (_, dir, _) -> Measure.rm_rf dir) st.warm

type pass = {
  outcome : outcome;
  wall_s : float;
  cpu_s : float;
  counts : (string * int) list;
      (** deterministic: {!outcome_counts}, store traffic, pool tasks *)
  store_ops : int;
  store_failures : int;
  busy_s : float;  (** pool task time *)
  gc_minor : int;
  gc_major : int;
  gc_alloc_mb : float;
  store_bytes : int;
  ckpt_bytes : int;
}

let pool_counter pool name =
  Option.value ~default:0 (Registry.get (Pool.registry pool) name)

let store_delta before after =
  let d f = f after - f before in
  ( [
      ("store.hits", d (fun s -> s.Store.hits + s.Store.ckpt_hits));
      ("store.misses", d (fun s -> s.Store.misses + s.Store.ckpt_misses));
      ("store.writes", d (fun s -> s.Store.stores));
      ("store.ckpt_writes", d (fun s -> s.Store.ckpt_stores));
    ],
    d (fun s -> s.Store.store_failures) )

let pass ctx st =
  let sc = ctx.scale and pool = ctx.pool and seed = ctx.seed in
  let iterations = sc.iterations and max_clocks = sc.max_clocks in
  let cache =
    match ctx.kind with
    | Explore_cold | Search_cold -> Some (fresh_store ctx)
    | Explore_warm -> Option.map (fun (s, dir, _) -> (s, dir)) st.warm
    | Paper_eval -> None
  in
  let store = Option.map fst cache in
  let store_stats () = Option.map Store.stats store in
  let s0 = store_stats () in
  let tasks0 = pool_counter pool "tasks" and busy0 = pool_counter pool "wall_us" in
  let g0 = Gc.quick_stat () in
  let c0 = Measure.cpu_s () in
  let t0 = Measure.now () in
  let outcome =
    span "bench.pass" (fun () ->
        match ctx.kind with
        | Explore_cold | Explore_warm ->
            Explored
              (explore_all ~pool ?cache:store ~seed ~iterations ~max_clocks st.behaviours)
        | Search_cold ->
            Searched
              (search_all ~pool ?cache:store ~seed ~iterations ~max_clocks st.behaviours)
        | Paper_eval ->
            Evaluated
              (evaluate_all ~pool ~seed ~iterations:sc.paper_iterations st.designs))
  in
  let wall_s = Measure.now () -. t0 in
  let cpu_s = Measure.cpu_s () -. c0 in
  let g1 = Gc.quick_stat () in
  let store_counts, store_failures =
    match (s0, store_stats ()) with
    | Some a, Some b -> store_delta a b
    | _ -> ([], 0)
  in
  let store_bytes, ckpt_bytes =
    match cache with Some (_, dir) -> Measure.dir_bytes dir | None -> (0, 0)
  in
  (match (ctx.kind, cache) with
  | (Explore_cold | Search_cold), Some (_, dir) -> Measure.rm_rf dir
  | _ -> ());
  let words =
    g1.Gc.minor_words -. g0.Gc.minor_words +. g1.Gc.major_words -. g0.Gc.major_words
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  {
    outcome;
    wall_s;
    cpu_s;
    counts =
      outcome_counts outcome @ store_counts
      @ [ ("exec.tasks", pool_counter pool "tasks" - tasks0) ];
    store_ops = sum snd store_counts + store_failures;
    store_failures;
    busy_s = float_of_int (pool_counter pool "wall_us" - busy0) /. 1e6;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_alloc_mb = words *. float_of_int (Sys.word_size / 8) /. 1048576.;
    store_bytes;
    ckpt_bytes;
  }

(* --- Layer probes (traced runs only) ------------------------------------- *)

(* Engine.prepare's stages replayed through their public functions on
   one behaviour: one schedule per scheduler, then synthesis (with the
   lint gate) and static analysis of every enumerated cell.  Returns
   each cell's configuration and design, in enumeration order. *)
let replay_prepare ~max_clocks ~iterations ~schedule ~synth ~static b =
  let schedules = Hashtbl.create 4 in
  List.map
    (fun config ->
      let sched =
        match Hashtbl.find_opt schedules config.Config.scheduler with
        | Some s -> s
        | None ->
            let s =
              timed schedule "probe.schedule" (fun () ->
                  Config.schedule config ~constraints:b.b_constraints b.b_graph)
            in
            Hashtbl.add schedules config.Config.scheduler s;
            s
      in
      let design =
        timed synth "probe.synthesize" (fun () ->
            Config.synthesize ~tech config ~name:("x_" ^ b.b_name) sched)
      in
      ignore
        (timed static "probe.static" (fun () ->
             Metrics.bounds_and_estimate_of_design ~config ~iterations tech design));
      (config, design))
    (Config.enumerate ~max_clocks)

type probe = {
  metrics : (string * float) list;
  probe_s : float;  (** the probe's total for the covered stages *)
  steps : string -> int -> int;
      (** control steps of a behaviour's cell (by enumeration index) or
          of a paper_eval design (by label, index ignored) *)
}

let prepare_probe ctx st =
  let sc = ctx.scale in
  let schedule = stage () and synth = stage () and static = stage () in
  let designs =
    span "bench.probe.prepare" (fun () ->
        List.map
          (fun b ->
            ( b.b_name,
              Array.of_list
                (List.map
                   (fun (_, d) -> Design.num_steps d)
                   (replay_prepare ~max_clocks:sc.max_clocks ~iterations:sc.iterations
                      ~schedule ~synth ~static b)) ))
          st.behaviours)
  in
  {
    metrics =
      [
        ("core.synth_s", synth.seconds);
        ("core.synth_calls", float_of_int synth.calls);
        ("static.analyze_s", static.seconds);
        ("static.calls", float_of_int static.calls);
        ("static.alloc_mb", static.alloc_bytes /. 1048576.);
      ];
    probe_s = schedule.seconds +. synth.seconds +. static.seconds;
    steps = (fun b i -> (List.assoc b designs).(i));
  }

(* Compile, run and verify every paper_eval design again, one pool task
   each as evaluate_batch does. *)
let sim_probe ctx st =
  let sc = ctx.scale in
  let per_design =
    span "bench.probe.sim" (fun () ->
        Pool.map ctx.pool
          (fun _ (_, design, graph) ->
            let compile = stage () and run = stage () and verify = stage () in
            let k =
              timed compile "probe.compile" (fun () ->
                  Mclock_sim.Compiled.compile tech design)
            in
            let sim =
              timed run "probe.run" (fun () ->
                  Mclock_sim.Compiled.run ~seed:ctx.seed k
                    ~iterations:sc.paper_iterations)
            in
            let width = Mclock_rtl.Datapath.width (Design.datapath design) in
            ignore
              (timed verify "probe.verify" (fun () ->
                   Mclock_sim.Verify.check ~width graph sim));
            (compile.seconds, run.seconds, verify.seconds))
          st.designs)
  in
  let total f = List.fold_left (fun acc x -> acc +. f x) 0. per_design in
  let compile_s = total (fun (c, _, _) -> c) and run_s = total (fun (_, r, _) -> r) in
  {
    metrics =
      [
        ("core.synth_s", st.synth.seconds);
        ("core.synth_calls", float_of_int st.synth.calls);
        ("sim.verify_s", total (fun (_, _, v) -> v));
      ];
    probe_s = compile_s +. run_s;
    steps =
      (fun label _ ->
        let _, d, _ = List.find (fun (l, _, _) -> l = label) st.designs in
        Design.num_steps d);
  }

let probe ctx st =
  match ctx.kind with
  | Paper_eval -> sim_probe ctx st
  | Explore_cold | Explore_warm | Search_cold -> prepare_probe ctx st

(* The in-program spans a probe's total must agree with. *)
let probed_spans = function
  | Paper_eval -> [ "sim.compile"; "sim.run" ]
  | Explore_cold | Explore_warm | Search_cold -> [ "explore.prepare" ]

(* Serial static analysis of one behaviour's grid (ewf at full scale)
   with a parked two-worker pool alive, over the same stage with no
   pool. *)
let parked_slowdown scale =
  let b = behaviour scale.parked in
  let ignore_stage = stage () in
  let cells =
    replay_prepare ~max_clocks:scale.max_clocks ~iterations:scale.iterations
      ~schedule:ignore_stage ~synth:ignore_stage ~static:ignore_stage b
  in
  let static_stage () =
    let t0 = Measure.now () in
    List.iter
      (fun (config, design) ->
        ignore
          (Metrics.bounds_and_estimate_of_design ~config
             ~iterations:scale.iterations tech design))
      cells;
    Measure.now () -. t0
  in
  let alone = static_stage () in
  let parked = Pool.with_pool ~jobs:2 (fun _ -> static_stage ()) in
  parked /. alone

(* Cycles simulated by a pass: fresh computations times the design's
   control steps.  A cold search resumes every promoted candidate from
   its previous rung, so rung k simulates b_k - b_(k-1) computations
   per candidate. *)
let cycles ~steps = function
  | Explored rs ->
      sum
        (fun r ->
          List.mapi (fun i c -> (i, c)) r.Engine.cells
          |> sum (fun (i, c) ->
                 match c.Engine.status with
                 | Engine.Simulated _ -> r.Engine.iterations * steps r.Engine.workload i
                 | _ -> 0))
        rs
  | Searched rs ->
      sum
        (fun r ->
          snd
            (List.fold_left
               (fun (prev, acc) g ->
                 let b = g.Halving.r_iterations in
                 ( b,
                   acc
                   + sum
                       (fun c -> (b - prev) * steps r.Halving.workload c.Halving.c_index)
                       g.Halving.r_candidates ))
               (0, 0) r.Halving.rungs))
        rs
  | Evaluated rs -> sum (fun r -> r.Report.iterations * steps r.Report.label 0) rs

(* The same model without the steps factor must reproduce the search's
   own simulated-iteration count, or [cycles] misreads it. *)
let search_model_holds = function
  | Searched _ as o -> cycles ~steps:(fun _ _ -> 1) o = computations o
  | Explored _ | Evaluated _ -> true

(* --- Correctness checks (untimed) ---------------------------------------- *)

(* Energy of every paper_eval design from the compiled kernel must equal
   the reference interpreter's, bit for bit, over a prefix. *)
let reference_mismatches ctx st =
  let iterations = min 200 ctx.scale.paper_iterations in
  List.filter_map
    (fun (label, design, _) ->
      let fast =
        Mclock_sim.Compiled.run ~seed:ctx.seed
          (Mclock_sim.Compiled.compile tech design)
          ~iterations
      in
      let slow = Mclock_sim.Simulator.run ~seed:ctx.seed tech design ~iterations in
      if
        Float.equal fast.Mclock_sim.Simulator.energy_pj
          slow.Mclock_sim.Simulator.energy_pj
      then None
      else Some (label ^ ": compiled energy differs from the reference interpreter"))
    st.designs

(* The pinned counts only a traced run measures: cycles need each
   cell's control steps, and static calls are counted by the probe. *)
let traced_counts = [ "sim.cycles"; "static.calls" ]

(* Every failed check, as one line each.  [passes] are all timed passes
   of the run, traced or not; [probe_counts] are the {!traced_counts}
   of a traced run, [] otherwise. *)
let failed_checks ctx st passes ~traced ~probe_counts =
  let wl = name ctx.kind in
  let first = List.hd passes in
  let doc = document first.outcome in
  let fail cond msg = if cond then [ msg ] else [] in
  let same_docs =
    fail
      (List.exists (fun p -> document p.outcome <> doc) passes)
      "result documents differ between passes"
  in
  let same_counts =
    fail
      (List.exists (fun p -> p.counts <> first.counts) passes)
      "deterministic counts differ between passes"
  in
  let warm =
    match st.warm with
    | Some (_, _, populated) ->
        fail (doc <> populated) "warm frontiers differ from the cold pass that populated the store"
        @ fail
            (List.assoc "explore.cells_simulated" first.counts <> 0)
            "warm pass simulated"
    | None -> []
  in
  let seed42 = ctx.seed = 42 in
  let pinned =
    if not ctx.scale.strict then []
    else
      fail
        (seed42 && Digest.to_hex (Digest.string doc) <> Pinned.digest wl)
        (Printf.sprintf "document digest %s differs from the pinned seed-42 digest"
           (Digest.to_hex (Digest.string doc)))
      @ fail
          (seed42 && functional first.outcome <> Pinned.functional wl)
          (Printf.sprintf "%d functional cells, pinned %d" (functional first.outcome)
             (Pinned.functional wl))
      @ List.concat_map
          (fun (n, v) ->
            match List.assoc_opt n (first.counts @ probe_counts) with
            | Some got when got <> v -> [ Printf.sprintf "%s = %d, pinned %d" n got v ]
            | Some _ -> []
            | None when (not traced) && List.mem n traced_counts -> []
            | None -> [ Printf.sprintf "%s is pinned but was not measured" n ])
          (Pinned.counts wl @ if seed42 then Pinned.seed42_counts wl else [])
  in
  let reference =
    match ctx.kind with
    | Paper_eval -> reference_mismatches ctx st
    | Explore_cold | Explore_warm | Search_cold -> []
  in
  same_docs @ same_counts @ warm @ pinned @ reference
