(* The exploration pipeline.

   Phase order matters for both cost and determinism:

   1. enumerate   — Config.enumerate, canonical order (serial);
   2. synthesize  — schedule (one per scheduler, memoized) + allocate,
                    bound and estimate every cell on the submitting
                    domain; the static bound/estimate analysis makes
                    this the dominant cost of a cold exploration;
   3. prune       — constraint check on exact pre-simulation bounds;
   4. evaluate    — [evaluate_at], the one path every evaluated cell
                    takes, for [explore] and the halving rungs alike:
                    digest + lookup on the submitting domain (so hit
                    bookkeeping never races), the misses simulated on
                    the pool and reduced in submission order
                    (jobs-invariant), fresh results written back
                    (failures tolerated);
   5. frontier    — Pareto over evaluated, functionally-OK cells, with
                    the pruned cells back in enumeration order.

   The frontier can therefore never depend on the cache state: a hit
   returns bit-identical metrics to the simulation that populated it
   (hex-float round-trip), and pruning uses bounds that equal what
   evaluation would report. *)

type status =
  | Pruned of Metrics.constraint_ list
  | Cached of Metrics.t
  | Simulated of Metrics.t

type cell = {
  config : Config.t;
  cell_label : string;
  key : string;
  bounds : Metrics.bounds;
  status : status;
}

type stats = {
  enumerated : int;
  pruned : int;
  cache_hits : int;
  simulated : int;
  store_failures : int;
}

type result = {
  workload : string;
  max_clocks : int;
  seed : int;
  iterations : int;
  constraints : Metrics.constraint_ list;
  cells : cell list;
  pareto : Pareto.result;
  stats : stats;
}

(* --- Prepared search spaces -------------------------------------------- *)

type prepared = {
  p_index : int;
  p_config : Config.t;
  p_label : string;
  p_design : Mclock_rtl.Design.t;
  p_bounds : Metrics.bounds;
  p_est_power_mw : float;
}

type space = {
  sp_graph : Mclock_dfg.Graph.t;
  sp_width : int;
  sp_tech : Mclock_tech.Library.t;
  sp_name : string;
  sp_sched_constraints : Mclock_sched.List_sched.constraints;
  sp_cells : prepared list;
}

let prepare ?(tech = Mclock_tech.Cmos08.t) ?(width = 4) ?(max_clocks = 4)
    ~iterations ~name ~sched_constraints graph =
  Mclock_obs.Obs.with_span ~cat:"explore" ~attrs:[ ("workload", name) ]
    ~name:"explore.prepare"
  @@ fun () ->
  let configs = Config.enumerate ~max_clocks in
  (* One schedule per scheduler, shared by every cell using it. *)
  let schedules = List.map (fun s -> (s, ref None)) Config.schedulers in
  let schedule_for config =
    let slot = List.assoc config.Config.scheduler schedules in
    match !slot with
    | Some s -> s
    | None ->
        let s = Config.schedule config ~constraints:sched_constraints graph in
        slot := Some s;
        s
  in
  (* Synthesize + bound + estimate every cell, serially.  Not cheap: the
     static analysis behind the bounds and the estimate is about 81% of
     a cold exploration of the catalog at 50 computations. *)
  let cells =
    List.mapi
      (fun i config ->
        let schedule = schedule_for config in
        let design =
          Config.synthesize ~tech ~width config
            ~name:(Printf.sprintf "x_%s" name)
            schedule
        in
        let bounds, est_power, _ =
          Metrics.bounds_and_estimate_of_design ~config ~iterations tech design
        in
        {
          p_index = i;
          p_config = config;
          p_label = Config.label config;
          p_design = design;
          p_bounds = bounds;
          p_est_power_mw = est_power;
        })
      configs
  in
  {
    sp_graph = graph;
    sp_width = width;
    sp_tech = tech;
    sp_name = name;
    sp_sched_constraints = sched_constraints;
    sp_cells = cells;
  }

let cell_key space ~seed ~iterations p =
  Cachekey.digest
    {
      Cachekey.graph = space.sp_graph;
      width = space.sp_width;
      constraints = space.sp_sched_constraints;
      config = p.p_config;
      tech = space.sp_tech;
      seed;
      iterations;
    }

(* --- Cell evaluation ------------------------------------------------------ *)

type rung_stats = {
  rs_cache_hits : int;
  rs_simulated : int;
  rs_resumed : int;
  rs_resumed_iterations : int;
  rs_fresh_iterations : int;
  rs_checkpoints_written : int;
  rs_store_failures : int;
}

let metrics c =
  match c.status with
  | Cached m | Simulated m -> m
  | Pruned _ -> invalid_arg "Engine.metrics: pruned cell"

let cell_of p ~key status =
  {
    config = p.p_config;
    cell_label = p.p_label;
    key;
    bounds = p.p_bounds;
    status;
  }

(* Evaluate [cells] at a fidelity rung.  [resume_from] is the ladder
   of lower iteration counts whose checkpoint sidecars are worth
   trying (highest first wins); [checkpoints] stores a sidecar at this
   rung for each fresh simulation.  Resuming is byte-identical to a
   fresh run (the kernel contract), so the returned metrics — and
   everything downstream, frontier and winner included — are
   invariant to the checkpoint cache's state.  All cache traffic
   stays on the submitting domain; workers only simulate and
   encode/decode blobs. *)
let evaluate_at ~pool ?cache ?(resume_from = []) ?(checkpoints = false) ~seed
    ~iterations space cells =
  let ladder =
    List.sort_uniq (fun a b -> compare b a) resume_from
    |> List.filter (fun k -> k > 0 && k < iterations)
  in
  (* Store counters accumulate across runs sharing a store (e.g. a
     cold/warm pair); snapshot so the stats report only this call's
     failures. *)
  let store_failures () =
    match cache with
    | None -> 0
    | Some store -> (Store.stats store).Store.store_failures
  in
  let failures_before = store_failures () in
  let looked =
    List.map
      (fun p ->
        let key = cell_key space ~seed ~iterations p in
        match Option.bind cache (fun store -> Store.find store ~key) with
        | Some m -> (p, key, Some m, None)
        | None ->
            let blob =
              Option.bind cache (fun store ->
                  List.find_map
                    (fun k ->
                      let k_key = cell_key space ~seed ~iterations:k p in
                      Store.find_checkpoint store ~key:k_key)
                    ladder)
            in
            (p, key, None, blob))
      cells
  in
  let misses =
    List.filter_map
      (function p, key, None, blob -> Some (p, key, blob) | _ -> None)
      looked
  in
  let misses_arr = Array.of_list misses in
  let want_ckpt = checkpoints && cache <> None in
  let fresh =
    Mclock_exec.Pool.map pool
      ~label:(fun i ->
        let p, _, _ = misses_arr.(i) in
        Printf.sprintf "%s/%s@%d" space.sp_name p.p_label iterations)
      (fun _ (p, key, blob) ->
        Mclock_obs.Obs.with_span ~cat:"explore" ~name:"explore.simulate"
          ~attrs:
            [
              ("config", p.p_label);
              ("key", key);
              ("iterations", string_of_int iterations);
            ]
        @@ fun () ->
        let simulate ?resume_from () =
          Mclock_power.Report.evaluate_resumable ~seed ~iterations ?resume_from
            ~label:p.p_label space.sp_tech p.p_design space.sp_graph
        in
        (* A checkpoint that fails to decode, or decodes but does not
           fit this design/fidelity, degrades to a fresh run — the
           cache can make evaluation faster, never wrong. *)
        let resume_ck =
          match Option.map Mclock_sim.Compiled.Checkpoint.decode blob with
          | Some (Ok ck) -> Some ck
          | Some (Error _) | None -> None
        in
        let (report, ck), resumed_from =
          match Option.map (fun ck -> simulate ~resume_from:ck ()) resume_ck with
          | Some r ->
              (r, Option.map Mclock_sim.Compiled.checkpoint_iterations resume_ck)
          | None | (exception Invalid_argument _) -> (simulate (), None)
        in
        let metrics =
          Metrics.of_report ~config:p.p_config ~tech:space.sp_tech
            ~latency_steps:(Mclock_rtl.Design.num_steps p.p_design)
            report
        in
        let encoded =
          if want_ckpt then Some (Mclock_sim.Compiled.Checkpoint.encode ck)
          else None
        in
        (metrics, encoded, resumed_from))
      misses
  in
  (* Write-back on the submitting domain. *)
  Option.iter
    (fun store ->
      List.iter2
        (fun (_, key, _) (m, encoded, _) ->
          Store.store store ~key m;
          Option.iter (Store.store_checkpoint store ~key) encoded)
        misses fresh)
    cache;
  (* Stitch hits and fresh results back into input order. *)
  let rec stitch looked fresh =
    match (looked, fresh) with
    | [], _ -> []
    | (p, key, Some m, _) :: looked, _ ->
        cell_of p ~key (Cached m) :: stitch looked fresh
    | (p, key, None, _) :: looked, (m, _, _) :: fresh ->
        cell_of p ~key (Simulated m) :: stitch looked fresh
    | (_, _, None, _) :: _, [] -> assert false
  in
  let resumed_runs = List.filter_map (fun (_, _, r) -> r) fresh in
  let resumed_iterations = List.fold_left ( + ) 0 resumed_runs in
  let n_misses = List.length misses in
  ( stitch looked fresh,
    {
      rs_cache_hits = List.length cells - n_misses;
      rs_simulated = n_misses;
      rs_resumed = List.length resumed_runs;
      rs_resumed_iterations = resumed_iterations;
      rs_fresh_iterations = (n_misses * iterations) - resumed_iterations;
      rs_checkpoints_written = (if want_ckpt then n_misses else 0);
      rs_store_failures = store_failures () - failures_before;
    } )

(* Prune on certified bounds, evaluate the admissible cells through
   [evaluate_at] at full fidelity, and put the pruned cells back in
   enumeration order. *)
let explore ~pool ?cache ?(constraints = []) ?(seed = 42) ?(iterations = 400)
    ?(max_clocks = 4) ?tech ?width ~name ~sched_constraints graph =
  Mclock_obs.Obs.with_span ~cat:"explore" ~name:"explore"
    ~attrs:
      [
        ("workload", name);
        ("max_clocks", string_of_int max_clocks);
        ("iterations", string_of_int iterations);
      ]
  @@ fun () ->
  let space =
    prepare ?tech ?width ~max_clocks ~iterations ~name ~sched_constraints graph
  in
  let verdicts =
    List.map
      (fun p -> (p, Metrics.violated ~constraints p.p_bounds))
      space.sp_cells
  in
  let admissible =
    List.filter_map (function p, [] -> Some p | _ -> None) verdicts
  in
  let evaluated, rs = evaluate_at ~pool ?cache ~seed ~iterations space admissible in
  let rec merge verdicts evaluated =
    match (verdicts, evaluated) with
    | [], _ -> []
    | (p, (_ :: _ as v)) :: verdicts, _ ->
        cell_of p ~key:(cell_key space ~seed ~iterations p) (Pruned v)
        :: merge verdicts evaluated
    | (_, []) :: verdicts, c :: evaluated -> c :: merge verdicts evaluated
    | (_, []) :: _, [] -> assert false
  in
  let cells = merge verdicts evaluated in
  let points =
    List.mapi (fun i c -> (i, c)) cells
    |> List.filter_map (fun (i, c) ->
           match c.status with
           | Cached m | Simulated m when m.Metrics.functional_ok ->
               Some { Pareto.index = i; label = c.cell_label; metrics = m }
           | _ -> None)
  in
  {
    workload = name;
    max_clocks;
    seed;
    iterations;
    constraints;
    cells;
    pareto = Pareto.frontier points;
    stats =
      {
        enumerated = List.length cells;
        pruned = List.length cells - List.length admissible;
        cache_hits = rs.rs_cache_hits;
        simulated = rs.rs_simulated;
        store_failures = rs.rs_store_failures;
      };
  }

(* --- Rendering --------------------------------------------------------- *)

let status_cells result ~index cell =
  match cell.status with
  | Pruned v ->
      ( "pruned",
        Printf.sprintf "violates %s"
          (String.concat ","
             (List.map Metrics.constraint_to_string v)) )
  | Cached m | Simulated m ->
      let provenance =
        match cell.status with Cached _ -> "cache" | _ -> "sim"
      in
      if not m.Metrics.functional_ok then (provenance, "FUNCTIONAL FAIL")
      else
        let verdict =
          List.find_opt
            (fun (p, _) -> p.Pareto.index = index)
            result.pareto.Pareto.verdicts
        in
        (match verdict with
        | Some (_, Pareto.On_frontier) -> (provenance, "frontier")
        | Some (_, Pareto.Dominated_by q) ->
            (provenance, Printf.sprintf "dominated by %s" q.Pareto.label)
        | None -> (provenance, "-"))

let render_text result =
  let buf = Buffer.create 4096 in
  let table =
    Mclock_util.Table.create
      ~title:
        (Printf.sprintf "design-space exploration: %s (max %d clocks)"
           result.workload result.max_clocks)
      ~header:
        [ "config"; "power [mW]"; "area [l^2]"; "lat"; "mem"; "from"; "verdict" ]
      ~aligns:
        Mclock_util.Table.[ Left; Right; Right; Right; Right; Left; Left ]
      ()
  in
  List.iteri
    (fun index cell ->
      let provenance, verdict = status_cells result ~index cell in
      let power, area, lat, mem =
        match cell.status with
        | Pruned _ ->
            ( "-",
              Printf.sprintf "%.0f" cell.bounds.Metrics.b_area,
              string_of_int cell.bounds.Metrics.b_latency_steps,
              string_of_int cell.bounds.Metrics.b_memory_cells )
        | Cached m | Simulated m ->
            ( Printf.sprintf "%.2f" m.Metrics.power_mw,
              Printf.sprintf "%.0f" m.Metrics.area,
              string_of_int m.Metrics.latency_steps,
              string_of_int m.Metrics.memory_cells )
      in
      Mclock_util.Table.add_row table
        [ cell.cell_label; power; area; lat; mem; provenance; verdict ])
    result.cells;
  Buffer.add_string buf (Mclock_util.Table.render table);
  Buffer.add_string buf "\n";
  let s = result.stats in
  Buffer.add_string buf
    (Printf.sprintf
       "cells: %d enumerated, %d pruned, %d cache hits, %d simulated%s\n"
       s.enumerated s.pruned s.cache_hits s.simulated
       (if s.store_failures > 0 then
          Printf.sprintf " (%d cache store failures)" s.store_failures
        else ""));
  Buffer.add_string buf
    (Printf.sprintf "frontier (%d points): %s\n"
       (List.length result.pareto.Pareto.frontier)
       (String.concat ", "
          (List.map
             (fun p -> p.Pareto.label)
             result.pareto.Pareto.frontier)));
  Buffer.contents buf

let point_json (p : Pareto.point) =
  let m = p.Pareto.metrics in
  Mclock_util.Json.Obj
    [
      ("config", Mclock_util.Json.String p.Pareto.label);
      ("power_mw", Mclock_util.Json.Float m.Metrics.power_mw);
      ("area", Mclock_util.Json.Float m.Metrics.area);
      ("latency_steps", Mclock_util.Json.Int m.Metrics.latency_steps);
      ( "energy_per_computation_pj",
        Mclock_util.Json.Float m.Metrics.energy_per_computation_pj );
      ("memory_cells", Mclock_util.Json.Int m.Metrics.memory_cells);
      ("mux_inputs", Mclock_util.Json.Int m.Metrics.mux_inputs);
    ]

let frontier_json result =
  Mclock_util.Json.Obj
    [
      ("workload", Mclock_util.Json.String result.workload);
      ("max_clocks", Mclock_util.Json.Int result.max_clocks);
      ("seed", Mclock_util.Json.Int result.seed);
      ("iterations", Mclock_util.Json.Int result.iterations);
      ( "constraints",
        Mclock_util.Json.List
          (List.map
             (fun c -> Mclock_util.Json.String (Metrics.constraint_to_string c))
             result.constraints) );
      ( "frontier",
        Mclock_util.Json.List
          (List.map point_json result.pareto.Pareto.frontier) );
      ( "dominated",
        Mclock_util.Json.List
          (List.filter_map
             (function
               | _, Pareto.On_frontier -> None
               | p, Pareto.Dominated_by q ->
                   Some
                     (Mclock_util.Json.Obj
                        [
                          ("config", Mclock_util.Json.String p.Pareto.label);
                          ( "dominated_by",
                            Mclock_util.Json.String q.Pareto.label );
                        ]))
             result.pareto.Pareto.verdicts) );
    ]

(* --- Objective-based best pick ----------------------------------------- *)

(* Cells arrive in enumeration order, so Objective.best's first-wins
   tie-break is canonical config order.  The winner index is resolved
   against an array — List.nth would rescan the evaluated list. *)
let best ~objective result =
  let evaluated =
    List.filter_map
      (fun c ->
        match c.status with
        | (Cached m | Simulated m) when m.Metrics.functional_ok -> Some (c, m)
        | _ -> None)
      result.cells
  in
  let by_index = Array.of_list evaluated in
  match Objective.best objective (List.map snd evaluated) with
  | None -> None
  | Some (i, score) ->
      let cell, _ = by_index.(i) in
      Some (cell, score)

let stats_json result =
  let s = result.stats in
  Mclock_util.Json.Obj
    [
      ("workload", Mclock_util.Json.String result.workload);
      ("enumerated", Mclock_util.Json.Int s.enumerated);
      ("pruned", Mclock_util.Json.Int s.pruned);
      ("cache_hits", Mclock_util.Json.Int s.cache_hits);
      ("simulated", Mclock_util.Json.Int s.simulated);
      ("store_failures", Mclock_util.Json.Int s.store_failures);
    ]
