(* Successive-halving search.

   The rung loop is the whole algorithm:

   1. seed   — prepare the grid, prune on certified bounds, rank the
               admissible cells by static expected power (enumeration
               order breaking ties);
   2. rung   — evaluate every survivor at the current budget through
               [Engine.evaluate_at] (cache-served, pool-fanned,
               jobs-invariant), score with the scalarized objective
               (non-functional candidates score infinity), sort by
               (score, enumeration index);
   3. keep   — the best [ceil (n / eta)] functional candidates survive
               to the next rung, whose budget is [eta] times larger
               (capped at full fidelity; a field of <= 1 jumps
               straight to full);
   4. stop   — the rung that ran at the full budget names the winner.

   Budgets strictly increase (eta >= 2), so the loop always reaches the
   full-fidelity rung.  Every quantity the keep-rule consumes is a
   deterministic function of the candidate metrics, which are
   themselves bit-identical across cache states (hex-float round-trip)
   and job counts (submission-order reduction) — hence the byte-identity
   guarantee on the rendered documents. *)

type candidate = {
  c_index : int;
  c_label : string;
  c_config : Config.t;
  c_metrics : Metrics.t;
  c_score : float;
}

type rung = {
  r_number : int;
  r_iterations : int;
  r_candidates : candidate list;
  r_kept : string list;
}

type stats = {
  cache_hits : int;
  simulated : int;
  simulated_iterations : int;
  store_failures : int;
  resumed : int;
  resumed_iterations : int;
  checkpoints_written : int;
}

type result = {
  workload : string;
  max_clocks : int;
  seed : int;
  eta : int;
  min_iterations : int;
  iterations : int;
  objective : Objective.t;
  constraints : Metrics.constraint_ list;
  resume : bool;
  degenerate : string option;
  enumerated : int;
  pruned : int;
  rungs : rung list;
  winner : candidate option;
  evaluation_iterations : int;
  exhaustive_iterations : int;
  stats : stats;
}

(* Score one rung: min-max normalization runs over the functional
   candidates only (a failed candidate must not stretch the ranges),
   and a failed candidate scores infinity so it sorts last and can
   never be kept over a functional one. *)
let score_rung objective survivors metrics =
  let pairs = List.combine survivors metrics in
  let functional =
    List.filter (fun (_, m) -> m.Metrics.functional_ok) pairs
  in
  let scores = Objective.scores objective (List.map snd functional) in
  let tbl = Hashtbl.create 16 in
  List.iter2
    (fun ((p : Engine.prepared), _) s -> Hashtbl.replace tbl p.Engine.p_index s)
    functional scores;
  List.map
    (fun ((p : Engine.prepared), m) ->
      let score =
        match Hashtbl.find_opt tbl p.Engine.p_index with
        | Some s -> s
        | None -> infinity
      in
      {
        c_index = p.Engine.p_index;
        c_label = p.Engine.p_label;
        c_config = p.Engine.p_config;
        c_metrics = m;
        c_score = score;
      })
    pairs

(* The keep width: the best [ceil (field / eta)] functional candidates,
   or all of them when fewer survive.  [scores] are the rung's
   functional scores in ascending order. *)
let keep_width ~eta ~field scores =
  min (max 1 ((field + eta - 1) / eta)) (List.length scores)

let run ~pool ?cache ?(eta = 2) ?min_iterations ?(constraints = [])
    ?(seed = 42) ?(iterations = 400) ?(max_clocks = 4) ?tech ?width
    ?(objective = Objective.default) ?(resume = true) ~name ~sched_constraints
    graph =
  if eta < 2 then invalid_arg "Halving.run: eta >= 2";
  if iterations < 1 then invalid_arg "Halving.run: iterations >= 1";
  let min_iterations =
    match min_iterations with
    | None -> max 1 (iterations / 16)
    | Some m ->
        if m < 1 || m > iterations then
          invalid_arg "Halving.run: min_iterations in 1..iterations";
        m
  in
  let first_budget = min iterations min_iterations in
  let degenerate =
    if first_budget >= iterations then
      Some
        (Printf.sprintf
           "rung schedule degenerates to a single full-fidelity rung \
            (min_iterations %d >= iterations %d): successive halving saves \
            nothing over exhaustive evaluation; lower min_iterations or \
            raise iterations"
           min_iterations iterations)
    else None
  in
  (* Counters accumulate across runs sharing a store; snapshot so this
     result reports only its own failures. *)
  let store_failures_before =
    match cache with
    | None -> 0
    | Some store -> (Store.stats store).Store.store_failures
  in
  let space =
    Engine.prepare ?tech ?width ~max_clocks ~iterations ~name
      ~sched_constraints graph
  in
  let admissible, rejected =
    List.partition
      (fun (p : Engine.prepared) ->
        Metrics.admissible ~constraints p.Engine.p_bounds)
      space.Engine.sp_cells
  in
  (* The seed pool, cheapest static power estimate first, so the
     small-budget rungs spend their work on the statically promising
     region. *)
  let seed_pool =
    List.stable_sort
      (fun (a : Engine.prepared) (b : Engine.prepared) ->
        match Float.compare a.Engine.p_est_power_mw b.Engine.p_est_power_mw with
        | 0 -> Stdlib.compare a.Engine.p_index b.Engine.p_index
        | c -> c)
      admissible
  in
  (* Run-wide counters (mutated by [eval] below, read once at the end).
     [past] is the ladder of budgets this search has already
     checkpointed — later rungs resume from the highest one cached. *)
  let hits = ref 0 in
  let sims = ref 0 in
  let fresh_iters = ref 0 in
  let resumed = ref 0 in
  let resumed_iters = ref 0 in
  let ckpts = ref 0 in
  let eval_iters = ref 0 in
  let past = ref [] in
  let eval ~budget survivors =
    let resume_from = if resume then !past else [] in
    let metrics, rs =
      Engine.evaluate_at ~pool ?cache ~resume_from ~checkpoints:resume ~seed
        ~iterations:budget space survivors
    in
    hits := !hits + rs.Engine.rs_cache_hits;
    sims := !sims + rs.Engine.rs_simulated;
    fresh_iters := !fresh_iters + rs.Engine.rs_fresh_iterations;
    resumed := !resumed + rs.Engine.rs_resumed;
    resumed_iters := !resumed_iters + rs.Engine.rs_resumed_iterations;
    ckpts := !ckpts + rs.Engine.rs_checkpoints_written;
    past := budget :: !past;
    metrics
  in
  (* The nominal cost of evaluating [n] cells at [budget] when they
     last ran at [prev]: incremental under resume, a restart without.
     Deliberately a function of the schedule alone — never of the
     cache state — so [evaluation_iterations] stays byte-identical
     across cold and warm runs. *)
  let charge ~n ~prev ~budget =
    eval_iters := !eval_iters + (n * if resume then budget - prev else budget)
  in
  let rank =
    List.stable_sort (fun a b ->
        match Float.compare a.c_score b.c_score with
        | 0 -> Stdlib.compare a.c_index b.c_index
        | c -> c)
  in
  let rec loop rung_no prev_budget budget survivors rungs_acc =
    let n = List.length survivors in
    (* One span per rung, ended before the recursive call so rungs are
       siblings in the trace, not a nesting tower. *)
    let sp =
      Mclock_obs.Obs.begin_span ~cat:"search" ~name:"search.rung"
        ~attrs:
          [
            ("rung", string_of_int rung_no);
            ("budget", string_of_int budget);
            ("candidates", string_of_int n);
          ]
        ()
    in
    let metrics = eval ~budget survivors in
    charge ~n ~prev:prev_budget ~budget;
    let candidates = score_rung objective survivors metrics in
    let functional_ranked =
      List.filter (fun c -> c.c_score < infinity) (rank candidates)
    in
    if budget >= iterations then
      (* The full-fidelity rung: its best functional candidate is the
         winner. *)
      let winner =
        match functional_ranked with [] -> None | w :: _ -> Some w
      in
      let kept = match winner with None -> [] | Some w -> [ w.c_label ] in
      let r =
        {
          r_number = rung_no;
          r_iterations = budget;
          r_candidates = candidates;
          r_kept = kept;
        }
      in
      Mclock_obs.Obs.end_span sp
        ~attrs:[ ("kept", string_of_int (List.length kept)) ];
      (List.rev (r :: rungs_acc), winner)
    else
      let kept_n =
        keep_width ~eta ~field:n
          (List.map (fun c -> c.c_score) functional_ranked)
      in
      let kept = List.filteri (fun i _ -> i < kept_n) functional_ranked in
      let r =
        {
          r_number = rung_no;
          r_iterations = budget;
          r_candidates = candidates;
          r_kept = List.map (fun c -> c.c_label) kept;
        }
      in
      Mclock_obs.Obs.end_span sp
        ~attrs:[ ("kept", string_of_int (List.length kept)) ];
      match kept with
      | [] ->
          (* Every survivor failed functionally — nothing to promote. *)
          (List.rev (r :: rungs_acc), None)
      | _ ->
          let next_budget =
            if List.length kept <= 1 then iterations
            else min iterations (budget * eta)
          in
          let by_index = Hashtbl.create 16 in
          List.iter
            (fun (p : Engine.prepared) ->
              Hashtbl.replace by_index p.Engine.p_index p)
            survivors;
          let next =
            List.map (fun c -> Hashtbl.find by_index c.c_index) kept
          in
          loop (rung_no + 1) budget next_budget next (r :: rungs_acc)
  in
  let rungs, winner =
    match seed_pool with
    | [] -> ([], None)
    | _ -> loop 0 0 first_budget seed_pool []
  in
  {
    workload = name;
    max_clocks;
    seed;
    eta;
    min_iterations;
    iterations;
    objective;
    constraints;
    resume;
    degenerate;
    enumerated = List.length space.Engine.sp_cells;
    pruned = List.length rejected;
    rungs;
    winner;
    evaluation_iterations = !eval_iters;
    exhaustive_iterations = List.length admissible * iterations;
    stats =
      {
        cache_hits = !hits;
        simulated = !sims;
        simulated_iterations = !fresh_iters;
        store_failures =
          (match cache with
          | None -> 0
          | Some store ->
              (Store.stats store).Store.store_failures
              - store_failures_before);
        resumed = !resumed;
        resumed_iterations = !resumed_iters;
        checkpoints_written = !ckpts;
      };
  }

(* --- Rendering --------------------------------------------------------- *)

let score_text c =
  if c.c_score < infinity then Printf.sprintf "%.4f" c.c_score
  else "fail"

let render_text result =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "successive-halving search: %s (max %d clocks, eta %d, objective %s)\n"
       result.workload result.max_clocks result.eta
       (Objective.to_string result.objective));
  Buffer.add_string buf
    (Printf.sprintf "cells: %d enumerated, %d pruned by constraints\n"
       result.enumerated result.pruned);
  (match result.degenerate with
  | Some msg -> Buffer.add_string buf (Printf.sprintf "warning: %s\n" msg)
  | None -> ());
  List.iter
    (fun r ->
      let is_kept l = List.mem l r.r_kept in
      let table =
        Mclock_util.Table.create
          ~title:
            (Printf.sprintf "rung %d: %d candidates @ %d iterations"
               r.r_number
               (List.length r.r_candidates)
               r.r_iterations)
          ~header:
            [ "config"; "score"; "power [mW]"; "area [l^2]"; "lat"; "verdict" ]
          ~aligns:Mclock_util.Table.[ Left; Right; Right; Right; Right; Left ]
          ()
      in
      List.iter
        (fun c ->
          let m = c.c_metrics in
          let verdict =
            if not m.Metrics.functional_ok then "FUNCTIONAL FAIL"
            else if is_kept c.c_label then "kept"
            else "dropped"
          in
          Mclock_util.Table.add_row table
            [
              c.c_label;
              score_text c;
              Printf.sprintf "%.2f" m.Metrics.power_mw;
              Printf.sprintf "%.0f" m.Metrics.area;
              string_of_int m.Metrics.latency_steps;
              verdict;
            ])
        r.r_candidates;
      Buffer.add_string buf (Mclock_util.Table.render table);
      Buffer.add_string buf "\n")
    result.rungs;
  (match result.winner with
  | None -> Buffer.add_string buf "winner: none (no functional candidate)\n"
  | Some w ->
      Buffer.add_string buf
        (Printf.sprintf "winner: %s (score %.4f, %.2f mW @ %d iterations)\n"
           w.c_label w.c_score w.c_metrics.Metrics.power_mw result.iterations));
  Buffer.add_string buf
    (Printf.sprintf
       "evaluation: %d simulated iterations vs %d exhaustive (%.1fx savings)\n"
       result.evaluation_iterations result.exhaustive_iterations
       (if result.evaluation_iterations > 0 then
          float_of_int result.exhaustive_iterations
          /. float_of_int result.evaluation_iterations
        else 0.));
  Buffer.contents buf

let candidate_json c =
  let m = c.c_metrics in
  Mclock_util.Json.Obj
    [
      ("config", Mclock_util.Json.String c.c_label);
      ( "score",
        if c.c_score < infinity then Mclock_util.Json.Float c.c_score
        else Mclock_util.Json.Null );
      ("functional", Mclock_util.Json.Bool m.Metrics.functional_ok);
      ("power_mw", Mclock_util.Json.Float m.Metrics.power_mw);
      ("area", Mclock_util.Json.Float m.Metrics.area);
      ("latency_steps", Mclock_util.Json.Int m.Metrics.latency_steps);
      ( "energy_per_computation_pj",
        Mclock_util.Json.Float m.Metrics.energy_per_computation_pj );
      ("memory_cells", Mclock_util.Json.Int m.Metrics.memory_cells);
      ("raced_at", Mclock_util.Json.Null);
    ]

let rung_json r =
  Mclock_util.Json.Obj
    [
      ("rung", Mclock_util.Json.Int r.r_number);
      ("iterations", Mclock_util.Json.Int r.r_iterations);
      ( "candidates",
        Mclock_util.Json.List (List.map candidate_json r.r_candidates) );
      ( "kept",
        Mclock_util.Json.List
          (List.map (fun l -> Mclock_util.Json.String l) r.r_kept) );
    ]

let result_json result =
  Mclock_util.Json.Obj
    [
      ("workload", Mclock_util.Json.String result.workload);
      ("max_clocks", Mclock_util.Json.Int result.max_clocks);
      ("seed", Mclock_util.Json.Int result.seed);
      ("eta", Mclock_util.Json.Int result.eta);
      ("min_iterations", Mclock_util.Json.Int result.min_iterations);
      ("iterations", Mclock_util.Json.Int result.iterations);
      ( "objective",
        Mclock_util.Json.String (Objective.to_string result.objective) );
      ( "constraints",
        Mclock_util.Json.List
          (List.map
             (fun c -> Mclock_util.Json.String (Metrics.constraint_to_string c))
             result.constraints) );
      ("resume", Mclock_util.Json.Bool result.resume);
      (* Fixed values of options the search no longer has.  They stay
         so that the document's bytes, and the digest the benchmark
         pins, do not move; they go at that digest's next re-pin, as
         does [raced_at] in [candidate_json]. *)
      ("race", Mclock_util.Json.Bool false);
      ("race_margin", Mclock_util.Json.Float 0.25);
      ("close_threshold", Mclock_util.Json.Float 0.);
      ( "degenerate",
        match result.degenerate with
        | Some msg -> Mclock_util.Json.String msg
        | None -> Mclock_util.Json.Null );
      ("enumerated", Mclock_util.Json.Int result.enumerated);
      ("pruned", Mclock_util.Json.Int result.pruned);
      ("rungs", Mclock_util.Json.List (List.map rung_json result.rungs));
      ( "winner",
        match result.winner with
        | None -> Mclock_util.Json.Null
        | Some w -> candidate_json w );
      ( "evaluation_iterations",
        Mclock_util.Json.Int result.evaluation_iterations );
      ( "exhaustive_iterations",
        Mclock_util.Json.Int result.exhaustive_iterations );
    ]

let stats_json result =
  let s = result.stats in
  Mclock_util.Json.Obj
    [
      ("workload", Mclock_util.Json.String result.workload);
      ("cache_hits", Mclock_util.Json.Int s.cache_hits);
      ("simulated", Mclock_util.Json.Int s.simulated);
      ("simulated_iterations", Mclock_util.Json.Int s.simulated_iterations);
      ("store_failures", Mclock_util.Json.Int s.store_failures);
      ("resumed", Mclock_util.Json.Int s.resumed);
      ("resumed_iterations", Mclock_util.Json.Int s.resumed_iterations);
      ("checkpoints_written", Mclock_util.Json.Int s.checkpoints_written);
    ]
