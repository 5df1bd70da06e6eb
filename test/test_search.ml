(* Tests for the successive-halving search and the scalarized
   objectives it ranks with: determinism across job counts and cache
   states, the rung schedule's arithmetic, the objective grammar and
   its normalization edge cases, and the differential check against
   the exhaustive grid's best. *)

open Mclock_explore

let check = Alcotest.check
let fail = Alcotest.fail

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mclock-test-search.%d.%d" (Unix.getpid ()) !counter)
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

let smoke_workload = Mclock_workloads.Facet.t
let smoke_graph = Mclock_workloads.Workload.graph smoke_workload
let smoke_constraints = smoke_workload.Mclock_workloads.Workload.constraints

let search ?cache ?(jobs = 1) ?(eta = 2) ?min_iterations ?constraints
    ?(iterations = 60) ?(max_clocks = 2) ?objective ?resume () =
  Mclock_exec.Pool.with_pool ~jobs (fun pool ->
      Halving.run ~pool ?cache ~eta ?min_iterations ?constraints ~seed:42
        ~iterations ~max_clocks ?objective ?resume ~name:"facet"
        ~sched_constraints:smoke_constraints smoke_graph)

let doc r = Mclock_util.Json.to_string (Halving.result_json r)

let metrics_of ?(power = 1.) ?(area = 100.) ?(latency = 4) ?(energy = 50.)
    ?(memory = 10) ?(ok = true) () =
  {
    Metrics.power_mw = power;
    area;
    latency_steps = latency;
    energy_per_computation_pj = energy;
    memory_cells = memory;
    mux_inputs = 8;
    functional_ok = ok;
  }

(* --- Objective grammar ------------------------------------------------- *)

let test_objective_parse_roundtrip () =
  List.iter
    (fun s ->
      match Objective.parse s with
      | Error e -> fail (Printf.sprintf "%S does not parse: %s" s e)
      | Ok t -> (
          let rendered = Objective.to_string t in
          match Objective.parse rendered with
          | Ok t' when Objective.equal t t' -> ()
          | Ok _ ->
              fail
                (Printf.sprintf "%S re-parses differently via %S" s rendered)
          | Error e ->
              fail
                (Printf.sprintf "%S renders as unparseable %S: %s" s rendered
                   e)))
    [
      "power";
      "area";
      "mem";
      "memory";
      "0.7*power+0.2*area+0.1*latency";
      " power + energy ";
      "2*power+power";
      "0.1234567*power+area";
      "1e7*power+area";
    ]

let test_objective_parse_errors () =
  let contains ~needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i =
      i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
    in
    scan 0
  in
  (match Objective.parse "powr" with
  | Ok _ -> fail "typo'd metric must not parse"
  | Error msg ->
      List.iter
        (fun needle ->
          if not (contains ~needle msg) then
            fail (Printf.sprintf "diagnostic %S misses %S" msg needle))
        [ "powr"; "power"; "area"; "latency"; "energy"; "mem" ]);
  List.iter
    (fun s ->
      match Objective.parse s with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "%S must not parse" s))
    [ ""; "power+"; "-1*power"; "x*power"; "0*power" ]

let test_objective_single_metric_scores () =
  (* A single-metric objective ranks by that metric alone; scores are
     the normalized values, so the extremes land on 0 and 1. *)
  let t = Objective.default in
  let candidates =
    [
      metrics_of ~power:4. ();
      metrics_of ~power:2. ();
      metrics_of ~power:3. ();
    ]
  in
  (match Objective.scores t candidates with
  | [ a; b; c ] ->
      check (Alcotest.float 1e-9) "max scores 1" 1. a;
      check (Alcotest.float 1e-9) "min scores 0" 0. b;
      check (Alcotest.float 1e-9) "middle is interpolated" 0.5 c
  | _ -> fail "wrong arity");
  match Objective.best t candidates with
  | Some (1, _) -> ()
  | _ -> fail "best must be the lowest-power candidate"

let test_objective_zero_weight_ignored () =
  (* An explicit 0-weight term is accepted but contributes nothing: the
     ranking equals the pure remaining-metric ranking even when the
     zero-weighted axis disagrees. *)
  let t =
    match Objective.parse "power+0*area" with
    | Ok t -> t
    | Error e -> fail e
  in
  check Alcotest.string "renders as the pure objective" "power"
    (Objective.to_string t);
  let candidates =
    [ metrics_of ~power:2. ~area:1. (); metrics_of ~power:1. ~area:999. () ]
  in
  match Objective.best t candidates with
  | Some (1, _) -> ()
  | _ -> fail "area must not influence a 0-weight objective"

let test_objective_degenerate_axis_and_ties () =
  (* All candidates equal on every weighted axis: every score is 0 and
     the earliest index wins — with candidates in enumeration order
     that is the canonical-config tie-break. *)
  let t =
    match Objective.parse "0.5*power+0.5*latency" with
    | Ok t -> t
    | Error e -> fail e
  in
  let candidates = [ metrics_of (); metrics_of (); metrics_of () ] in
  List.iter
    (fun s -> check (Alcotest.float 0.) "degenerate axis scores 0" 0. s)
    (Objective.scores t candidates);
  (match Objective.best t candidates with
  | Some (0, 0.) -> ()
  | _ -> fail "tie must break to the first candidate");
  check Alcotest.(list (float 0.)) "empty set scores empty" []
    (Objective.scores t []);
  check Alcotest.bool "empty set has no best" true
    (Objective.best t [] = None)

(* --- Halving ----------------------------------------------------------- *)

let test_halving_validation () =
  Alcotest.check_raises "eta < 2" (Invalid_argument "Halving.run: eta >= 2")
    (fun () -> ignore (search ~eta:1 ()));
  Alcotest.check_raises "min_iterations 0"
    (Invalid_argument "Halving.run: min_iterations in 1..iterations")
    (fun () -> ignore (search ~min_iterations:0 ()));
  Alcotest.check_raises "min_iterations > iterations"
    (Invalid_argument "Halving.run: min_iterations in 1..iterations")
    (fun () -> ignore (search ~min_iterations:61 ()))

let test_halving_rung_schedule () =
  (* eta=2, 32 admissible cells, 60 iterations, first rung at 60/16=3:
     budgets 3,6,12,24,48,60 over 32,16,8,4,2,1 candidates, and the
     evaluation total is exactly the dot product of the two. *)
  let r = search () in
  check Alcotest.int "enumerated" 32 r.Halving.enumerated;
  check Alcotest.int "pruned" 0 r.Halving.pruned;
  check
    Alcotest.(list int)
    "budgets" [ 3; 6; 12; 24; 48; 60 ]
    (List.map (fun g -> g.Halving.r_iterations) r.Halving.rungs);
  check
    Alcotest.(list int)
    "field sizes" [ 32; 16; 8; 4; 2; 1 ]
    (List.map
       (fun g -> List.length g.Halving.r_candidates)
       r.Halving.rungs);
  (* With resume (the default), promotion is incremental: each rung
     charges only the budget beyond the previous rung's checkpoint. *)
  check Alcotest.int "evaluation iterations"
    ((32 * 3) + (16 * (6 - 3)) + (8 * (12 - 6)) + (4 * (24 - 12))
    + (2 * (48 - 24)) + (60 - 48))
    r.Halving.evaluation_iterations;
  check Alcotest.int "restart evaluation iterations"
    ((32 * 3) + (16 * 6) + (8 * 12) + (4 * 24) + (2 * 48) + 60)
    (search ~resume:false ()).Halving.evaluation_iterations;
  check Alcotest.int "exhaustive iterations" (32 * 60)
    r.Halving.exhaustive_iterations;
  (* Each rung's kept set is exactly the next rung's field. *)
  let rec check_promotion = function
    | a :: (b :: _ as rest) ->
        check
          Alcotest.(list string)
          (Printf.sprintf "rung %d kept = rung %d field" a.Halving.r_number
             b.Halving.r_number)
          a.Halving.r_kept
          (List.map (fun c -> c.Halving.c_label) b.Halving.r_candidates);
        check_promotion rest
    | _ -> ()
  in
  check_promotion r.Halving.rungs;
  match r.Halving.winner with
  | None -> fail "no winner on a fully-functional grid"
  | Some w -> (
      match List.rev r.Halving.rungs with
      | last :: _ ->
          check
            Alcotest.(list string)
            "winner is the last rung's keep" [ w.Halving.c_label ]
            last.Halving.r_kept
      | [] -> fail "no rungs")

let test_halving_jobs_invariant () =
  let a = search ~jobs:1 () in
  let b = search ~jobs:3 () in
  check Alcotest.string "documents byte-identical across jobs" (doc a) (doc b);
  check Alcotest.string "rendering byte-identical across jobs"
    (Halving.render_text a) (Halving.render_text b)

let test_halving_cache_state_invariant () =
  let dir = temp_dir () in
  let cache = Store.open_ ~dir () in
  let uncached = search () in
  let cold = search ~cache () in
  let warm = search ~cache ~jobs:3 () in
  check Alcotest.string "cold document = uncached" (doc uncached) (doc cold);
  check Alcotest.string "warm document = cold" (doc cold) (doc warm);
  check Alcotest.int "warm simulates nothing" 0
    warm.Halving.stats.Halving.simulated;
  check Alcotest.bool "warm serves hits" true
    (warm.Halving.stats.Halving.cache_hits > 0);
  check Alcotest.bool "cold simulated something" true
    (cold.Halving.stats.Halving.simulated > 0);
  rm_rf dir

let test_halving_partial_fidelity_keys_disjoint () =
  (* Rung budgets are part of the cache key, so a halving run and a
     full-fidelity exploration share a cache without collisions: after
     the search, an exhaustive explore still simulates every cell the
     search never took to full fidelity — and reuses the one it did. *)
  let dir = temp_dir () in
  let cache = Store.open_ ~dir () in
  let r = search ~cache () in
  let exhaustive =
    Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
        Engine.explore ~pool ~cache ~seed:42 ~iterations:60 ~max_clocks:2
          ~name:"facet" ~sched_constraints:smoke_constraints smoke_graph)
  in
  let full_rung_cells =
    List.filter
      (fun g -> g.Halving.r_iterations = 60)
      r.Halving.rungs
    |> List.concat_map (fun g -> g.Halving.r_candidates)
    |> List.length
  in
  check Alcotest.int "explore reuses exactly the full-fidelity rung"
    full_rung_cells exhaustive.Engine.stats.Engine.cache_hits;
  check Alcotest.int "explore simulates the rest" (32 - full_rung_cells)
    exhaustive.Engine.stats.Engine.simulated;
  rm_rf dir

let test_halving_winner_matches_exhaustive_best () =
  (* The differential acceptance check at test scale: on the smoke
     grid, the halving winner under the default objective equals the
     exhaustive grid's best under the same objective. *)
  let r = search () in
  let exhaustive =
    Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
        Engine.explore ~pool ~seed:42 ~iterations:60 ~max_clocks:2
          ~name:"facet" ~sched_constraints:smoke_constraints smoke_graph)
  in
  match (r.Halving.winner, Engine.best ~objective:Objective.default exhaustive)
  with
  | Some w, Some (cell, _) ->
      check Alcotest.string "winner = exhaustive best" cell.Engine.cell_label
        w.Halving.c_label
  | None, _ -> fail "halving found no winner"
  | _, None -> fail "exhaustive grid has no best"

let test_halving_constraints_prune_before_rungs () =
  (* A constraint that rejects part of the grid shrinks every rung and
     the exhaustive baseline alike; pruned cells never appear in any
     rung. *)
  let unconstrained = search () in
  let area_cap = 3.0e6 in
  let r = search ~constraints:[ Metrics.Max_area area_cap ] () in
  check Alcotest.bool "something pruned" true (r.Halving.pruned > 0);
  check Alcotest.int "pruned + admissible = enumerated"
    r.Halving.enumerated
    (r.Halving.pruned
    + (r.Halving.exhaustive_iterations / r.Halving.iterations));
  check Alcotest.bool "baseline shrinks under pruning" true
    (r.Halving.exhaustive_iterations
    < unconstrained.Halving.exhaustive_iterations);
  List.iter
    (fun g ->
      List.iter
        (fun c ->
          if c.Halving.c_metrics.Metrics.area > area_cap then
            fail
              (Printf.sprintf "%s violates the constraint inside a rung"
                 c.Halving.c_label))
        g.Halving.r_candidates)
    r.Halving.rungs

(* [parse] splits terms on '+', so no weight may print an exponent
   sign; every weight must still read back as the same float. *)
let test_objective_weights_print_without_exponent_plus () =
  List.iter
    (fun w ->
      let t =
        match Objective.parse (w ^ "*power+area") with
        | Ok t -> t
        | Error e -> fail (Printf.sprintf "weight %s does not parse: %s" w e)
      in
      let s = Objective.to_string t in
      String.iteri
        (fun i c ->
          if c = 'e' && i + 1 < String.length s && s.[i + 1] = '+' then
            fail (Printf.sprintf "%S prints an exponent '+'" s))
        s;
      match Objective.parse s with
      | Ok t' when Objective.equal t t' -> ()
      | Ok _ -> fail (Printf.sprintf "%S re-parses differently" s)
      | Error e -> fail (Printf.sprintf "%S does not re-parse: %s" s e))
    [
      "1e7"; "2.5e12"; "1e22"; "123456789"; "0.1234567"; "1e-7"; "3e-12";
      "0.3333333333333333";
    ]

let suite =
  [
    ("objective parse roundtrip", `Quick, test_objective_parse_roundtrip);
    ("objective parse errors", `Quick, test_objective_parse_errors);
    ("objective single metric", `Quick, test_objective_single_metric_scores);
    ("objective zero weight", `Quick, test_objective_zero_weight_ignored);
    ( "objective degenerate axis + ties",
      `Quick,
      test_objective_degenerate_axis_and_ties );
    ("halving validation", `Quick, test_halving_validation);
    ("halving rung schedule", `Quick, test_halving_rung_schedule);
    ("halving jobs-invariant", `Quick, test_halving_jobs_invariant);
    ("halving cache-state invariant", `Quick, test_halving_cache_state_invariant);
    ( "halving partial-fidelity keys disjoint",
      `Quick,
      test_halving_partial_fidelity_keys_disjoint );
    ( "halving winner = exhaustive best",
      `Quick,
      test_halving_winner_matches_exhaustive_best );
    ( "halving constraints prune before rungs",
      `Quick,
      test_halving_constraints_prune_before_rungs );
    ( "objective weights print without exponent plus",
      `Quick,
      test_objective_weights_print_without_exponent_plus );
  ]
