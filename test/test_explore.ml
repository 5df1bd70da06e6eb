(* Tests for the design-space exploration subsystem: grid enumeration,
   cache keys, the persistent store's failure modes, Pareto extraction,
   and the engine's determinism + cache-soundness contract (cold = warm
   = uncached = any job count). *)

open Mclock_explore

let check = Alcotest.check
let fail = Alcotest.fail

let tech = Mclock_tech.Cmos08.t

(* A throwaway directory per test; the suite never reuses one, so
   cross-test contamination is impossible. *)
let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mclock-test-cache.%d.%d" (Unix.getpid ()) !counter)
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

let with_pool ?(jobs = 1) f = Mclock_exec.Pool.with_pool ~jobs f

let explore ?cache ?constraints ?(jobs = 1) ?(max_clocks = 2) () =
  with_pool ~jobs (fun pool ->
      Engine.explore ~pool ?cache ?constraints ~seed:42 ~iterations:60
        ~max_clocks ~name:"facet" ~sched_constraints:smoke_constraints
        smoke_graph)

let sample_metrics =
  {
    Metrics.power_mw = 3.14159;
    area = 123456.75;
    latency_steps = 4;
    energy_per_computation_pj = 88.125;
    memory_cells = 11;
    mux_inputs = 12;
    functional_ok = true;
  }

let sample_key = String.make 32 'a'

(* --- Config ------------------------------------------------------------ *)

let test_enumerate_valid_and_unique () =
  let configs = Config.enumerate ~max_clocks:3 in
  List.iter
    (fun c ->
      if not (Config.is_valid ~max_clocks:3 c) then
        fail (Printf.sprintf "invalid config in grid: %s" (Config.label c)))
    configs;
  let labels = List.map Config.label configs in
  let dedup = List.sort_uniq String.compare labels in
  check Alcotest.int "labels unique" (List.length labels) (List.length dedup);
  (* 4 schedulers x (conv:3 + gated:3 + integrated:5 + split:2). *)
  check Alcotest.int "grid size" (4 * 13) (List.length configs)

let test_enumerate_deterministic () =
  let a = Config.enumerate ~max_clocks:4 in
  let b = Config.enumerate ~max_clocks:4 in
  check
    Alcotest.(list string)
    "same order" (List.map Config.label a) (List.map Config.label b)

let test_enumerate_rejects_bad_max () =
  Alcotest.check_raises "max_clocks 0"
    (Invalid_argument "Config.enumerate: max_clocks < 1") (fun () ->
      ignore (Config.enumerate ~max_clocks:0))

(* --- Cache keys -------------------------------------------------------- *)

let key_of ?(seed = 42) ?(iterations = 60) config =
  Cachekey.digest
    {
      Cachekey.graph = smoke_graph;
      width = 4;
      constraints = smoke_constraints;
      config;
      tech;
      seed;
      iterations;
    }

let test_cachekey_stable_and_sensitive () =
  let configs = Config.enumerate ~max_clocks:2 in
  let c0 = List.hd configs in
  check Alcotest.string "stable" (key_of c0) (key_of c0);
  (* Distinct configs, seeds and iteration counts must key distinct
     cells. *)
  let keys = List.map key_of configs in
  check Alcotest.int "configs key distinct cells"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  if key_of c0 = key_of ~seed:43 c0 then fail "seed not in key";
  if key_of c0 = key_of ~iterations:61 c0 then fail "iterations not in key"

let test_cachekey_graph_structure () =
  let other = Mclock_workloads.Workload.graph Mclock_workloads.Hal.t in
  let config = List.hd (Config.enumerate ~max_clocks:2) in
  let digest graph =
    Cachekey.digest
      {
        Cachekey.graph;
        width = 4;
        constraints = [];
        config;
        tech;
        seed = 42;
        iterations = 60;
      }
  in
  if digest smoke_graph = digest other then
    fail "different behaviours share a key"

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_json_roundtrip_exact () =
  (* Awkward floats on purpose: values with no finite decimal
     representation must still round-trip bit-exactly. *)
  let m =
    {
      sample_metrics with
      Metrics.power_mw = 0.1 +. 0.2;
      area = 1.0 /. 3.0;
      energy_per_computation_pj = Float.max_float;
    }
  in
  match Metrics.of_json (Metrics.to_json m) with
  | Ok m' ->
      if not (Metrics.equal m m') then fail "JSON round-trip not bit-exact"
  | Error e -> fail e

let test_constraint_parsing () =
  (match Metrics.parse_constraint "area<=12000.5" with
  | Ok (Metrics.Max_area f) -> check (Alcotest.float 0.0) "area" 12000.5 f
  | _ -> fail "area constraint");
  (match Metrics.parse_constraint " latency<=6 " with
  | Ok (Metrics.Max_latency 6) -> ()
  | _ -> fail "latency constraint");
  (match Metrics.parse_constraint "mem<=40" with
  | Ok (Metrics.Max_memory 40) -> ()
  | _ -> fail "mem constraint");
  (match Metrics.parse_constraint "power<=3.5" with
  | Ok (Metrics.Max_power f) -> check (Alcotest.float 0.0) "power" 3.5 f
  | _ -> fail "power constraint");
  (match Metrics.parse_constraint "energy<=900" with
  | Ok (Metrics.Max_energy f) -> check (Alcotest.float 0.0) "energy" 900. f
  | _ -> fail "energy constraint");
  (match Metrics.parse_constraint "throughput<=3" with
  | Error _ -> ()
  | Ok _ -> fail "unknown name must not parse");
  match Metrics.parse_constraint "area=3" with
  | Error _ -> ()
  | Ok _ -> fail "missing <= must not parse"

let string_contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let test_constraint_unknown_metric_diagnostic () =
  (* A typo'd metric name must produce a diagnostic that names the typo
     and lists every valid metric, not a bare parse failure. *)
  match Metrics.parse_constraint "powr<=3" with
  | Ok _ -> fail "typo'd metric must not parse"
  | Error msg ->
      List.iter
        (fun needle ->
          if not (string_contains ~needle msg) then
            fail (Printf.sprintf "diagnostic %S misses %S" msg needle))
        [ "powr"; "area"; "latency"; "mem"; "power"; "energy" ]

let test_constraint_to_string_roundtrip () =
  List.iter
    (fun c ->
      let rendered = Metrics.constraint_to_string c in
      match Metrics.parse_constraint rendered with
      | Ok c' when c = c' -> ()
      | Ok _ -> fail (Printf.sprintf "%s re-parsed differently" rendered)
      | Error e -> fail (Printf.sprintf "%s does not re-parse: %s" rendered e))
    [
      Metrics.Max_area 12000.5;
      Metrics.Max_latency 6;
      Metrics.Max_memory 40;
      Metrics.Max_power 4.5;
      Metrics.Max_energy 900.;
      Metrics.Max_area 1234567.;
      Metrics.Max_power 1.2345678;
    ]

(* --- Store failure modes ----------------------------------------------- *)

let test_store_roundtrip () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  check Alcotest.bool "empty store misses" true (Store.find s ~key:sample_key = None);
  Store.store s ~key:sample_key sample_metrics;
  (match Store.find s ~key:sample_key with
  | Some m ->
      if not (Metrics.equal m sample_metrics) then fail "metrics changed"
  | None -> fail "stored entry not found");
  let stats = Store.stats s in
  check Alcotest.int "one hit" 1 stats.Store.hits;
  check Alcotest.int "one miss" 1 stats.Store.misses;
  check Alcotest.int "one store" 1 stats.Store.stores;
  check Alcotest.int "no failures" 0 stats.Store.store_failures;
  rm_rf dir

let test_store_truncated_entry_is_miss () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  Store.store s ~key:sample_key sample_metrics;
  let path = Store.entry_path s ~key:sample_key in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  check Alcotest.bool "truncated entry misses" true
    (Store.find s ~key:sample_key = None);
  rm_rf dir

let test_store_wrong_version_is_miss () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  Store.store s ~key:sample_key sample_metrics;
  let path = Store.entry_path s ~key:sample_key in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let bumped =
    (* Replace the first occurrence of the version-1 marker, whatever
       the exact whitespace the serializer used. *)
    let try_sub needle repl s =
      let nl = String.length needle in
      let rec scan i =
        if i + nl > String.length s then None
        else if String.sub s i nl = needle then
          Some
            (String.sub s 0 i ^ repl
            ^ String.sub s (i + nl) (String.length s - i - nl))
        else scan (i + 1)
      in
      scan 0
    in
    match try_sub "\"version\": 1" "\"version\": 999" text with
    | Some s -> s
    | None -> (
        match try_sub "\"version\":1" "\"version\":999" text with
        | Some s -> s
        | None -> fail "version marker not found in entry")
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc bumped);
  check Alcotest.bool "future-version entry misses" true
    (Store.find s ~key:sample_key = None);
  rm_rf dir

let test_store_digest_mismatch_is_miss () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  Store.store s ~key:sample_key sample_metrics;
  (* Move a valid entry under a different key: the recorded key no
     longer matches the address, so it must not be served. *)
  let other_key = String.make 32 'b' in
  Sys.rename (Store.entry_path s ~key:sample_key)
    (Store.entry_path s ~key:other_key);
  check Alcotest.bool "key-mismatched entry misses" true
    (Store.find s ~key:other_key = None);
  rm_rf dir

let test_store_garbage_entry_is_miss () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  Out_channel.with_open_bin (Store.entry_path s ~key:sample_key) (fun oc ->
      Out_channel.output_string oc "not json at all {{{");
  check Alcotest.bool "garbage entry misses" true
    (Store.find s ~key:sample_key = None);
  rm_rf dir

let test_store_unwritable_dir_never_raises () =
  (* chmod is useless under root, so simulate an unwritable cache
     directory with a path that is actually a regular file: mkdir,
     every write and every read fail on it, and none may raise. *)
  let dir = temp_dir () in
  let blocker = Filename.concat dir "not-a-dir" in
  Out_channel.with_open_bin blocker (fun oc ->
      Out_channel.output_string oc "x");
  let s = Store.open_ ~dir:blocker () in
  Store.store s ~key:sample_key sample_metrics;
  check Alcotest.bool "find on unwritable dir misses" true
    (Store.find s ~key:sample_key = None);
  check Alcotest.int "failure counted" 1 (Store.stats s).Store.store_failures;
  rm_rf dir

let test_store_tmp_sweep () =
  (* A run killed mid-store leaves a ".<key>.<pid>.tmp" orphan; opening
     the store must remove old ones, count them, and leave both young
     temp files (a live writer may still rename them) and real entries
     alone — whatever their age. *)
  let dir = temp_dir () in
  let stale = Filename.concat dir ".deadbeef.123.tmp" in
  let fresh = Filename.concat dir ".cafe.456.tmp" in
  Out_channel.with_open_bin stale (fun oc -> Out_channel.output_string oc "{");
  Out_channel.with_open_bin fresh (fun oc -> Out_channel.output_string oc "{");
  let old = Unix.gettimeofday () -. 7200. in
  Unix.utimes stale old old;
  let s = Store.open_ ~dir () in
  check Alcotest.int "one file swept" 1 (Store.stats s).Store.swept_tmp;
  check Alcotest.bool "stale tmp removed" false (Sys.file_exists stale);
  check Alcotest.bool "young tmp kept" true (Sys.file_exists fresh);
  (* An old *entry* is data, not garbage: reopening must never sweep
     it. *)
  Store.store s ~key:sample_key sample_metrics;
  Unix.utimes (Store.entry_path s ~key:sample_key) old old;
  let s2 = Store.open_ ~dir () in
  check Alcotest.int "nothing else swept" 0 (Store.stats s2).Store.swept_tmp;
  check Alcotest.bool "old entry survives reopen" true
    (Store.find s2 ~key:sample_key <> None);
  rm_rf dir

let test_store_unsafe_key_rejected () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  Store.store s ~key:"../evil" sample_metrics;
  check Alcotest.bool "path-hostile key misses" true
    (Store.find s ~key:"../evil" = None);
  check Alcotest.bool "nothing escaped the dir" false
    (Sys.file_exists (Filename.concat dir "../evil.json"));
  rm_rf dir

let test_store_gc_dry_run_previews_without_removing () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  let keys = List.map (fun c -> String.make 32 c) [ 'a'; 'b'; 'c'; 'd' ] in
  List.iter (fun key -> Store.store s ~key sample_metrics) keys;
  (* Distinct, known mtimes so the victim span is deterministic. *)
  let now = Unix.gettimeofday () in
  List.iteri
    (fun i key ->
      let t = now -. float_of_int (100 * (List.length keys - i)) in
      Unix.utimes (Store.entry_path s ~key) t t)
    keys;
  let dry = Store.gc ~max_bytes:0 ~dry_run:true s in
  check Alcotest.int "dry run would remove everything" (List.length keys)
    dry.Store.gc_removed_entries;
  check Alcotest.int "dry run would leave nothing" 0
    dry.Store.gc_remaining_entries;
  check Alcotest.bool "dry run removed bytes counted" true
    (dry.Store.gc_removed_bytes > 0);
  (match (dry.Store.gc_oldest_removed, dry.Store.gc_newest_removed) with
  | Some oldest, Some newest ->
      if oldest > newest then fail "victim span inverted"
  | _ -> fail "dry run must report the victim mtime span");
  (* Nothing may actually have been deleted. *)
  List.iter
    (fun key ->
      if Store.find s ~key = None then
        fail (Printf.sprintf "dry-run gc deleted entry %s" key))
    keys;
  (* The real gc must then do exactly what the dry run predicted. *)
  let wet = Store.gc ~max_bytes:0 s in
  check Alcotest.int "real gc removes the predicted count"
    dry.Store.gc_removed_entries wet.Store.gc_removed_entries;
  check Alcotest.int "real gc removes the predicted bytes"
    dry.Store.gc_removed_bytes wet.Store.gc_removed_bytes;
  List.iter
    (fun key ->
      if Store.find s ~key <> None then
        fail (Printf.sprintf "real gc left entry %s behind" key))
    keys;
  rm_rf dir

(* --- Pareto ------------------------------------------------------------ *)

let point index label power area latency =
  {
    Pareto.index;
    label;
    metrics =
      {
        sample_metrics with
        Metrics.power_mw = power;
        area;
        latency_steps = latency;
      };
  }

let test_pareto_frontier_and_attribution () =
  let a = point 0 "a" 1.0 100.0 4 in
  let b = point 1 "b" 2.0 50.0 4 in
  let c = point 2 "c" 2.0 120.0 4 in
  (* dominated by a *)
  let d = point 3 "d" 3.0 60.0 4 in
  (* dominated by b *)
  let r = Pareto.frontier [ a; b; c; d ] in
  check
    Alcotest.(list string)
    "frontier" [ "a"; "b" ]
    (List.map (fun p -> p.Pareto.label) r.Pareto.frontier);
  let verdict label =
    let _, v =
      List.find (fun (p, _) -> p.Pareto.label = label) r.Pareto.verdicts
    in
    v
  in
  (match verdict "c" with
  | Pareto.Dominated_by p -> check Alcotest.string "c by a" "a" p.Pareto.label
  | Pareto.On_frontier -> fail "c should be dominated");
  match verdict "d" with
  | Pareto.Dominated_by p -> check Alcotest.string "d by b" "b" p.Pareto.label
  | Pareto.On_frontier -> fail "d should be dominated"

let test_pareto_ties_stay_on_frontier () =
  let a = point 0 "a" 1.0 100.0 4 in
  let b = point 1 "b" 1.0 100.0 4 in
  let r = Pareto.frontier [ a; b ] in
  check Alcotest.int "both on frontier" 2 (List.length r.Pareto.frontier)

let test_pareto_attribution_lands_on_frontier () =
  (* A chain a < b < c: c's first dominator in index order may itself
     be dominated; attribution must walk to a frontier point. *)
  let a = point 0 "a" 1.0 10.0 4 in
  let b = point 1 "b" 2.0 20.0 4 in
  let c = point 2 "c" 3.0 30.0 4 in
  let r = Pareto.frontier [ a; b; c ] in
  List.iter
    (function
      | _, Pareto.On_frontier -> ()
      | _, Pareto.Dominated_by q ->
          if not (List.memq q r.Pareto.frontier) then
            fail "attributed to a non-frontier point")
    r.Pareto.verdicts

(* --- Engine: determinism + cache soundness ----------------------------- *)

let frontier_string r = Mclock_util.Json.to_string (Engine.frontier_json r)

(* The explored frontier must equal the frontier of brute-force
   exhaustive evaluation with no engine, no cache and no pool fan-out. *)
let test_engine_matches_exhaustive_uncached () =
  let r = explore () in
  let configs = Config.enumerate ~max_clocks:2 in
  let schedules = Hashtbl.create 4 in
  let brute =
    List.mapi
      (fun i config ->
        let sched =
          match Hashtbl.find_opt schedules config.Config.scheduler with
          | Some s -> s
          | None ->
              let s =
                Config.schedule config ~constraints:smoke_constraints
                  smoke_graph
              in
              Hashtbl.add schedules config.Config.scheduler s;
              s
        in
        let design = Config.synthesize config ~name:"x_facet" sched in
        let report =
          Mclock_power.Report.evaluate ~seed:42 ~iterations:60
            ~label:(Config.label config) tech design smoke_graph
        in
        {
          Pareto.index = i;
          label = Config.label config;
          metrics =
            Metrics.of_report ~config ~tech
              ~latency_steps:(Mclock_rtl.Design.num_steps design)
              report;
        })
      configs
  in
  let brute_frontier =
    (Pareto.frontier
       (List.filter (fun p -> p.Pareto.metrics.Metrics.functional_ok) brute))
      .Pareto.frontier
  in
  check Alcotest.int "same frontier size"
    (List.length brute_frontier)
    (List.length r.Engine.pareto.Pareto.frontier);
  List.iter2
    (fun bp ep ->
      check Alcotest.string "same config" bp.Pareto.label ep.Pareto.label;
      if not (Metrics.equal bp.Pareto.metrics ep.Pareto.metrics) then
        fail (Printf.sprintf "%s: metrics differ" bp.Pareto.label))
    brute_frontier r.Engine.pareto.Pareto.frontier

let test_engine_jobs_invariant () =
  let a = explore ~jobs:1 () in
  let b = explore ~jobs:3 () in
  check Alcotest.string "frontier byte-identical across job counts"
    (frontier_string a) (frontier_string b);
  check Alcotest.string "text render byte-identical across job counts"
    (Engine.render_text a) (Engine.render_text b)

let test_engine_warm_cache_soundness () =
  let dir = temp_dir () in
  let cache = Store.open_ ~dir () in
  let cold = explore ~cache () in
  let warm = explore ~cache ~jobs:2 () in
  check Alcotest.string "warm frontier byte-identical"
    (frontier_string cold) (frontier_string warm);
  check Alcotest.int "cold simulated everything"
    cold.Engine.stats.Engine.enumerated cold.Engine.stats.Engine.simulated;
  check Alcotest.int "warm simulated nothing" 0
    warm.Engine.stats.Engine.simulated;
  check Alcotest.int "warm hit everything"
    warm.Engine.stats.Engine.enumerated warm.Engine.stats.Engine.cache_hits;
  (* The acceptance bar: a warm rerun re-simulates >= 5x fewer cells. *)
  if
    cold.Engine.stats.Engine.simulated
    < 5 * max 1 warm.Engine.stats.Engine.simulated
  then fail "warm rerun not at least 5x cheaper";
  rm_rf dir

let test_engine_corrupt_cache_recovers () =
  let dir = temp_dir () in
  let cache = Store.open_ ~dir () in
  let cold = explore ~cache () in
  (* Vandalize every on-disk entry; the engine must silently fall back
     to simulation and reproduce the same frontier. *)
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc "{ \"version\": 1, truncated"))
    (Sys.readdir dir);
  let rerun = explore ~cache () in
  check Alcotest.string "frontier identical after corruption"
    (frontier_string cold) (frontier_string rerun);
  check Alcotest.int "everything re-simulated"
    rerun.Engine.stats.Engine.enumerated rerun.Engine.stats.Engine.simulated;
  rm_rf dir

let test_engine_pruning_sound () =
  (* A constraint tight enough to prune the duplication variants: the
     kept frontier must equal the unconstrained frontier filtered to
     admissible points (pruning exactness), and pruned cells must not
     be simulated. *)
  let area_cap = 3.0e6 in
  let unconstrained = explore () in
  let constrained =
    explore ~constraints:[ Metrics.Max_area area_cap ] ()
  in
  check Alcotest.bool "something was pruned" true
    (constrained.Engine.stats.Engine.pruned > 0);
  check Alcotest.int "pruned cells not simulated"
    (constrained.Engine.stats.Engine.enumerated
    - constrained.Engine.stats.Engine.pruned)
    constrained.Engine.stats.Engine.simulated;
  let expected =
    List.filter
      (fun p -> p.Pareto.metrics.Metrics.area <= area_cap)
      unconstrained.Engine.pareto.Pareto.frontier
  in
  (* Every admissible unconstrained-frontier point survives as a
     constrained-frontier point with identical metrics (dominance only
     shrinks when points are removed). *)
  List.iter
    (fun p ->
      match
        List.find_opt
          (fun q -> q.Pareto.label = p.Pareto.label)
          constrained.Engine.pareto.Pareto.frontier
      with
      | Some q ->
          if not (Metrics.equal p.Pareto.metrics q.Pareto.metrics) then
            fail "metrics changed under constraints"
      | None -> fail (Printf.sprintf "%s lost by pruning" p.Pareto.label))
    expected

let test_engine_power_pruning_differential () =
  (* power<=X is a certified-bound constraint: the pruned set must be
     exactly the cells whose deterministic static bound exceeds the
     cap (pre-prune and post-evaluation views agree), no simulated
     cell may exceed the cap on its bound, and every admissible
     unconstrained-frontier point survives untouched. *)
  let unconstrained = explore () in
  let bounds = List.map (fun c -> c.Engine.bounds.Metrics.b_power_mw)
      unconstrained.Engine.cells in
  (* A cap between the min and max bound so both outcomes occur. *)
  let cap =
    let mn = List.fold_left Float.min Float.max_float bounds in
    let mx = List.fold_left Float.max 0. bounds in
    (mn +. mx) /. 2.
  in
  let constrained = explore ~constraints:[ Metrics.Max_power cap ] () in
  check Alcotest.bool "something was pruned" true
    (constrained.Engine.stats.Engine.pruned > 0);
  check Alcotest.bool "something survived" true
    (constrained.Engine.stats.Engine.simulated > 0);
  List.iter2
    (fun (u : Engine.cell) (c : Engine.cell) ->
      check Alcotest.string "same grid" u.Engine.cell_label c.Engine.cell_label;
      let should_prune = u.Engine.bounds.Metrics.b_power_mw > cap in
      match c.Engine.status with
      | Engine.Pruned v ->
          check Alcotest.bool
            (Printf.sprintf "%s pruned only above cap" c.Engine.cell_label)
            true should_prune;
          check Alcotest.bool "violation names the power cap" true
            (List.mem (Metrics.Max_power cap) v)
      | Engine.Cached m | Engine.Simulated m ->
          check Alcotest.bool
            (Printf.sprintf "%s kept only within cap" c.Engine.cell_label)
            false should_prune;
          (* The certificate: an evaluated survivor never violates. *)
          check Alcotest.bool
            (Printf.sprintf "%s simulated within cap" c.Engine.cell_label)
            true
            (m.Metrics.power_mw <= cap))
    unconstrained.Engine.cells constrained.Engine.cells;
  (* Admissible unconstrained-frontier points survive with identical
     metrics, exactly as with the area constraint. *)
  List.iter
    (fun p ->
      let cell =
        List.find
          (fun c -> c.Engine.cell_label = p.Pareto.label)
          unconstrained.Engine.cells
      in
      if cell.Engine.bounds.Metrics.b_power_mw <= cap then
        match
          List.find_opt
            (fun q -> q.Pareto.label = p.Pareto.label)
            constrained.Engine.pareto.Pareto.frontier
        with
        | Some q ->
            if not (Metrics.equal p.Pareto.metrics q.Pareto.metrics) then
              fail "metrics changed under power constraint"
        | None -> fail (Printf.sprintf "%s lost by power pruning" p.Pareto.label))
    unconstrained.Engine.pareto.Pareto.frontier

let test_engine_scaled_cells_consistent () =
  (* The pre-simulation bounds must equal the evaluated metrics for
     area and latency on every cell — including the Scaled transform —
     otherwise pruning could disagree with evaluation. *)
  let r = explore () in
  List.iter
    (fun (c : Engine.cell) ->
      match c.Engine.status with
      | Engine.Pruned _ -> ()
      | Engine.Cached m | Engine.Simulated m ->
          if not (Float.equal c.Engine.bounds.Metrics.b_area m.Metrics.area)
          then fail (Printf.sprintf "%s: bound area differs" c.Engine.cell_label);
          check Alcotest.int
            (Printf.sprintf "%s: bound latency" c.Engine.cell_label)
            c.Engine.bounds.Metrics.b_latency_steps m.Metrics.latency_steps;
          check Alcotest.int
            (Printf.sprintf "%s: bound memory" c.Engine.cell_label)
            c.Engine.bounds.Metrics.b_memory_cells m.Metrics.memory_cells;
          (* Power and energy bounds are certificates, not equalities. *)
          check Alcotest.bool
            (Printf.sprintf "%s: power within bound" c.Engine.cell_label)
            true
            (m.Metrics.power_mw
            <= c.Engine.bounds.Metrics.b_power_mw *. (1. +. 1e-9));
          check Alcotest.bool
            (Printf.sprintf "%s: energy within bound" c.Engine.cell_label)
            true
            (m.Metrics.energy_per_computation_pj
            <= c.Engine.bounds.Metrics.b_energy_pj *. (1. +. 1e-9)))
    r.Engine.cells

(* Regression for an indexing bug class: [Engine.best] resolves the
   objective's winning index against the *evaluated* cell list (grid
   order, pruned/failed cells excluded), not the full grid.  Derive
   that list independently and pin the correspondence. *)
let test_engine_best_index_correspondence () =
  let r = explore () in
  let objective = Objective.default in
  let evaluated =
    List.filter_map
      (fun (c : Engine.cell) ->
        match c.Engine.status with
        | (Engine.Cached m | Engine.Simulated m) when m.Metrics.functional_ok
          ->
            Some (c, m)
        | _ -> None)
      r.Engine.cells
  in
  check Alcotest.bool "grid has evaluated cells" true (evaluated <> []);
  match Engine.best ~objective r with
  | None -> fail "functional grid has no best"
  | Some (cell, score) -> (
      match Objective.best objective (List.map snd evaluated) with
      | None -> fail "objective scan is empty"
      | Some (i, expected_score) ->
          let expected_cell, _ = List.nth evaluated i in
          check Alcotest.string "best resolves the objective's index"
            expected_cell.Engine.cell_label cell.Engine.cell_label;
          if not (Float.equal score expected_score) then
            fail "best score differs from the objective's")

(* Misses are simulated in enumeration order and stitched back between
   the cache hits: with every other entry gone, each cell must carry
   its own metrics, in the same order as the cold run. *)
let test_engine_partial_cache_stitches_in_order () =
  let dir = temp_dir () in
  let cache = Store.open_ ~dir () in
  let cold = explore ~cache () in
  let dropped =
    List.filteri
      (fun i (c : Engine.cell) ->
        if i mod 2 = 0 then Sys.remove (Filename.concat dir (c.Engine.key ^ ".json"));
        i mod 2 = 0)
      cold.Engine.cells
  in
  let rerun = explore ~cache ~jobs:2 () in
  check Alcotest.int "only the dropped cells simulated" (List.length dropped)
    rerun.Engine.stats.Engine.simulated;
  check Alcotest.int "the rest hit the cache"
    (List.length cold.Engine.cells - List.length dropped)
    rerun.Engine.stats.Engine.cache_hits;
  List.iteri
    (fun i ((a : Engine.cell), (b : Engine.cell)) ->
      check Alcotest.string "cell order" a.Engine.cell_label b.Engine.cell_label;
      match (a.Engine.status, b.Engine.status) with
      | Engine.Simulated m, Engine.Simulated m' when i mod 2 = 0 ->
          if not (Metrics.equal m m') then
            fail (Printf.sprintf "%s: re-simulated metrics differ" a.Engine.cell_label)
      | Engine.Simulated m, Engine.Cached m' when i mod 2 = 1 ->
          if not (Metrics.equal m m') then
            fail (Printf.sprintf "%s: cached metrics differ" a.Engine.cell_label)
      | _ -> fail (Printf.sprintf "%s: unexpected status" a.Engine.cell_label))
    (List.combine cold.Engine.cells rerun.Engine.cells);
  check Alcotest.string "frontier byte-identical" (frontier_string cold)
    (frontier_string rerun);
  rm_rf dir

(* The store's failure counter runs across every run sharing it; each
   result must count only the writes its own run attempted.  The cache
   directory is a regular file, so every write fails. *)
let test_store_failures_per_run () =
  let dir = temp_dir () in
  let blocker = Filename.concat dir "not-a-dir" in
  Out_channel.with_open_bin blocker (fun oc ->
      Out_channel.output_string oc "x");
  let cache = Store.open_ ~dir:blocker () in
  let runs = [ explore ~cache (); explore ~cache () ] in
  List.iter
    (fun (r : Engine.result) ->
      check Alcotest.int "every cell simulated" r.Engine.stats.Engine.enumerated
        r.Engine.stats.Engine.simulated;
      check Alcotest.int "explore: one failed write per simulated cell"
        r.Engine.stats.Engine.simulated r.Engine.stats.Engine.store_failures)
    runs;
  let search =
    with_pool (fun pool ->
        Halving.run ~pool ~cache ~seed:42 ~iterations:60 ~max_clocks:2
          ~name:"facet" ~sched_constraints:smoke_constraints smoke_graph)
  in
  let s = search.Halving.stats in
  check Alcotest.bool "search wrote checkpoints" true
    (s.Halving.checkpoints_written > 0);
  check Alcotest.int "search: its own entry and sidecar writes"
    (s.Halving.simulated + s.Halving.checkpoints_written)
    s.Halving.store_failures;
  check Alcotest.int "the store counts them all"
    (List.fold_left
       (fun n (r : Engine.result) -> n + r.Engine.stats.Engine.store_failures)
       s.Halving.store_failures runs)
    (Store.stats cache).Store.store_failures;
  rm_rf dir

(* [exact_float] reads back as the same float, and keeps [%g]'s bytes
   wherever [%g] already did. *)
let test_exact_float () =
  List.iter
    (fun f ->
      let s = Metrics.exact_float f in
      if not (Float.equal (float_of_string s) f) then
        fail (Printf.sprintf "%h prints as %S, which reads back differently" f s);
      let g = Printf.sprintf "%g" f in
      if Float.equal (float_of_string g) f then
        check Alcotest.string "same bytes as %g" g s)
    [
      0.; 1.; -2.5; 4.5; 12000.; 0.1; 1. /. 3.; 1234567.; 1.2345678; 1e7;
      1e-7; 1e22; 5e-324; max_float; -.min_float;
    ]

let suite =
  [
    ("enumerate valid+unique", `Quick, test_enumerate_valid_and_unique);
    ("enumerate deterministic", `Quick, test_enumerate_deterministic);
    ("enumerate rejects bad max", `Quick, test_enumerate_rejects_bad_max);
    ("cachekey stable+sensitive", `Quick, test_cachekey_stable_and_sensitive);
    ("cachekey graph structure", `Quick, test_cachekey_graph_structure);
    ("metrics json bit-exact", `Quick, test_metrics_json_roundtrip_exact);
    ("constraint parsing", `Quick, test_constraint_parsing);
    ( "constraint unknown metric diagnostic",
      `Quick,
      test_constraint_unknown_metric_diagnostic );
    ("constraint to_string roundtrip", `Quick, test_constraint_to_string_roundtrip);
    ("store roundtrip", `Quick, test_store_roundtrip);
    ("store tmp sweep", `Quick, test_store_tmp_sweep);
    ("store truncated entry", `Quick, test_store_truncated_entry_is_miss);
    ("store wrong version", `Quick, test_store_wrong_version_is_miss);
    ("store digest mismatch", `Quick, test_store_digest_mismatch_is_miss);
    ("store garbage entry", `Quick, test_store_garbage_entry_is_miss);
    ("store unwritable dir", `Quick, test_store_unwritable_dir_never_raises);
    ("store unsafe key", `Quick, test_store_unsafe_key_rejected);
    ("store gc dry run", `Quick, test_store_gc_dry_run_previews_without_removing);
    ("pareto frontier+attribution", `Quick, test_pareto_frontier_and_attribution);
    ("pareto ties", `Quick, test_pareto_ties_stay_on_frontier);
    ("pareto attribution on frontier", `Quick, test_pareto_attribution_lands_on_frontier);
    ("engine = exhaustive uncached", `Quick, test_engine_matches_exhaustive_uncached);
    ("engine jobs-invariant", `Quick, test_engine_jobs_invariant);
    ("engine warm cache sound", `Quick, test_engine_warm_cache_soundness);
    ("engine corrupt cache recovers", `Quick, test_engine_corrupt_cache_recovers);
    ("engine pruning sound", `Quick, test_engine_pruning_sound);
    ("engine power pruning differential", `Quick, test_engine_power_pruning_differential);
    ("engine scaled cells consistent", `Quick, test_engine_scaled_cells_consistent);
    ("engine best index correspondence", `Quick, test_engine_best_index_correspondence);
    ( "engine partial cache stitches in order",
      `Quick,
      test_engine_partial_cache_stitches_in_order );
    ("exact_float reads back", `Quick, test_exact_float);
    ("store failures counted per run", `Quick, test_store_failures_per_run);
  ]
