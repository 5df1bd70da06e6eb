(* One run of one workload: set-up (repeated, median reported), timed
   passes for the requested seconds, and the untimed correctness
   checks.  A traced run splits its seconds between untraced and traced
   passes (their wall-time ratio is the tracing overhead), then runs the
   layer probes; end-to-end metrics only ever come from untraced runs. *)

module Obs = Mclock_obs.Obs
module Json = Mclock_lint.Json
open Scenario

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  wrong : string list;  (** failed correctness checks *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  report : string;  (** traced runs: probe agreement and the self-time table *)
}

let setup_reps = 3

(* The median probe total and the in-program spans covering the same
   work may differ by this share before the run fails. *)
let probe_tolerance = 0.10

(* Passes until [seconds] have elapsed, at least [min]. *)
let passes_for ?(min = 1) seconds f =
  let t0 = Measure.now () in
  let rec go n acc =
    let acc = f () :: acc in
    if n + 1 >= min && Measure.now () -. t0 >= seconds then List.rev acc
    else go (n + 1) acc
  in
  go 0 []

let median_of f l = Measure.median (List.map f l)
let ratio a b = if b > 0. then a /. b else 0.

let median_probe (probes : probe list) =
  let first = List.hd probes in
  {
    first with
    metrics =
      List.map
        (fun (n, _) -> (n, median_of (fun (p : probe) -> List.assoc n p.metrics) probes))
        first.metrics;
    probe_s = median_of (fun (p : probe) -> p.probe_s) probes;
  }

let end_to_end ~setup_s passes =
  [
    ("setup_s", setup_s, "s");
    ("wall_s", median_of (fun p -> p.wall_s) passes, "s");
    ( "cells_per_s",
      median_of (fun p -> float_of_int (cells p.outcome) /. p.wall_s) passes,
      "cells/s" );
    ("cpu_s", median_of (fun p -> p.cpu_s) passes, "s");
    ("peak_rss_mb", Measure.peak_rss_mb (), "MB");
  ]

(* [traced] pairs each traced pass with its span events. *)
let per_layer ~untraced ~traced ~(probe : probe) ~parked =
  let first = fst (List.hd traced) in
  let med f = median_of f traced in
  let spans names = med (fun (_, evs) -> Layers.total_s names evs) in
  let count n = float_of_int (Option.value ~default:0 (List.assoc_opt n first.counts)) in
  let probed n = Option.value ~default:0. (List.assoc_opt n probe.metrics) in
  let wall = med (fun (p, _) -> p.wall_s) in
  let busy = med (fun (p, _) -> p.busy_s) in
  let prepare_s = spans [ "explore.prepare" ] in
  let cycles = float_of_int (cycles ~steps:probe.steps first.outcome) in
  [
    ("explore.prepare_s", prepare_s, "s");
    ("explore.prepare_share", ratio prepare_s wall, "ratio");
    ("explore.simulate_s", spans [ "explore.simulate"; "explore.evaluate" ], "s");
    ("explore.cells_simulated", count "explore.cells_simulated", "count");
    ("explore.cache_hits", count "explore.cache_hits", "count");
    ("static.analyze_s", probed "static.analyze_s", "s");
    ("static.calls", probed "static.calls", "count");
    ("static.alloc_mb", probed "static.alloc_mb", "MB");
    ("core.synth_s", probed "core.synth_s", "s");
    ("core.synth_calls", probed "core.synth_calls", "count");
    ("sim.compile_s", spans [ "sim.compile" ], "s");
    ("sim.run_s", spans [ "sim.run" ], "s");
    ("sim.cycles", cycles, "count");
    ("sim.cycles_per_s", ratio cycles busy, "cycles/s");
    ( "sim.computations_per_s",
      ratio (float_of_int (computations first.outcome)) wall,
      "computations/s" );
    ("sim.verify_s", probed "sim.verify_s", "s");
    ("sim.ckpt_encode_s", spans [ "sim.ckpt_encode" ], "s");
    ("sim.ckpt_decode_s", spans [ "sim.ckpt_decode" ], "s");
    ("sim.ckpt_bytes", med (fun (p, _) -> float_of_int p.ckpt_bytes), "bytes");
    ("store.find_s", spans [ "store.find"; "store.find_ckpt" ], "s");
    ("store.hits", count "store.hits", "count");
    ("store.misses", count "store.misses", "count");
    ("store.write_s", spans [ "store.store"; "store.store_ckpt" ], "s");
    ("store.writes", count "store.writes", "count");
    ("store.ckpt_writes", count "store.ckpt_writes", "count");
    ("store.bytes", med (fun (p, _) -> float_of_int p.store_bytes), "bytes");
    ("search.rung_s", spans [ "search.rung" ], "s");
    ("search.rungs", count "search.rungs", "count");
    ("search.simulated_iterations", count "search.simulated_iterations", "count");
    ("search.resumed", count "search.resumed", "count");
    ("exec.tasks", count "exec.tasks", "count");
    ("exec.busy_s", busy, "s");
    ( "exec.utilization",
      ratio busy (wall *. float_of_int jobs),
      "ratio" );
    ("exec.parked_slowdown", parked, "ratio");
    ("gc.minor_collections", med (fun (p, _) -> float_of_int p.gc_minor), "count");
    ("gc.major_collections", med (fun (p, _) -> float_of_int p.gc_major), "count");
    ("gc.alloc_mb", med (fun (p, _) -> p.gc_alloc_mb), "MB");
    ( "obs.overhead_pct",
      100. *. (ratio wall (median_of (fun p -> p.wall_s) untraced) -. 1.),
      "%" );
    ("obs.events", med (fun (_, evs) -> float_of_int (List.length evs)), "count");
  ]

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       metrics)

let write_trace ~file ~workload ~seed ~metrics events =
  Measure.mkdir_p (Filename.dirname file);
  let head =
    Json.to_string
      (Json.Obj
         [
           ("workload", Json.String workload);
           ("seed", Json.Int seed);
           ("layers", Layers.table_json events);
           ("metrics", metrics_json metrics);
         ])
  in
  (* The Chrome trace-event object form: the extra keys ride along. *)
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        (String.sub head 0 (String.length head - 1)
        ^ ",\"traceEvents\":" ^ Obs.to_chrome_json events ^ "}\n"))

let run ~scale ~kind ~seed ~seconds ~trace_file ~work_root =
  let work =
    Filename.concat work_root (Printf.sprintf "%s-%d" (name kind) (Unix.getpid ()))
  in
  Measure.rm_rf work;
  Measure.mkdir_p work;
  let pool = Pool.create ~jobs () in
  let ctx = { kind; scale; seed; pool; work; stores = 0 } in
  Fun.protect ~finally:(fun () ->
      Pool.shutdown pool;
      Measure.rm_rf work)
  @@ fun () ->
  let last = ref None in
  let setup_times =
    passes_for ~min:setup_reps scale.setup_seconds (fun () ->
        Option.iter discard !last;
        let t0 = Measure.now () in
        let st = setup ctx in
        last := Some st;
        Measure.now () -. t0)
  in
  let st = Option.get !last in
  let setup_s = Measure.median setup_times in
  let timed_passes seconds = passes_for seconds (fun () -> pass ctx st) in
  let untraced, traced, metrics, probe_counts, probe_failures, report =
    match trace_file with
    | None ->
        let passes = timed_passes seconds in
        (passes, [], end_to_end ~setup_s passes, [], [], "")
    | Some file ->
        let untraced = timed_passes (seconds /. 2.) in
        (* Each traced pass is followed by one probe, and each probe is
           compared with the pass just before it, so that the two
           timings share the machine's state. *)
        Obs.start ();
        let pairs =
          passes_for ~min:scale.probe_pairs (seconds /. 2.) (fun () ->
              let p = pass ctx st in
              (p, probe ctx st))
        in
        let events = Obs.stop () in
        Pool.shutdown pool;
        let parked = parked_slowdown scale in
        let pass_events =
          List.filter_map
            (fun (root, evs) ->
              if root.Obs.ev_name = "bench.pass" then Some evs else None)
            (Layers.by_root events)
        in
        let traced = List.combine (List.map fst pairs) pass_events in
        let probes = List.map snd pairs in
        let metrics =
          per_layer ~untraced ~traced ~probe:(median_probe probes) ~parked
        in
        let agreement =
          median_of
            (fun ((p : probe), (_, evs)) ->
              ratio p.probe_s (Layers.total_s (probed_spans kind) evs))
            (List.combine probes traced)
        in
        let probe_failures =
          (if scale.strict && Float.abs (agreement -. 1.) > probe_tolerance then
             [ Printf.sprintf "probe totals %.3f x the in-program spans" agreement ]
           else [])
          @
          if search_model_holds (fst (List.hd traced)).outcome then []
          else [ "rung budgets do not reproduce the search's simulated iterations" ]
        in
        let probe_counts =
          List.filter_map
            (fun (n, v, _) ->
              if List.mem n traced_counts then Some (n, int_of_float v) else None)
            metrics
        in
        write_trace ~file ~workload:(name kind) ~seed ~metrics events;
        let report =
          Printf.sprintf "probe total / %s spans: %.3f (median of %d pairs)\n%s"
            (String.concat "+" (probed_spans kind))
            agreement (List.length pairs) (Layers.render_table events)
        in
        (untraced, List.map fst traced, metrics, probe_counts, probe_failures, report)
  in
  let passes = untraced @ traced in
  let traced = trace_file <> None in
  {
    workload = name kind;
    seed;
    traced;
    attempted = sum (fun p -> cells p.outcome + p.store_ops) passes;
    failed = sum (fun p -> p.store_failures) passes;
    wrong = failed_checks ctx st passes ~traced ~probe_counts @ probe_failures;
    metrics;
    report;
  }

let correct r = r.wrong = [] && r.failed = 0

let to_json r =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("trace", Json.Bool r.traced);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

(* Every metric as [name value unit], then the result object (correct,
   attempted, failed, metrics) as the last line. *)
let print r =
  print_string r.report;
  List.iter (fun (n, v, u) -> Printf.printf "%s %.17g %s\n" n v u) r.metrics;
  Printf.printf "fail_rate %.17g ratio\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  Printf.printf "wrong_results %d count\n" (List.length r.wrong);
  List.iter (fun w -> Printf.eprintf "%s: WRONG: %s\n" r.workload w) r.wrong;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct r));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics_json r.metrics);
          ]))
