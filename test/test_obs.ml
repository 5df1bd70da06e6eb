(* Tests for the observability layer: registry atomicity, span nesting
   (ambient and across pool domains), the Chrome trace exporter, and
   the registry-absorption parity contracts (legacy stats records must
   be pure reads of the counters).  The final test pins the determinism
   invariant: tracing must never change a result document. *)

open Mclock_obs

let check = Alcotest.check
let fail = Alcotest.fail

(* Tracing is process-global; every test that starts it must stop it
   even on failure, or the remaining suites would record spans. *)
let with_trace ?clock f =
  Obs.start ?clock ();
  Fun.protect ~finally:(fun () -> ignore (Obs.stop ())) (fun () -> f ())

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mclock-test-obs.%d.%d" (Unix.getpid ()) !counter)
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

(* --- Registry ----------------------------------------------------------- *)

let test_counter_atomic_across_domains () =
  let reg = Registry.create ~register:false ~name:"t" () in
  let c = Registry.counter reg "hits" in
  let per_domain = 25_000 in
  let worker () =
    for _ = 1 to per_domain do
      Registry.incr c
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check Alcotest.int "no lost increments" (4 * per_domain)
    (Registry.value c)

let test_counter_get_or_create () =
  let reg = Registry.create ~register:false ~name:"t" () in
  let a = Registry.counter reg "x" in
  Registry.incr a ~by:3;
  (* Same name must resolve to the same cell. *)
  Registry.incr (Registry.counter reg "x") ~by:2;
  check Alcotest.int "shared cell" 5 (Registry.value a);
  check Alcotest.(option int) "get" (Some 5) (Registry.get reg "x");
  check Alcotest.(option int) "absent" None (Registry.get reg "y");
  check
    Alcotest.(list (pair string int))
    "snapshot sorted"
    [ ("a", 1); ("x", 5) ]
    (Registry.incr (Registry.counter reg "a");
     Registry.snapshot reg);
  Registry.reset reg;
  check Alcotest.(option int) "reset" (Some 0) (Registry.get reg "x")

(* --- Span nesting (fake clock: deterministic timestamps) ---------------- *)

let test_span_nesting () =
  let now = ref 0. in
  let clock () =
    now := !now +. 1e-3;
    !now
  in
  let events =
    Obs.start ~clock ();
    Fun.protect
      ~finally:(fun () -> ignore (Obs.stop ()))
      (fun () ->
        Obs.with_span ~name:"outer" (fun () ->
            Obs.with_span ~name:"inner" (fun () -> ()));
        Obs.with_span ~name:"sibling" (fun () -> ());
        Obs.stop ())
  in
  check Alcotest.int "three events" 3 (List.length events);
  let by_name n = List.find (fun ev -> ev.Obs.ev_name = n) events in
  let outer = by_name "outer" and inner = by_name "inner" in
  let sibling = by_name "sibling" in
  check Alcotest.(option int) "inner nests under outer"
    (Some outer.Obs.ev_id) inner.Obs.ev_parent;
  check Alcotest.(option int) "outer is a root" None outer.Obs.ev_parent;
  check Alcotest.(option int) "sibling is a root" None sibling.Obs.ev_parent;
  if inner.Obs.ev_ts_us <= outer.Obs.ev_ts_us then
    fail "inner must start after outer";
  if inner.Obs.ev_dur_us >= outer.Obs.ev_dur_us then
    fail "inner must be shorter than outer"

let test_span_end_attrs_merge () =
  let events =
    with_trace (fun () ->
        let sp = Obs.begin_span ~name:"s" ~attrs:[ ("k", "v") ] () in
        Obs.end_span sp ~attrs:[ ("result", "hit") ];
        Obs.stop ())
  in
  match events with
  | [ ev ] ->
      check
        Alcotest.(list (pair string string))
        "begin and end attrs merged"
        [ ("k", "v"); ("result", "hit") ]
        ev.Obs.ev_attrs
  | evs -> fail (Printf.sprintf "expected 1 event, got %d" (List.length evs))

let test_spans_disabled_are_free () =
  check Alcotest.bool "tracing off" false (Obs.tracing ());
  (* No trace started: with_span must just run f, begin_span is None. *)
  check Alcotest.int "passthrough" 41
    (Obs.with_span ~name:"nope" (fun () -> 41));
  check Alcotest.bool "no span handle" true (Obs.begin_span ~name:"n" () = None)

(* --- Parenting across pool domains -------------------------------------- *)

let pool_task_parents ~jobs =
  with_trace (fun () ->
      Mclock_exec.Pool.with_pool ~jobs (fun pool ->
          let sp = Obs.begin_span ~name:"root" () in
          let _ =
            Mclock_exec.Pool.map pool
              ~label:(fun i -> Printf.sprintf "task-%d" i)
              (fun _ x -> x * x)
              [ 1; 2; 3; 4; 5; 6 ]
          in
          Obs.end_span sp;
          let events = Obs.stop () in
          let root = List.find (fun ev -> ev.Obs.ev_name = "root") events in
          let tasks =
            List.filter (fun ev -> ev.Obs.ev_cat = "pool") events
          in
          check Alcotest.int "one span per task" 6 (List.length tasks);
          (root.Obs.ev_id, List.map (fun ev -> ev.Obs.ev_parent) tasks)))

let test_pool_spans_nest_under_submitter () =
  List.iter
    (fun jobs ->
      let root_id, parents = pool_task_parents ~jobs in
      List.iter
        (fun p ->
          check Alcotest.(option int)
            (Printf.sprintf "jobs=%d task parent" jobs)
            (Some root_id) p)
        parents)
    [ 1; 4 ]

(* Span stacks are keyed by domain: an event records the id of the
   domain that opened it, which the exporter writes as [tid]. *)
let test_tid_is_domain_id () =
  let main_id = (Domain.self () :> int) in
  let events, worker_id =
    with_trace (fun () ->
        Obs.with_span ~name:"main" (fun () -> ());
        let worker_id =
          Domain.join
            (Domain.spawn (fun () ->
                 Obs.with_span ~name:"worker" (fun () -> ());
                 (Domain.self () :> int)))
        in
        (Obs.stop (), worker_id))
  in
  let domain_of n =
    (List.find (fun ev -> ev.Obs.ev_name = n) events).Obs.ev_domain
  in
  check Alcotest.int "main span on main domain" main_id (domain_of "main");
  check Alcotest.int "worker span on its domain" worker_id (domain_of "worker");
  match Mclock_util.Json.parse (Obs.to_chrome_json events) with
  | Ok (Mclock_util.Json.List items) ->
      let tids =
        List.sort compare
          (List.filter_map
             (fun item ->
               match Mclock_util.Json.member "tid" item with
               | Some (Mclock_util.Json.Int t) -> Some t
               | _ -> None)
             items)
      in
      check Alcotest.(list int) "exported tids are domain ids"
        (List.sort compare [ main_id; worker_id ])
        tids
  | Ok _ -> fail "trace is not a list"
  | Error e -> fail e

let test_domain_stacks_independent () =
  (* A span open on one domain is not an ambient parent on another;
     only an explicit context carries it across. *)
  let events =
    with_trace (fun () ->
        let outer = Obs.begin_span ~name:"outer" () in
        let ctx = Obs.context () in
        Domain.join
          (Domain.spawn (fun () ->
               Obs.with_span ~name:"free" (fun () -> ());
               Obs.with_context ctx (fun () ->
                   Obs.with_span ~name:"linked" (fun () -> ()))));
        Obs.with_span ~name:"inner" (fun () -> ());
        Obs.end_span outer;
        Obs.stop ())
  in
  let by_name n = List.find (fun ev -> ev.Obs.ev_name = n) events in
  let outer_id = Some (by_name "outer").Obs.ev_id in
  check Alcotest.(option int) "other domain starts a root" None
    (by_name "free").Obs.ev_parent;
  check Alcotest.(option int) "context links across domains" outer_id
    (by_name "linked").Obs.ev_parent;
  check Alcotest.(option int) "own domain still nests" outer_id
    (by_name "inner").Obs.ev_parent

let test_event_json_uses_codec_escaper () =
  let name = "ret\rnl\nq\"bs\\ctl\001" and value = "tab\there\031" in
  let events =
    with_trace (fun () ->
        Obs.with_span ~name ~attrs:[ ("k", value) ] (fun () -> ());
        Obs.stop ())
  in
  let json = Obs.to_chrome_json events in
  List.iter
    (fun s ->
      let e = Mclock_util.Json.escape_string s in
      let n = String.length e and len = String.length json in
      let rec found i = i + n <= len && (String.sub json i n = e || found (i + 1)) in
      check Alcotest.bool (Printf.sprintf "%S escaped by the codec" s) true
        (found 0))
    [ name; value ];
  match Mclock_util.Json.parse json with
  | Ok (Mclock_util.Json.List [ ev ]) ->
      check Alcotest.(option string) "name round-trips" (Some name)
        (match Mclock_util.Json.member "name" ev with
        | Some (Mclock_util.Json.String s) -> Some s
        | _ -> None);
      check Alcotest.(option string) "attr round-trips" (Some value)
        (match
           Option.bind (Mclock_util.Json.member "args" ev)
             (Mclock_util.Json.member "k")
         with
        | Some (Mclock_util.Json.String s) -> Some s
        | _ -> None)
  | Ok _ -> fail "expected one event"
  | Error e -> fail e

(* --- Chrome trace exporter ---------------------------------------------- *)

let test_chrome_export_roundtrip () =
  let now = ref 0. in
  let clock () =
    now := !now +. 1e-3;
    !now
  in
  let events =
    Obs.start ~clock ();
    Fun.protect
      ~finally:(fun () -> ignore (Obs.stop ()))
      (fun () ->
        Obs.with_span ~name:"outer \"quoted\"\nline" (fun () ->
            Obs.with_span ~name:"inner" ~attrs:[ ("key", "a\tb") ] (fun () ->
                ()));
        Obs.stop ())
  in
  let json = Obs.to_chrome_json events in
  match Mclock_util.Json.parse json with
  | Error e -> fail ("exporter emitted unparseable JSON: " ^ e)
  | Ok (Mclock_util.Json.List items) ->
      check Alcotest.int "all events exported" (List.length events)
        (List.length items);
      let last_ts = ref neg_infinity in
      List.iter
        (fun item ->
          let member k =
            match Mclock_util.Json.member k item with
            | Some v -> v
            | None -> fail (Printf.sprintf "event missing %S" k)
          in
          (match member "ph" with
          | Mclock_util.Json.String "X" -> ()
          | _ -> fail "ph must be \"X\"");
          (match (member "name", member "cat") with
          | Mclock_util.Json.String _, Mclock_util.Json.String _ -> ()
          | _ -> fail "name/cat must be strings");
          (match (member "pid", member "tid") with
          | Mclock_util.Json.Int _, Mclock_util.Json.Int _ -> ()
          | _ -> fail "pid/tid must be ints");
          (match Mclock_util.Json.member "id" (member "args") with
          | Some (Mclock_util.Json.Int _) -> ()
          | _ -> fail "args.id must be an int");
          let ts =
            match member "ts" with
            | Mclock_util.Json.Float f -> f
            | Mclock_util.Json.Int i -> float_of_int i
            | _ -> fail "ts must be a number"
          in
          if ts < !last_ts then fail "ts not monotone";
          last_ts := ts)
        items;
      (* Escaping round-trips: the quoted/newlined span name survives. *)
      let names =
        List.filter_map
          (fun item ->
            match Mclock_util.Json.member "name" item with
            | Some (Mclock_util.Json.String s) -> Some s
            | _ -> None)
          items
      in
      check Alcotest.bool "escaped name round-trips" true
        (List.mem "outer \"quoted\"\nline" names)
  | Ok _ -> fail "exporter must emit a top-level list"

let test_summary_renders () =
  let now = ref 0. in
  let clock () =
    now := !now +. 1e-3;
    !now
  in
  let events =
    Obs.start ~clock ();
    Fun.protect
      ~finally:(fun () -> ignore (Obs.stop ()))
      (fun () ->
        Obs.with_span ~name:"work" (fun () -> ());
        Obs.stop ())
  in
  let s = Obs.summary events in
  check Alcotest.bool "mentions event count" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 4 <= String.length s && (String.sub s i 4 = "work" || contains (i + 1))
    in
    contains 0)

(* --- Registry absorption parity ----------------------------------------- *)

let test_store_stats_parity () =
  let dir = temp_dir () in
  let store = Mclock_explore.Store.open_ ~dir () in
  let key = String.make 32 'a' in
  let metrics =
    {
      Mclock_explore.Metrics.power_mw = 3.5;
      area = 1000.;
      latency_steps = 4;
      energy_per_computation_pj = 7.25;
      memory_cells = 3;
      mux_inputs = 5;
      functional_ok = true;
    }
  in
  (match Mclock_explore.Store.find store ~key with
  | None -> ()
  | Some _ -> fail "empty store served an entry");
  Mclock_explore.Store.store store ~key metrics;
  (match Mclock_explore.Store.find store ~key with
  | Some _ -> ()
  | None -> fail "stored entry not found");
  let s = Mclock_explore.Store.stats store in
  let reg = Mclock_explore.Store.registry store in
  check Alcotest.string "registry name" "store" (Registry.name reg);
  check Alcotest.(option int) "hits" (Some s.Mclock_explore.Store.hits)
    (Registry.get reg "hits");
  check Alcotest.(option int) "misses" (Some s.Mclock_explore.Store.misses)
    (Registry.get reg "misses");
  check Alcotest.(option int) "stores" (Some s.Mclock_explore.Store.stores)
    (Registry.get reg "stores");
  check Alcotest.int "one hit" 1 s.Mclock_explore.Store.hits;
  check Alcotest.int "one miss" 1 s.Mclock_explore.Store.misses;
  check Alcotest.int "one store" 1 s.Mclock_explore.Store.stores;
  rm_rf dir

let test_pool_registry_counts_tasks () =
  Mclock_exec.Pool.with_pool ~jobs:2 (fun pool ->
      let _ =
        Mclock_exec.Pool.map pool
          ~label:(fun i -> Printf.sprintf "t%d" i)
          (fun _ x -> List.init (1000 * x) Fun.id)
          [ 1; 2; 3; 4; 5 ]
      in
      let reg = Mclock_exec.Pool.registry pool in
      let counter name = Option.value ~default:0 (Registry.get reg name) in
      check Alcotest.string "registry name" "pool" (Registry.name reg);
      check Alcotest.int "tasks = items submitted" 5 (counter "tasks");
      check Alcotest.bool "wall_us nonzero" true (counter "wall_us" > 0);
      check Alcotest.bool "alloc_bytes nonzero" true (counter "alloc_bytes" > 0))

(* --- Determinism: tracing must not change result documents -------------- *)

let test_trace_does_not_change_frontier () =
  let w = Mclock_workloads.Facet.t in
  let graph = Mclock_workloads.Workload.graph w in
  let sched_constraints = w.Mclock_workloads.Workload.constraints in
  let explore () =
    Mclock_exec.Pool.with_pool ~jobs:2 (fun pool ->
        Mclock_explore.Engine.explore ~pool ~seed:42 ~iterations:60
          ~max_clocks:2 ~name:"facet" ~sched_constraints graph)
  in
  let frontier r =
    Mclock_util.Json.to_string (Mclock_explore.Engine.frontier_json r)
  in
  let plain = frontier (explore ()) in
  let traced, events =
    with_trace (fun () ->
        let r = explore () in
        (frontier r, Obs.stop ()))
  in
  check Alcotest.string "frontier byte-identical under tracing" plain traced;
  check Alcotest.bool "tracing recorded the evaluations" true
    (List.exists (fun ev -> ev.Obs.ev_name = "explore.evaluate") events
    || List.exists (fun ev -> ev.Obs.ev_name = "explore.simulate") events)

(* --- Trace accounting: every simulation is one sim.run span -------------- *)

(* A smoke-scale search on a fresh store simulates every cell it
   evaluates, fresh in rung 1 and resumed from a checkpoint afterwards;
   each of those simulations must be one [sim.run] span inside its
   [explore.simulate] span. *)
let test_trace_accounts_every_simulation () =
  let w = Mclock_workloads.Facet.t in
  let dir = temp_dir () in
  let cache = Mclock_explore.Store.open_ ~dir () in
  let result, events =
    with_trace (fun () ->
        let r =
          Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
              Mclock_explore.Halving.run ~pool ~cache ~seed:42 ~iterations:120
                ~max_clocks:2 ~name:"facet"
                ~sched_constraints:w.Mclock_workloads.Workload.constraints
                (Mclock_workloads.Workload.graph w))
        in
        (r, Obs.stop ()))
  in
  rm_rf dir;
  let stats = result.Mclock_explore.Halving.stats in
  let spans name = List.filter (fun ev -> ev.Obs.ev_name = name) events in
  let total name =
    List.fold_left (fun t ev -> t +. ev.Obs.ev_dur_us) 0. (spans name)
  in
  let runs = List.length (spans "sim.run") in
  check Alcotest.bool "some simulations resumed" true
    (stats.Mclock_explore.Halving.resumed > 0);
  check Alcotest.int "one sim.run per explore.simulate"
    (List.length (spans "explore.simulate"))
    runs;
  check Alcotest.int "one sim.run per simulated cell"
    stats.Mclock_explore.Halving.simulated runs;
  if total "sim.run" > total "explore.simulate" then
    fail
      (Printf.sprintf "sim.run total %.0f us exceeds explore.simulate's %.0f us"
         (total "sim.run") (total "explore.simulate"))

let suite =
  [
    ("counter atomic across domains", `Quick, test_counter_atomic_across_domains);
    ("counter get-or-create", `Quick, test_counter_get_or_create);
    ("span nesting", `Quick, test_span_nesting);
    ("span end attrs merge", `Quick, test_span_end_attrs_merge);
    ("spans disabled are free", `Quick, test_spans_disabled_are_free);
    ("pool spans nest under submitter", `Quick, test_pool_spans_nest_under_submitter);
    ("tid is the domain id", `Quick, test_tid_is_domain_id);
    ("domain stacks independent", `Quick, test_domain_stacks_independent);
    ("event json uses codec escaper", `Quick, test_event_json_uses_codec_escaper);
    ("chrome export round-trips", `Quick, test_chrome_export_roundtrip);
    ("summary renders", `Quick, test_summary_renders);
    ("store stats parity", `Quick, test_store_stats_parity);
    ("pool registry counts tasks", `Quick, test_pool_registry_counts_tasks);
    ("tracing keeps frontier bytes", `Quick, test_trace_does_not_change_frontier);
    ("trace accounts every simulation", `Quick, test_trace_accounts_every_simulation);
  ]
