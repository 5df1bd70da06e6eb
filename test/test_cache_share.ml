(* Tests for reusing results through one shared cache directory — the
   single way results cross runs and processes.  Several store handles
   (and several processes) on one directory must see each other's
   entries and sidecars, never a half-written file, and never anything
   outside the directory; a rerun on a directory that concurrent runs
   populated must simulate nothing and reproduce their frontier byte
   for byte. *)

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
        (Printf.sprintf "mclock-test-share.%d.%d" (Unix.getpid ()) !counter)
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

let metrics_with power =
  {
    Metrics.power_mw = power;
    area = 1000.5;
    latency_steps = 4;
    energy_per_computation_pj = 12.25;
    memory_cells = 6;
    mux_inputs = 8;
    functional_ok = true;
  }

let key_of i = Printf.sprintf "%032x" i

let is_tmp name = String.length name > 0 && name.[0] = '.'

let metrics_equal a b =
  String.equal
    (Mclock_util.Json.to_string (Metrics.to_json a))
    (Mclock_util.Json.to_string (Metrics.to_json b))

let explore_facet cache =
  let w = Mclock_workloads.Facet.t in
  Mclock_exec.Pool.with_pool ~jobs:1 (fun pool ->
      Engine.explore ~pool ~cache ~seed:42 ~iterations:60 ~max_clocks:2
        ~name:"facet" ~sched_constraints:w.Mclock_workloads.Workload.constraints
        (Mclock_workloads.Workload.graph w))

let frontier r = Mclock_util.Json.to_string (Engine.frontier_json r)

(* --- Several handles, one directory ------------------------------------- *)

let test_handles_share_entries () =
  let dir = temp_dir () in
  let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
  let m = metrics_with 1.5 in
  check Alcotest.bool "b misses before a stores" true
    (Store.find b ~key:(key_of 1) = None);
  Store.store a ~key:(key_of 1) m;
  (match Store.find b ~key:(key_of 1) with
  | Some m' -> check Alcotest.bool "b reads a's entry" true (metrics_equal m m')
  | None -> fail "entry stored through one handle is invisible to another");
  rm_rf dir

let test_handles_share_checkpoints () =
  let dir = temp_dir () in
  let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
  let blob = String.init 300 (fun i -> Char.chr (i land 0xff)) in
  Store.store_checkpoint a ~key:(key_of 2) blob;
  check Alcotest.(option string) "b reads a's sidecar bytes" (Some blob)
    (Store.find_checkpoint b ~key:(key_of 2));
  check Alcotest.(option string) "no sidecar for other keys" None
    (Store.find_checkpoint b ~key:(key_of 3));
  rm_rf dir

let test_stats_are_per_handle () =
  let dir = temp_dir () in
  let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
  Store.store a ~key:(key_of 4) (metrics_with 2.);
  ignore (Store.find b ~key:(key_of 4));
  ignore (Store.find b ~key:(key_of 5));
  let sa = Store.stats a and sb = Store.stats b in
  check Alcotest.int "a stored once" 1 sa.Store.stores;
  check Alcotest.int "a looked nothing up" 0 (sa.Store.hits + sa.Store.misses);
  check Alcotest.int "b stored nothing" 0 sb.Store.stores;
  check Alcotest.int "b hit once" 1 sb.Store.hits;
  check Alcotest.int "b missed once" 1 sb.Store.misses;
  rm_rf dir

let test_corruption_heals_across_handles () =
  let dir = temp_dir () in
  let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
  let key = key_of 6 and m = metrics_with 3.25 in
  Store.store a ~key m;
  Out_channel.with_open_bin (Store.entry_path a ~key) (fun oc ->
      Out_channel.output_string oc "{\"version\": 1, \"key\": ");
  check Alcotest.bool "garbled entry is a miss for b" true
    (Store.find b ~key = None);
  Store.store b ~key m;
  (match Store.find a ~key with
  | Some m' -> check Alcotest.bool "b's rewrite heals a" true (metrics_equal m m')
  | None -> fail "rewritten entry still a miss");
  rm_rf dir

let test_gc_by_one_handle () =
  let dir = temp_dir () in
  let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
  let keys = List.init 3 (fun i -> key_of (10 + i)) in
  List.iter (fun key -> Store.store a ~key (metrics_with 1.)) keys;
  List.iter
    (fun key ->
      check Alcotest.bool "b hits before gc" true (Store.find b ~key <> None))
    keys;
  let r = Store.gc ~max_bytes:0 a in
  check Alcotest.int "a evicted everything" 3 r.Store.gc_removed_entries;
  List.iter
    (fun key ->
      check Alcotest.bool "b misses after a's gc" true (Store.find b ~key = None))
    keys;
  check Alcotest.int "b counted the misses" 3 (Store.stats b).Store.misses;
  rm_rf dir

let test_tmp_files_invisible () =
  (* A concurrent writer's in-flight temp file holds a complete entry
     but is not one until renamed: lookups and the manifest skip it. *)
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  let key = key_of 20 in
  let tmp = Filename.concat dir (Printf.sprintf ".%s.%d.tmp" key 99999) in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Store.encode_entry ~key (metrics_with 1.)));
  check Alcotest.bool "temp file is not an entry" true (Store.find s ~key = None);
  let m = Store.manifest ~rebuild:true s in
  check Alcotest.int "manifest skips temp files" 0 m.Store.m_entries;
  rm_rf dir

(* --- Hostile keys --------------------------------------------------------- *)

let hostile_keys =
  [ ""; "."; ".."; "../evil"; "/tmp/evil"; "a/b"; "abc\000"; "g123"; " abc";
    "abc\n"; "..." ]

let test_hostile_entry_keys () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  List.iter
    (fun key ->
      Store.store s ~key (metrics_with 1.);
      check Alcotest.bool (Printf.sprintf "%S misses" key) true
        (Store.find s ~key = None))
    hostile_keys;
  check Alcotest.int "every store refused" (List.length hostile_keys)
    (Store.stats s).Store.store_failures;
  check Alcotest.int "nothing written in the dir" 0
    (Array.length (Sys.readdir dir));
  check Alcotest.bool "nothing written beside it" false
    (Sys.file_exists (Filename.concat dir "../evil.json"));
  rm_rf dir

let test_hostile_checkpoint_keys () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir () in
  List.iter
    (fun key ->
      Store.store_checkpoint s ~key "blob";
      check Alcotest.(option string) (Printf.sprintf "%S misses" key) None
        (Store.find_checkpoint s ~key))
    hostile_keys;
  check Alcotest.int "every sidecar store refused" (List.length hostile_keys)
    (Store.stats s).Store.store_failures;
  check Alcotest.int "no sidecar stored" 0 (Store.stats s).Store.ckpt_stores;
  check Alcotest.int "nothing written in the dir" 0
    (Array.length (Sys.readdir dir));
  check Alcotest.bool "nothing written beside it" false
    (Sys.file_exists (Filename.concat dir "../evil.ckpt"));
  rm_rf dir

(* --- Concurrent writers and readers --------------------------------------- *)

let test_concurrent_distinct_writers () =
  let dir = temp_dir () in
  let writers = 4 and per_writer = 8 in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            let s = Store.open_ ~dir () in
            for i = 0 to per_writer - 1 do
              let n = (w * per_writer) + i in
              Store.store s ~key:(key_of n) (metrics_with (float_of_int n))
            done;
            (Store.stats s).Store.store_failures))
  in
  let failures = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check Alcotest.int "no store failed" 0 failures;
  let s = Store.open_ ~dir () in
  for n = 0 to (writers * per_writer) - 1 do
    match Store.find s ~key:(key_of n) with
    | Some m ->
        check Alcotest.bool "each writer's value intact" true
          (metrics_equal m (metrics_with (float_of_int n)))
    | None -> fail (Printf.sprintf "entry %d lost" n)
  done;
  check Alcotest.int "manifest counts every entry" (writers * per_writer)
    (Store.manifest ~rebuild:true s).Store.m_entries;
  check Alcotest.bool "no temp file left" false
    (Array.exists is_tmp (Sys.readdir dir));
  rm_rf dir

(* Two domains of one process storing the same key at once: each
   write goes through its own temp file, so neither write fails, no
   temp file is left behind and the entry read back is one of the two
   values, whole. *)
let test_same_key_two_domains () =
  let dir = temp_dir () in
  let key = key_of 40 in
  let m0 = metrics_with 3.5 and m1 = metrics_with 44444.25 in
  let rounds = 200 in
  let start = Atomic.make 0 in
  let domains =
    List.map
      (fun m ->
        Domain.spawn (fun () ->
            let s = Store.open_ ~dir () in
            Atomic.incr start;
            while Atomic.get start < 2 do
              Domain.cpu_relax ()
            done;
            for _ = 1 to rounds do
              Store.store s ~key m
            done;
            (Store.stats s).Store.store_failures))
      [ m0; m1 ]
  in
  let failures = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check Alcotest.int "no store failed" 0 failures;
  (match Store.find (Store.open_ ~dir ()) ~key with
  | Some m ->
      check Alcotest.bool "entry is one writer's value, whole" true
        (metrics_equal m m0 || metrics_equal m m1)
  | None -> fail "same-key entry lost");
  check Alcotest.bool "no temp file left" false
    (Array.exists is_tmp (Sys.readdir dir));
  rm_rf dir

let test_reader_never_sees_partial_entry () =
  (* One writer flips a key between two values; a reader on another
     handle must always get one of them whole — never a miss, never a
     torn mix — because every write is temp file plus rename. *)
  let dir = temp_dir () in
  let key = key_of 30 in
  let m0 = metrics_with 1.25 and m1 = metrics_with 987654.5 in
  let writer = Store.open_ ~dir () in
  Store.store writer ~key m0;
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Store.store writer ~key (if !i land 1 = 0 then m1 else m0);
          incr i
        done)
  in
  let reader = Store.open_ ~dir () in
  let bad = ref 0 in
  for _ = 1 to 500 do
    match Store.find reader ~key with
    | Some m when metrics_equal m m0 || metrics_equal m m1 -> ()
    | Some _ | None -> incr bad
  done;
  Atomic.set stop true;
  Domain.join d;
  check Alcotest.int "every read whole" 0 !bad;
  check Alcotest.int "no write failed" 0
    (Store.stats writer).Store.store_failures;
  rm_rf dir

(* --- Concurrent processes, one directory ---------------------------------- *)

(* The child processes are this test binary re-executed with these two
   variables set: [child_main], called before the suites run, explores
   on the shared directory, writes the frontier and exits.  (Forking is
   not an option: the runtime forbids it once a domain was created.) *)
let child_dir_var = "MCLOCK_TEST_SHARE_DIR"
let child_out_var = "MCLOCK_TEST_SHARE_OUT"

let child_main () =
  match (Sys.getenv_opt child_dir_var, Sys.getenv_opt child_out_var) with
  | Some dir, Some path ->
      let r = explore_facet (Store.open_ ~dir ()) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (frontier r));
      exit 0
  | _ -> ()

(* Two processes explore the same grid at once on one directory; a
   third run on it must simulate nothing and match both byte for
   byte. *)
let test_concurrent_processes_share_dir () =
  let dir = temp_dir () and out = temp_dir () in
  let spawn i =
    let path = Filename.concat out (Printf.sprintf "frontier-%d" i) in
    let env =
      Array.append (Unix.environment ())
        [| child_dir_var ^ "=" ^ dir; child_out_var ^ "=" ^ path |]
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          Unix.create_process_env Sys.executable_name
            [| Sys.executable_name |]
            env Unix.stdin null Unix.stderr)
    in
    (pid, path)
  in
  let children = List.init 2 spawn in
  let frontiers =
    List.map
      (fun (pid, path) ->
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> fail "concurrent exploration failed");
        In_channel.with_open_bin path In_channel.input_all)
      children
  in
  let third = explore_facet (Store.open_ ~dir ()) in
  check Alcotest.int "third run simulated nothing" 0
    third.Engine.stats.Engine.simulated;
  List.iter
    (fun f ->
      check Alcotest.string "frontier byte-identical" f (frontier third))
    frontiers;
  check Alcotest.bool "no temp file left" false
    (Array.exists is_tmp (Sys.readdir dir));
  rm_rf dir;
  rm_rf out

let suite =
  [
    ("handles share entries", `Quick, test_handles_share_entries);
    ("handles share checkpoints", `Quick, test_handles_share_checkpoints);
    ("stats are per handle", `Quick, test_stats_are_per_handle);
    ("corruption heals across handles", `Quick, test_corruption_heals_across_handles);
    ("gc by one handle", `Quick, test_gc_by_one_handle);
    ("temp files invisible", `Quick, test_tmp_files_invisible);
    ("hostile entry keys", `Quick, test_hostile_entry_keys);
    ("hostile checkpoint keys", `Quick, test_hostile_checkpoint_keys);
    ("concurrent distinct writers", `Quick, test_concurrent_distinct_writers);
    ("reader never sees partial entry", `Quick, test_reader_never_sees_partial_entry);
    ("concurrent processes share dir", `Quick, test_concurrent_processes_share_dir);
    ("same key, two domains", `Quick, test_same_key_two_domains);
  ]
