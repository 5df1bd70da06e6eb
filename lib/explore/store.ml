(* On-disk layout: <dir>/<digest>.json, one entry per evaluated cell:

     { "version": 1, "key": "<digest>", "metrics": { ... } }

   Failure philosophy: the cache is an accelerator, not a source of
   truth.  Every read validates version and key and fully decodes the
   metrics before anything is returned; any irregularity degrades to a
   miss.  Writes go through a temp file and a rename so a concurrent
   or killed run can leave behind at worst a stale temp file, never a
   half-written entry under a valid key.  Several processes may share
   one directory: each writes under its own temp name and renames, so
   concurrent runs at worst both evaluate a cell and write identical
   bytes. *)

let version = 1

(* All counters live in a per-store `Mclock_obs.Registry` (name
   ["store"]); the legacy {!stats} record is derived from it on read,
   so `cache stats`, `--stats-json` and the `--trace-summary` counter
   table all observe the same cells. *)
type t = {
  dir : string;
  obs : Mclock_obs.Registry.t;
  c_hits : Mclock_obs.Registry.counter;
  c_misses : Mclock_obs.Registry.counter;
  c_stores : Mclock_obs.Registry.counter;
  c_store_failures : Mclock_obs.Registry.counter;
  c_swept_tmp : Mclock_obs.Registry.counter;
  c_ckpt_hits : Mclock_obs.Registry.counter;
  c_ckpt_misses : Mclock_obs.Registry.counter;
  c_ckpt_stores : Mclock_obs.Registry.counter;
}

let dir t = t.dir
let registry t = t.obs
let bump c = Mclock_obs.Registry.incr c

(* A run killed between temp-write and rename leaves a
   ".<key>.<pid>.<domain>.tmp"
   orphan behind.  They are invisible to lookups but accumulate
   forever, so opening the store sweeps them — age-gated, because a
   young temp file may belong to a live concurrent writer about to
   rename it.  Every failure is tolerated: sweeping is hygiene, not
   correctness. *)
let is_tmp_name name =
  String.length name > 5
  && name.[0] = '.'
  && Filename.check_suffix name ".tmp"

let sweep_tmp ~max_age dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun swept name ->
          if not (is_tmp_name name) then swept
          else
            let path = Filename.concat dir name in
            match Unix.stat path with
            | exception Unix.Unix_error (_, _, _) -> swept
            | st ->
                if
                  st.Unix.st_kind = Unix.S_REG
                  && now -. st.Unix.st_mtime > max_age
                then
                  match Sys.remove path with
                  | () -> swept + 1
                  | exception Sys_error _ -> swept
                else swept)
        0 names

let open_ ?(tmp_max_age = 3600.) ~dir () =
  (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
   with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  let swept = sweep_tmp ~max_age:tmp_max_age dir in
  let obs = Mclock_obs.Registry.create ~name:"store" () in
  let counter = Mclock_obs.Registry.counter obs in
  let t =
    {
      dir;
      obs;
      c_hits = counter "hits";
      c_misses = counter "misses";
      c_stores = counter "stores";
      c_store_failures = counter "store_failures";
      c_swept_tmp = counter "swept_tmp";
      c_ckpt_hits = counter "ckpt_hits";
      c_ckpt_misses = counter "ckpt_misses";
      c_ckpt_stores = counter "ckpt_stores";
    }
  in
  Mclock_obs.Registry.incr ~by:swept t.c_swept_tmp;
  t

(* Keys come from Cachekey.digest (hex), but defend against a caller
   handing over something path-hostile anyway. *)
let valid_key key =
  String.length key > 0
  && String.for_all
       (function 'a' .. 'f' | 'A' .. 'F' | '0' .. '9' -> true | _ -> false)
       key

let entry_path t ~key = Filename.concat t.dir (key ^ ".json")

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let r =
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception (Sys_error _ | End_of_file) -> None
      in
      close_in_noerr ic;
      r

let decode_entry ~key text =
  match Mclock_util.Json.parse text with
  | Error _ -> None
  | Ok j -> (
      match
        ( Mclock_util.Json.member "version" j,
          Mclock_util.Json.member "key" j,
          Mclock_util.Json.member "metrics" j )
      with
      | Some (Mclock_util.Json.Int v), Some (Mclock_util.Json.String k), Some m
        when v = version && String.equal k key -> (
          match Metrics.of_json m with Ok metrics -> Some metrics | Error _ -> None)
      | _ -> None)

let encode_entry ~key metrics =
  let entry =
    Mclock_util.Json.Obj
      [
        ("version", Mclock_util.Json.Int version);
        ("key", Mclock_util.Json.String key);
        ("metrics", Metrics.to_json metrics);
      ]
  in
  Mclock_util.Json.to_string_pretty entry ^ "\n"

(* Atomic write: temp file in the same directory, then rename.  The
   temp name embeds the key, the pid and the domain id, so concurrent
   writers never collide — across processes or across the domains of
   one process — and the opening sweep can age out orphans. *)
let write_atomic t ~key ~dest text =
  match
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf ".%s.%d.%d.tmp" key (Unix.getpid ())
           (Domain.self () :> int))
    in
    let oc = open_out_bin tmp in
    (match output_string oc text with
    | () -> close_out oc
    | exception e ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e);
    Sys.rename tmp dest
  with
  | () -> true
  | exception (Sys_error _ | Unix.Unix_error (_, _, _)) -> false

let find t ~key =
  let sp =
    Mclock_obs.Obs.begin_span ~cat:"store" ~attrs:[ ("key", key) ]
      ~name:"store.find" ()
  in
  let result =
    if not (valid_key key) then None
    else
      match read_file (entry_path t ~key) with
      | None -> None
      | Some text -> decode_entry ~key text
  in
  (match result with
  | Some _ -> bump t.c_hits
  | None -> bump t.c_misses);
  Mclock_obs.Obs.end_span sp
    ~attrs:
      [ ("result", match result with Some _ -> "hit" | None -> "miss") ];
  result

let store t ~key metrics =
  Mclock_obs.Obs.with_span ~cat:"store" ~attrs:[ ("key", key) ]
    ~name:"store.store" (fun () ->
      if
        valid_key key
        && write_atomic t ~key ~dest:(entry_path t ~key)
             (encode_entry ~key metrics)
      then bump t.c_stores
      else bump t.c_store_failures)

(* --- Checkpoint sidecars ----------------------------------------------- *)

(* A cell's simulation checkpoint lives next to its metrics entry as
   <key>.ckpt.  The store treats the blob as opaque sealed bytes: the
   consumer ([Engine.evaluate_at]) decodes it and degrades any
   corruption to a miss, mirroring the JSON entries' philosophy.
   Because the iteration count is part of the cache key, a checkpoint
   sidecar is always a checkpoint *at* its key's fidelity. *)

let checkpoint_path t ~key = Filename.concat t.dir (key ^ ".ckpt")

let find_checkpoint t ~key =
  let sp =
    Mclock_obs.Obs.begin_span ~cat:"store" ~attrs:[ ("key", key) ]
      ~name:"store.find_ckpt" ()
  in
  let result =
    if not (valid_key key) then None else read_file (checkpoint_path t ~key)
  in
  (match result with
  | Some _ -> bump t.c_ckpt_hits
  | None -> bump t.c_ckpt_misses);
  Mclock_obs.Obs.end_span sp
    ~attrs:
      [ ("result", match result with Some _ -> "hit" | None -> "miss") ];
  result

let store_checkpoint t ~key blob =
  Mclock_obs.Obs.with_span ~cat:"store" ~attrs:[ ("key", key) ]
    ~name:"store.store_ckpt" (fun () ->
      if
        valid_key key
        && write_atomic t ~key ~dest:(checkpoint_path t ~key) blob
      then bump t.c_ckpt_stores
      else bump t.c_store_failures)

(* --- Manifest and garbage collection ----------------------------------- *)

let manifest_name = "MANIFEST.json"
let manifest_path t = Filename.concat t.dir manifest_name

(* An entry file is a metrics .json or a checkpoint .ckpt — not the
   manifest, not a temp file. *)
let is_entry_name name =
  (not (is_tmp_name name))
  && (not (String.equal name manifest_name))
  && (Filename.check_suffix name ".json" || Filename.check_suffix name ".ckpt")

(* Stat every entry file: (path, mtime, bytes).  Sorted by (mtime,
   name) so eviction order is deterministic under equal timestamps. *)
let scan_entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if not (is_entry_name name) then None
             else
               let path = Filename.concat t.dir name in
               match Unix.stat path with
               | exception Unix.Unix_error (_, _, _) -> None
               | st when st.Unix.st_kind = Unix.S_REG ->
                   Some (name, st.Unix.st_mtime, st.Unix.st_size)
               | _ -> None)
      |> List.sort (fun (n1, m1, _) (n2, m2, _) ->
             match Float.compare m1 m2 with
             | 0 -> String.compare n1 n2
             | c -> c)

let write_manifest t ~entries ~bytes =
  let j =
    Mclock_util.Json.Obj
      [
        ("version", Mclock_util.Json.Int version);
        ("entries", Mclock_util.Json.Int entries);
        ("bytes", Mclock_util.Json.Int bytes);
      ]
  in
  ignore
    (write_atomic t ~key:"manifest" ~dest:(manifest_path t)
       (Mclock_util.Json.to_string_pretty j ^ "\n"))

type manifest = { m_entries : int; m_bytes : int; m_rebuilt : bool }

let rebuild_manifest t =
  let files = scan_entries t in
  let entries = List.length files in
  let bytes = List.fold_left (fun acc (_, _, b) -> acc + b) 0 files in
  write_manifest t ~entries ~bytes;
  { m_entries = entries; m_bytes = bytes; m_rebuilt = true }

let manifest ?(rebuild = false) t =
  if rebuild then rebuild_manifest t
  else
    let cached =
      match read_file (manifest_path t) with
      | None -> None
      | Some text -> (
          match Mclock_util.Json.parse text with
          | Error _ -> None
          | Ok j -> (
              match
                ( Mclock_util.Json.member "version" j,
                  Mclock_util.Json.member "entries" j,
                  Mclock_util.Json.member "bytes" j )
              with
              | ( Some (Mclock_util.Json.Int v),
                  Some (Mclock_util.Json.Int entries),
                  Some (Mclock_util.Json.Int bytes) )
                when v = version && entries >= 0 && bytes >= 0 ->
                  Some { m_entries = entries; m_bytes = bytes; m_rebuilt = false }
              | _ -> None))
    in
    match cached with Some m -> m | None -> rebuild_manifest t

type gc_result = {
  gc_removed_entries : int;
  gc_removed_bytes : int;
  gc_remaining_entries : int;
  gc_remaining_bytes : int;
  gc_oldest_removed : float option;
  gc_newest_removed : float option;
}

(* Age pass first (drop entries older than [max_age] seconds), then a
   size pass evicting oldest-mtime-first until the store fits in
   [max_bytes].  Metrics entries and checkpoint sidecars are
   first-class citizens of the same budget — a checkpoint is just a
   bigger, more valuable cache entry.  Every removal failure is
   tolerated (the entry simply still counts as remaining), and the
   manifest is rewritten to the post-GC totals.

   A dry run takes every removal decision identically but deletes
   nothing and leaves the manifest alone, so the report predicts
   exactly what the real pass would do (modulo entries whose real
   removal would fail). *)
let gc ?max_age ?max_bytes ?(dry_run = false) t =
  Mclock_obs.Obs.with_span ~cat:"store"
    ~attrs:[ ("dry_run", string_of_bool dry_run) ]
    ~name:"store.gc"
  @@ fun () ->
  let files = scan_entries t in
  let now = Unix.gettimeofday () in
  let expired (_, mtime, _) =
    match max_age with Some a -> now -. mtime > a | None -> false
  in
  let removed_span = ref None in
  let note_removed (_, mtime, _) =
    removed_span :=
      Some
        (match !removed_span with
        | None -> (mtime, mtime)
        | Some (lo, hi) -> (Float.min lo mtime, Float.max hi mtime))
  in
  let remove_ok ((name, _, _) as f) =
    let ok =
      dry_run
      ||
      match Sys.remove (Filename.concat t.dir name) with
      | () -> true
      | exception Sys_error _ -> false
    in
    if ok then note_removed f;
    ok
  in
  (* Age pass: a failed removal keeps the entry in the survivor set. *)
  let survivors_rev, removed, removed_bytes =
    List.fold_left
      (fun (kept, r, rb) ((_, _, bytes) as f) ->
        if expired f && remove_ok f then (kept, r + 1, rb + bytes)
        else (f :: kept, r, rb))
      ([], 0, 0) files
  in
  let survivors = List.rev survivors_rev in
  let total = List.fold_left (fun a (_, _, b) -> a + b) 0 survivors in
  let removed, removed_bytes, remaining, remaining_bytes =
    match max_bytes with
    | None -> (removed, removed_bytes, List.length survivors, total)
    | Some budget ->
        let rec evict files total kept (removed, removed_bytes) =
          match files with
          | ((_, _, bytes) as f) :: rest when total > budget ->
              if remove_ok f then
                evict rest (total - bytes) kept
                  (removed + 1, removed_bytes + bytes)
              else evict rest total (f :: kept) (removed, removed_bytes)
          | _ ->
              let remaining = List.rev_append kept files in
              ( removed,
                removed_bytes,
                List.length remaining,
                List.fold_left (fun a (_, _, b) -> a + b) 0 remaining )
        in
        evict survivors total [] (removed, removed_bytes)
  in
  if not dry_run then write_manifest t ~entries:remaining ~bytes:remaining_bytes;
  {
    gc_removed_entries = removed;
    gc_removed_bytes = removed_bytes;
    gc_remaining_entries = remaining;
    gc_remaining_bytes = remaining_bytes;
    gc_oldest_removed = Option.map fst !removed_span;
    gc_newest_removed = Option.map snd !removed_span;
  }

type stats = {
  hits : int;
  misses : int;
  stores : int;
  store_failures : int;
  swept_tmp : int;
  ckpt_hits : int;
  ckpt_misses : int;
  ckpt_stores : int;
}

(* Derived from the registry, so the record and the counter table can
   never disagree (parity-tested in test_obs.ml). *)
let stats (t : t) : stats =
  let v = Mclock_obs.Registry.value in
  {
    hits = v t.c_hits;
    misses = v t.c_misses;
    stores = v t.c_stores;
    store_failures = v t.c_store_failures;
    swept_tmp = v t.c_swept_tmp;
    ckpt_hits = v t.c_ckpt_hits;
    ckpt_misses = v t.c_ckpt_misses;
    ckpt_stores = v t.c_ckpt_stores;
  }

let reset_stats (t : t) = Mclock_obs.Registry.reset t.obs
