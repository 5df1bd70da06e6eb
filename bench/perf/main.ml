(* Repository benchmark: end-to-end and per-layer cost of the runs a user
   of mclock waits on — exploration cold and warm, successive-halving
   search, and long paper-table evaluation.  See README.md.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--trace-file F] [--result F]
     main.exe all [--seed N] [--seconds S] [--trace F] [--result F]
     main.exe compare DIR_A DIR_B
     main.exe smoke [--benchmark BENCHMARK.json] *)

module Json = Mclock_lint.Json

let work_root = Filename.concat "bench" (Filename.concat "perf" "_work")
let default_seconds = 15.

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let usage () =
  die
    "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file F] [--result F]\n\
    \       main.exe all [--seed N] [--seconds S] [--trace F] [--result F]\n\
    \       main.exe compare DIR_A DIR_B\n\
    \       main.exe smoke [--benchmark FILE]"

let rec flags = function
  | [] -> []
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      (String.sub k 2 (String.length k - 2), v) :: flags rest
  | _ -> usage ()

let flag fs k ~default ~parse =
  match List.assoc_opt k fs with
  | None -> default
  | Some v -> ( match parse v with Some x -> x | None -> die "--%s: bad value %S" k v)

let known fs ks = List.iter (fun (k, _) -> if not (List.mem k ks) then usage ()) fs
let seed_of fs = flag fs "seed" ~default:42 ~parse:int_of_string_opt

let seconds_of fs =
  flag fs "seconds" ~default:default_seconds ~parse:(fun s ->
      Option.bind (float_of_string_opt s) (fun x -> if x >= 0. then Some x else None))

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let write_result path json =
  Measure.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty json ^ "\n"))

(* --- One workload --------------------------------------------------------- *)

let single fs =
  known fs [ "workload"; "seed"; "seconds"; "trace"; "trace-file"; "result" ];
  let kind =
    match Option.bind (List.assoc_opt "workload" fs) Scenario.of_name with
    | Some k -> k
    | None ->
        die "--workload: one of %s"
          (String.concat ", " (List.map Scenario.name Scenario.kinds))
  in
  let trace =
    flag fs "trace" ~default:false ~parse:(function
      | "0" -> Some false
      | "1" -> Some true
      | _ -> None)
  in
  let trace_file =
    if not trace then None
    else
      Some
        (flag fs "trace-file"
           ~default:(Filename.concat work_root (Scenario.name kind ^ ".trace.json"))
           ~parse:Option.some)
  in
  let r =
    Runner.run ~scale:Scenario.full ~kind ~seed:(seed_of fs) ~seconds:(seconds_of fs)
      ~trace_file ~work_root
  in
  Option.iter (fun path -> write_result path (Runner.to_json r)) (List.assoc_opt "result" fs);
  Runner.print r;
  if not (Runner.correct r) then exit 1

(* --- all: one process per workload ---------------------------------------- *)

let child args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let all fs =
  known fs [ "seed"; "seconds"; "trace"; "result" ];
  let seed = string_of_int (seed_of fs) in
  let seconds = Printf.sprintf "%g" (seconds_of fs) in
  let tmp = Filename.concat work_root (Printf.sprintf "all-%d" (Unix.getpid ())) in
  Measure.mkdir_p tmp;
  Fun.protect ~finally:(fun () -> Measure.rm_rf tmp) @@ fun () ->
  let run ~traced kind =
    let w = Scenario.name kind in
    let result = Filename.concat tmp (w ^ if traced then ".traced.json" else ".json") in
    Printf.printf "== %s%s\n%!" w (if traced then " (traced)" else "");
    let trace =
      match (traced, List.assoc_opt "trace" fs) with
      | true, Some f ->
          [ "--trace"; "1"; "--trace-file"; Filename.remove_extension f ^ "." ^ w ^ ".json" ]
      | _ -> [ "--trace"; "0" ]
    in
    let ok =
      child
        ([ "--workload"; w; "--seed"; seed; "--seconds"; seconds; "--result"; result ]
        @ trace)
    in
    (ok, if Sys.file_exists result then Some (read_json result) else None)
  in
  (* Bound in turn: the operands of [@] are evaluated right to left. *)
  let untraced = List.map (run ~traced:false) Scenario.kinds in
  let traced =
    if List.mem_assoc "trace" fs then List.map (run ~traced:true) Scenario.kinds else []
  in
  let runs = untraced @ traced in
  Option.iter
    (fun path ->
      write_result path (Json.Obj [ ("runs", Json.List (List.filter_map snd runs)) ]))
    (List.assoc_opt "result" fs);
  if not (List.for_all fst runs) then exit 1

(* --- compare: two sets of result files ------------------------------------ *)

let member_exn k j =
  match Json.member k j with Some v -> v | None -> die "missing %S" k

let number = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> die "expected a number"

(* Untraced runs in a directory's result files (single runs or [all]'s
   combined files): (workload, metrics object) pairs. *)
let load_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.concat_map (fun f ->
         let j = read_json (Filename.concat dir f) in
         match Json.member "runs" j with Some (Json.List rs) -> rs | _ -> [ j ])
  |> List.filter_map (fun r ->
         match (Json.member "trace" r, Json.member "workload" r) with
         | Some (Json.Bool false), Some (Json.String w) ->
             Some (w, member_exn "metrics" r)
         | _ -> None)

(* setup_s may move by its bound or by this many seconds, whichever is
   more: the cheap workloads set up in tens of milliseconds, where a few
   milliseconds of host noise are already a large share. *)
let setup_floor_s = 0.25

let compare_dirs a b =
  let bench = read_json "BENCHMARK.json" in
  let e2e =
    match member_exn "end_to_end" bench with Json.List l -> l | _ -> die "end_to_end"
  in
  let runs_a = load_runs a and runs_b = load_runs b in
  let values runs w m =
    List.filter_map
      (fun (w', metrics) ->
        if w' <> w then None
        else Option.map (fun v -> number (member_exn "value" v)) (Json.member m metrics))
      runs
  in
  let table =
    Mclock_util.Table.create ~title:(Printf.sprintf "%s vs %s" a b)
      ~header:
        [ "workload"; "metric"; "A median"; "A q1..q3"; "B median"; "B q1..q3"; "change"; "bound"; "verdict" ]
      ~aligns:Mclock_util.Table.[ Left; Left; Right; Right; Right; Right; Right; Right; Left ]
      ()
  in
  let flagged = ref 0 in
  List.iter
    (fun kind ->
      let w = Scenario.name kind in
      List.iter
        (fun m ->
          let name = match member_exn "name" m with Json.String s -> s | _ -> die "name" in
          let bound = number (member_exn "bound" m) in
          let lower = member_exn "better" m = Json.String "lower" in
          let va = values runs_a w name and vb = values runs_b w name in
          if List.length va < 5 || List.length vb < 5 then
            die "%s/%s: need at least 5 runs on each side (have %d and %d)" w name
              (List.length va) (List.length vb);
          let ma = Measure.median va and mb = Measure.median vb in
          let qa1, qa3 = Measure.quartiles va and qb1, qb3 = Measure.quartiles vb in
          let change = (mb -. ma) /. ma in
          let allowed =
            if name = "setup_s" then Float.max (bound *. ma) setup_floor_s else bound *. ma
          in
          let verdict =
            if qa3 -. qa1 > allowed then "unresolved"
            else if (if lower then mb -. ma else ma -. mb) > allowed then "regressed"
            else "ok"
          in
          if verdict <> "ok" then incr flagged;
          Mclock_util.Table.add_row table
            [
              w;
              name;
              Printf.sprintf "%.4g" ma;
              Printf.sprintf "%.4g..%.4g" qa1 qa3;
              Printf.sprintf "%.4g" mb;
              Printf.sprintf "%.4g..%.4g" qb1 qb3;
              Printf.sprintf "%+.1f%%" (100. *. change);
              (if name = "setup_s" then Printf.sprintf "%.0f%%, %gs" (100. *. bound) setup_floor_s
               else Printf.sprintf "%.0f%%" (100. *. bound));
              verdict;
            ])
        e2e)
    Scenario.kinds;
  print_string (Mclock_util.Table.render table);
  if !flagged > 0 then exit 1

(* --- smoke: every metric name and unit at a tiny scale --------------------- *)

let smoke fs =
  known fs [ "benchmark" ];
  let bench = read_json (flag fs "benchmark" ~default:"BENCHMARK.json" ~parse:Option.some) in
  let declared key =
    match member_exn key bench with
    | Json.List l ->
        List.map
          (fun m ->
            match (member_exn "name" m, member_exn "unit" m) with
            | Json.String n, Json.String u -> (n, u)
            | _ -> die "%s: bad metric" key)
          l
    | _ -> die "%s: not a list" key
  in
  let ok = ref true in
  List.iter
    (fun kind ->
      List.iter
        (fun (key, trace_file) ->
          let r =
            Runner.run ~scale:Scenario.smoke ~kind ~seed:42 ~seconds:0. ~trace_file
              ~work_root
          in
          let problems =
            List.map (fun w -> "wrong result: " ^ w) r.Runner.wrong
            @ (if r.Runner.failed > 0 then
                 [ Printf.sprintf "%d failed operations" r.Runner.failed ]
               else [])
            @ List.filter_map
                (fun (n, u) ->
                  if List.exists (fun (n', _, u') -> n = n' && u = u') r.Runner.metrics
                  then None
                  else Some (Printf.sprintf "%s [%s] not printed" n u))
                (declared key)
          in
          if problems <> [] then ok := false;
          Printf.printf "smoke %s %s: %s\n" r.Runner.workload key
            (if problems = [] then "ok" else String.concat "; " problems))
        [
          ("end_to_end", None);
          ( "per_layer",
            Some (Filename.concat work_root (Scenario.name kind ^ ".smoke.trace.json")) );
        ])
    Scenario.kinds;
  if not !ok then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "all" :: rest -> all (flags rest)
  | [ "compare"; a; b ] -> compare_dirs a b
  | "smoke" :: rest -> smoke (flags rest)
  | rest -> single (flags rest)
