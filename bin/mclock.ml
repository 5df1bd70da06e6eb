(* mclock — multi-clock RTL power-management synthesis CLI.

   Subcommands:
     list       bundled workloads
     show       print a behaviour, its schedule and lifetime table
     synth      synthesize one design, report power/area, emit artifacts
     lint       static analysis (MC0xx/MC1xx rules) of a synthesized design
     table      the paper's five-design comparison table for a workload
     waves      ASCII waveforms of an n-phase clocking scheme
     sweep      clock-count sweep for a workload
     explore    exhaustive design-space exploration (Pareto frontier)
     search     successive-halving multi-fidelity search (scalarized best)
     estimate   simulation-free static power analysis

   Behaviours come from the bundled catalog (--workload) or a text-format
   DFG file (--file); unscheduled files are scheduled with the chosen
   scheduler.

   Every subcommand body returns its exit code (see [exits]); a user
   error raises [User_error], which the entry point prints once the
   body's finalizers (the trace flush included) have run. *)

open Cmdliner

let tech = Mclock_tech.Cmos08.t

(* --- User errors and exit codes ------------------------------------------- *)

exception User_error of string

let user_error fmt = Printf.ksprintf (fun msg -> raise (User_error msg)) fmt

let or_user_error = function Ok v -> v | Error msg -> raise (User_error msg)

let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info 1
        ~doc:"on a user error (a bad option value, an unreadable input or \
              an unwritable output), and from $(b,lint) when an error \
              diagnostic remains.";
      info 2
        ~doc:"on a functional failure: a simulated design disagrees with \
              its golden model ($(b,synth), $(b,table), $(b,sweep), \
              $(b,explore)), or $(b,search) finds no winner.";
      info 3
        ~doc:"from $(b,estimate --compare) when the simulation exceeds a \
              certified static bound (an unsound static estimate).";
      info cli_error ~doc:"on command line parsing errors.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

(* Uniform validation of count-like options: one converter, so every
   subcommand rejects a value below [min] the same way ("mclock: --NAME
   must be >= MIN (got N)", exit 1), while the command line is read.  A
   zero count would otherwise hang a worker pool or raise deep inside a
   library as an internal error. *)
let at_least ~min what =
  let parse s =
    Result.map
      (fun n ->
        if n < min then user_error "%s must be >= %d (got %d)" what min n;
        n)
      (Arg.conv_parser Arg.int s)
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Counts: clocks, computations, cycles, samples, jobs. *)
let count what = at_least ~min:1 what

(* Exit 2 when any evaluated design disagrees with its golden model. *)
let functional_exit reports =
  if List.for_all (fun r -> r.Mclock_power.Report.functional_ok) reports then 0
  else 2

(* --- Behaviour loading --------------------------------------------------- *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> raise (User_error msg)

type input = { graph : Mclock_dfg.Graph.t; schedule : Mclock_sched.Schedule.t }

(* A file whose first meaningful line starts with 'behavior' (or
   'behaviour') is in the behaviour description language; anything
   else is the DFG format. *)
let is_behaviour text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.find_opt (fun l -> l <> "" && l.[0] <> '#')
  |> Option.fold ~none:false ~some:(fun l ->
         String.starts_with ~prefix:"behavior" l
         || String.starts_with ~prefix:"behaviou" l)

let load ~workload ~file ~scheduler =
  let schedule graph = function
    | `Asap -> Mclock_sched.Asap.run graph
    | `Alap -> Mclock_sched.Alap.run graph
    | `Annotated | `Fds -> Mclock_sched.Force_directed.run graph
  in
  match (workload, file) with
  | Some name, None -> (
      match Mclock_workloads.Catalog.find name with
      | Some w ->
          {
            graph = Mclock_workloads.Workload.graph w;
            schedule = Mclock_workloads.Workload.schedule w;
          }
      | None -> user_error "unknown workload %S (try: mclock list)" name)
  | None, Some path -> (
      let text = read_file path in
      let at line message = user_error "%s:%d: %s" path line message in
      if is_behaviour text then
        (* Behaviour files carry no step annotations; [`Annotated]
           defaults to force-directed scheduling. *)
        match Mclock_lang.Compile.compile_string text with
        | graph -> { graph; schedule = schedule graph scheduler }
        | exception
            ( Mclock_lang.Lexer.Error { line; message }
            | Mclock_lang.Parser.Error { line; message }
            | Mclock_lang.Compile.Error { line; message } ) ->
            at line message
        | exception Mclock_dfg.Graph.Invalid message ->
            user_error "%s: %s" path message
      else
        match Mclock_dfg.Parse.parse_string text with
        | exception Mclock_dfg.Parse.Error { line; message } -> at line message
        | { Mclock_dfg.Parse.graph; steps } -> (
            match (steps, scheduler) with
            | _ :: _, `Annotated -> (
                try { graph; schedule = Mclock_sched.Schedule.create graph steps }
                with Mclock_sched.Schedule.Invalid m -> raise (User_error m))
            | [], `Annotated ->
                user_error "file has no @step annotations; pick --scheduler"
            | _, s -> { graph; schedule = schedule graph s }))
  | Some _, Some _ -> user_error "--workload and --file are mutually exclusive"
  | None, None -> user_error "need --workload NAME or --file PATH"

(* The name a design is reported under: the workload's, else the file's
   base name. *)
let design_name ~workload ~file =
  match (workload, file) with
  | Some n, _ -> n
  | _, Some p -> Filename.remove_extension (Filename.basename p)
  | None, None -> "design"

(* --- Common options --------------------------------------------------------- *)

let workload_arg =
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
         ~doc:"Bundled workload name (see $(b,mclock list)).")

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"PATH"
         ~doc:"Text-format DFG file (with optional @step annotations).")

let scheduler_arg =
  let kind =
    Arg.enum
      [ ("annotated", `Annotated); ("asap", `Asap); ("alap", `Alap); ("fds", `Fds) ]
  in
  Arg.(value & opt kind `Annotated & info [ "scheduler" ] ~docv:"KIND"
         ~doc:"Scheduler for unannotated files: annotated, asap, alap or fds.")

let clocks_arg =
  Arg.(value & opt (count "--clocks") 2 & info [ "n"; "clocks" ] ~docv:"N"
         ~doc:"Number of non-overlapping clocks (mc/split methods).")

(* --method and --clocks together: the allocation flow to run. *)
let method_arg =
  let kind = Arg.enum [ ("conv", `Conv); ("gated", `Gated); ("mc", `Mc); ("split", `Split) ] in
  let method_of kind n =
    match kind with
    | `Conv -> Mclock_core.Flow.Conventional_non_gated
    | `Gated -> Mclock_core.Flow.Conventional_gated
    | `Mc -> Mclock_core.Flow.Integrated n
    | `Split -> Mclock_core.Flow.Split n
  in
  Term.(
    const method_of
    $ Arg.(value & opt kind `Mc & info [ "m"; "method" ] ~docv:"METHOD"
             ~doc:"Allocation method: conv, gated, mc (integrated) or split.")
    $ clocks_arg)

(* --workload/--file/--scheduler: the design's name and its loader,
   called inside the subcommand body so a load error is traced. *)
let source_arg =
  let source workload file scheduler () =
    (design_name ~workload ~file, load ~workload ~file ~scheduler)
  in
  Term.(const source $ workload_arg $ file_arg $ scheduler_arg)

let iterations_arg =
  Arg.(value & opt (count "--iterations") 500 & info [ "iterations" ] ~docv:"N"
         ~doc:"Number of simulated computations for power estimation.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Stimulus seed.")

let jobs_arg =
  Arg.(value & opt (some (count "--jobs")) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for parallel evaluation. Defaults to the \
               $(b,MCLOCK_JOBS) environment variable, else one less than \
               the core count. Results are byte-identical for any value.")

let resolve_jobs = function
  | Some j -> j
  | None -> (
      try Mclock_exec.Pool.default_jobs ()
      with Invalid_argument msg -> raise (User_error msg))

let json_flag =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the result as machine-readable JSON instead of text.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Write a Chrome trace-event JSON file of this run's spans \
               (compile/simulate, per-cell evaluation, cache operations) \
               to $(docv); load it in Perfetto or chrome://tracing. \
               Tracing never touches stdout or the result documents — \
               they stay byte-identical with and without it.")

let trace_summary_arg =
  Arg.(value & flag & info [ "trace-summary" ]
         ~doc:"Print a per-span timing table and all non-zero counters \
               to stderr when the run finishes.")

(* Every file the CLI writes goes through here, then "wrote PATH" on
   [ppf].  An unwritable path is a user error ("mclock: PATH: reason",
   exit 1), not an internal one.  The explicit close surfaces a failed
   final flush, which [with_open_text]'s own cleanup would swallow. *)
let write_file ppf path contents =
  (try
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc contents;
         Out_channel.close oc)
   with Sys_error msg ->
     let prefix = path ^ ": " in
     raise
       (User_error (if String.starts_with ~prefix msg then msg else prefix ^ msg)));
  Fmt.pf ppf "wrote %s@." path

(* Tracing brackets a whole subcommand body, validation included.  The
   trace is flushed whether [f] returns or raises, so a user error
   still leaves its trace; an unwritable trace path raises
   [User_error] itself.  Trace output goes to a side file / stderr
   only, preserving stdout byte-identity. *)
let with_tracing ~name ~trace ~trace_summary f =
  if trace = None && not trace_summary then f ()
  else begin
    Mclock_obs.Obs.start ();
    let flush_trace () =
      let events = Mclock_obs.Obs.stop () in
      Option.iter
        (fun path ->
          write_file Fmt.stderr path (Mclock_obs.Obs.to_chrome_json events))
        trace;
      if trace_summary then prerr_string (Mclock_obs.Obs.summary events)
    in
    match Mclock_obs.Obs.with_span ~cat:"cli" ~name f with
    | code ->
        flush_trace ();
        code
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        flush_trace ();
        Printexc.raise_with_backtrace e bt
  end

(* Every subcommand is built here.  [run] is its options applied to its
   body, a thunk returning the exit code; with [~traced] the body runs
   under [--trace]/[--trace-summary]. *)
let subcommand ?(traced = false) name ~doc run =
  let term =
    if traced then
      let traced trace trace_summary = with_tracing ~name ~trace ~trace_summary in
      Term.(const traced $ trace_arg $ trace_summary_arg $ run)
    else Term.map (fun f -> f ()) run
  in
  Cmd.v (Cmd.info name ~doc ~exits) term

(* --- list --------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun w -> Fmt.pr "%a@." Mclock_workloads.Workload.pp w)
      Mclock_workloads.Catalog.all;
    0
  in
  subcommand "list" ~doc:"List bundled workloads." (Term.const run)

(* --- show --------------------------------------------------------------------- *)

let show_cmd =
  let run source clocks () =
    let _, input = source () in
    Fmt.pr "%a@.@." Mclock_dfg.Graph.pp input.graph;
    Fmt.pr "%a@." Mclock_sched.Schedule.pp input.schedule;
    let problem = Mclock_core.Lifetime.analyze ~n:clocks input.schedule in
    Fmt.pr "@.lifetimes (n=%d):@.%s@." clocks
      (Mclock_core.Lifetime.render_table problem);
    if clocks > 1 then
      Fmt.pr "%s@."
        (Mclock_core.Split_alloc.render_partitions ~n:clocks input.schedule);
    0
  in
  subcommand "show" ~doc:"Print a behaviour, its schedule and lifetimes."
    Term.(const run $ source_arg $ clocks_arg)

(* --- synth --------------------------------------------------------------------- *)

let synth_cmd =
  let vhdl_arg =
    Arg.(value & opt (some string) None & info [ "vhdl" ] ~docv:"PATH"
           ~doc:"Write structural VHDL to $(docv).")
  in
  let dot_arg =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH"
           ~doc:"Write a Graphviz datapath plot to $(docv).")
  in
  let verilog_arg =
    Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"PATH"
           ~doc:"Write structural Verilog to $(docv).")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"PATH"
           ~doc:"Write a VCD waveform trace of the first computations to $(docv).")
  in
  let run source m iterations seed vhdl verilog dot vcd () =
    let name, input = source () in
    let design = Mclock_core.Flow.synthesize ~method_:m ~name input.schedule in
    (* [synthesize] already failed on lint errors; surface the rest. *)
    List.iter
      (fun d -> Fmt.epr "%a@." Mclock_lint.Diagnostic.pp d)
      (Mclock_lint.Lint.design design);
    let trace =
      Option.map
        (fun _ ->
          {
            Mclock_sim.Simulator.vcd = Mclock_sim.Vcd.create ();
            max_cycles = 4 * Mclock_rtl.Design.num_steps design;
          })
        vcd
    in
    let sim =
      Mclock_sim.Compiled.run ~seed ?trace
        (Mclock_sim.Compiled.compile tech design)
        ~iterations
    in
    (* One simulation feeds both the VCD trace and the report. *)
    let report =
      Mclock_power.Report.of_sim ~label:(Mclock_core.Flow.method_label m) tech
        design input.graph ~iterations sim
    in
    Fmt.pr "design:      %s (%s)@." name (Mclock_rtl.Design.style_label design);
    Fmt.pr "power:       %.3f mW (%d computations)@." report.Mclock_power.Report.power_mw iterations;
    Fmt.pr "area:        %.0f lambda^2@." report.Mclock_power.Report.area.Mclock_power.Area.design_total;
    Fmt.pr "ALUs:        %s@." report.Mclock_power.Report.alus;
    Fmt.pr "mem cells:   %d@." report.Mclock_power.Report.memory_cells;
    Fmt.pr "mux inputs:  %d@." report.Mclock_power.Report.mux_inputs;
    Fmt.pr "functional:  %s@."
      (if report.Mclock_power.Report.functional_ok then
         "verified against golden model"
       else "MISMATCH");
    print_endline (Mclock_power.Report.render_category_breakdown report);
    let write = write_file Fmt.stdout in
    Option.iter (fun p -> write p (Mclock_rtl.Vhdl.emit design)) vhdl;
    Option.iter (fun p -> write p (Mclock_rtl.Verilog.emit design)) verilog;
    Option.iter
      (fun p -> write p (Mclock_rtl.Rtl_dot.emit (Mclock_rtl.Design.datapath design)))
      dot;
    Option.iter
      (fun p ->
        match trace with
        | Some t -> write p (Mclock_sim.Vcd.contents t.Mclock_sim.Simulator.vcd)
        | None -> ())
      vcd;
    functional_exit [ report ]
  in
  subcommand "synth" ~traced:true
    ~doc:"Synthesize one design; simulate, verify and report power/area."
    Term.(
      const run $ source_arg $ method_arg $ iterations_arg $ seed_arg
      $ vhdl_arg $ verilog_arg $ dot_arg $ vcd_arg)

(* --- lint --------------------------------------------------------------------- *)

let lint_cmd =
  let werror_arg =
    Arg.(value & flag & info [ "werror" ]
           ~doc:"Promote warnings and info diagnostics to errors.")
  in
  let no_transfers_arg =
    Arg.(value & flag & info [ "no-transfers" ]
           ~doc:"Ablation: skip cross-partition transfer insertion in the \
                 integrated method (--method mc) so rule MC006 has \
                 something to find.")
  in
  let run source m json werror no_transfers () =
    let name, input = source () in
    let behaviour_diags =
      let assignments =
        List.map
          (fun node ->
            let id = Mclock_dfg.Node.id node in
            (id, Mclock_sched.Schedule.step_of_id input.schedule id))
          (Mclock_dfg.Graph.nodes input.graph)
      in
      Mclock_lint.Lint.behaviour input.graph assignments
    in
    (match m with
    | Mclock_core.Flow.Integrated _ -> ()
    | _ when no_transfers -> user_error "--no-transfers only applies to --method mc"
    | _ -> ());
    let design =
      Mclock_core.Flow.synthesize ~lint:false ~transfers:(not no_transfers)
        ~method_:m ~name input.schedule
    in
    let diags =
      Mclock_lint.Diagnostic.promote ~werror
        (behaviour_diags @ Mclock_lint.Lint.design design)
    in
    if json then
      print_endline
        (Mclock_util.Json.to_string_pretty
           (Mclock_lint.Diagnostic.list_to_json ~subject:name diags))
    else print_endline (Mclock_lint.Diagnostic.render diags);
    if Mclock_lint.Lint.has_errors diags then 1 else 0
  in
  subcommand "lint"
    ~doc:"Run the MC0xx/MC1xx static-analysis rules over a behaviour \
          and its synthesized design; non-zero exit on any error."
    Term.(
      const run $ source_arg $ method_arg $ json_flag $ werror_arg
      $ no_transfers_arg)

(* --- table --------------------------------------------------------------------- *)

let table_cmd =
  let run source iterations seed jobs () =
    let jobs = resolve_jobs jobs in
    let name, input = source () in
    let suite = Mclock_core.Flow.standard_suite ~name input.schedule in
    let reports =
      Mclock_exec.Pool.with_pool ~jobs (fun pool ->
          Mclock_power.Report.evaluate_batch ~pool ~seed ~iterations tech
            (List.map
               (fun (m, design) ->
                 (Mclock_core.Flow.method_label m, design, input.graph))
               suite))
    in
    Mclock_util.Table.print
      (Mclock_power.Report.paper_table
         ~title:(Printf.sprintf "Multiple Clocks with Latches for %s" name)
         reports);
    functional_exit reports
  in
  subcommand "table" ~traced:true ~doc:"The paper's five-design comparison table."
    Term.(const run $ source_arg $ iterations_arg $ seed_arg $ jobs_arg)

(* --- controller ------------------------------------------------------------------ *)

let controller_cmd =
  let run source m () =
    let _, input = source () in
    let design = Mclock_core.Flow.synthesize ~method_:m ~name:"ctl" input.schedule in
    let reports =
      List.map
        (fun enc -> Mclock_ctrl.Synth.estimate tech design enc)
        Mclock_ctrl.Encoding.all
    in
    print_string (Mclock_ctrl.Synth.render reports);
    0
  in
  subcommand "controller" ~doc:"Controller synthesis estimate per state encoding."
    Term.(const run $ source_arg $ method_arg)

(* --- calibrate -------------------------------------------------------------------- *)

let calibrate_cmd =
  let samples_arg =
    Arg.(value & opt (count "--samples") 3000 & info [ "samples" ] ~docv:"N"
           ~doc:"Random operand pairs per operation.")
  in
  let width_arg =
    Arg.(value & opt int 4 & info [ "width" ] ~docv:"BITS" ~doc:"Operand width.")
  in
  let run samples width () =
    let ms = Mclock_gatelevel.Calibrate.measure_all ~samples tech ~width in
    print_string (Mclock_gatelevel.Calibrate.render ms);
    0
  in
  subcommand "calibrate"
    ~doc:"Gate-level calibration of the RTL ALU activity model."
    Term.(const run $ samples_arg $ width_arg)

(* --- waves --------------------------------------------------------------------- *)

let waves_cmd =
  let cycles_arg =
    Arg.(value & opt (count "--cycles") 8 & info [ "cycles" ] ~docv:"N"
           ~doc:"Cycles to draw.")
  in
  let run clocks cycles () =
    let c = Mclock_rtl.Clock.create ~phases:clocks ~frequency:tech.Mclock_tech.Library.clock_frequency in
    Fmt.pr "%a@.%s@." Mclock_rtl.Clock.pp c
      (Mclock_rtl.Clock.render_waveforms c ~cycles);
    0
  in
  subcommand "waves" ~doc:"ASCII waveforms of an n-phase clocking scheme."
    Term.(const run $ clocks_arg $ cycles_arg)

(* --- sweep --------------------------------------------------------------------- *)

let sweep_cmd =
  let max_arg =
    Arg.(value & opt (count "--max") 4 & info [ "max" ] ~docv:"N"
           ~doc:"Largest clock count.")
  in
  let run source iterations seed max_n jobs () =
    let jobs = resolve_jobs jobs in
    let _, input = source () in
    let table =
      Mclock_util.Table.create ~title:"clock-count sweep"
        ~header:[ "clocks"; "power [mW]"; "area [l^2]"; "ALUs"; "mem"; "mux" ]
        ~aligns:Mclock_util.Table.[ Right; Right; Right; Left; Right; Right ]
        ()
    in
    (* Synthesis rides inside the task so the whole cell parallelizes;
       rows are reduced in submission order, so the table is identical
       for any job count. *)
    let reports =
      Mclock_exec.Pool.with_pool ~jobs (fun pool ->
          Mclock_exec.Pool.map pool
            ~label:(fun i -> Printf.sprintf "mc%d" (i + 1))
            (fun _ n ->
              let design =
                Mclock_core.Flow.synthesize
                  ~method_:(Mclock_core.Flow.Integrated n)
                  ~name:(Printf.sprintf "mc%d" n) input.schedule
              in
              Mclock_power.Report.evaluate ~seed ~iterations
                ~label:(string_of_int n) tech design input.graph)
            (Mclock_util.List_ext.range 1 max_n))
    in
    List.iter
      (fun r ->
        Mclock_util.Table.add_row table
          [
            r.Mclock_power.Report.label;
            Printf.sprintf "%.2f" r.Mclock_power.Report.power_mw;
            Printf.sprintf "%.0f" r.Mclock_power.Report.area.Mclock_power.Area.design_total;
            r.Mclock_power.Report.alus;
            string_of_int r.Mclock_power.Report.memory_cells;
            string_of_int r.Mclock_power.Report.mux_inputs;
          ])
      reports;
    Mclock_util.Table.print table;
    flush stdout;
    List.iter
      (fun r ->
        if not r.Mclock_power.Report.functional_ok then
          Fmt.epr "%s clocks: MISMATCH against the golden model@."
            r.Mclock_power.Report.label)
      reports;
    functional_exit reports
  in
  subcommand "sweep" ~traced:true ~doc:"Power/area across clock counts 1..N."
    Term.(
      const run $ source_arg $ iterations_arg $ seed_arg $ max_arg $ jobs_arg)

(* --- explore / search shared options ------------------------------------- *)

let max_clocks_arg =
  Arg.(value & opt (some (count "--max-clocks")) None & info [ "max-clocks" ] ~docv:"N"
         ~doc:"Largest clock count in the exploration grid \
               (default 4; 2 under $(b,--smoke)).")

let constraint_arg =
  Arg.(value & opt_all string [] & info [ "c"; "constraint" ] ~docv:"EXPR"
         ~doc:"Prune cells violating a bound, e.g. $(b,area<=12000), \
               $(b,latency<=6), $(b,mem<=40), $(b,power<=4.5) or \
               $(b,energy<=900). Repeatable; bounds are checked on \
               pre-simulation binding results and the static power \
               analyzer's certified bound, so pruned cells are never \
               simulated. Power/energy caps are conservative: they keep \
               exactly the cells whose worst-case bound fits the \
               budget.")

let cache_dir_arg =
  Arg.(value & opt string ".mclock-cache" & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persistent content-addressed evaluation cache directory \
               (created on demand). Concurrent runs may share one \
               directory; each reuses whatever the others have stored.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Disable the persistent cache: every surviving cell is \
               simulated.")

let json_doc_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Write the result document as JSON to $(docv): explore's \
               frontier with dominated-point attribution, or search's \
               rung schedule, per-candidate scores, kept sets, winner and \
               iteration totals. Byte-identical across reruns, job counts \
               and cache states; cache counters are excluded (see \
               $(b,--stats-json)).")

let stats_json_arg =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"PATH"
         ~doc:"Write this run's hit/miss/prune counters as JSON to \
               $(docv).")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ]
         ~doc:"CI-sized run: the facet workload (unless one is given), \
               2 clocks, 120 computations per cell.")

let explore_iterations_arg =
  Arg.(value & opt (some (count "--iterations")) None & info [ "iterations" ] ~docv:"N"
         ~doc:"Simulated computations per cell (default 400; 120 under \
               $(b,--smoke)).")

let objective_arg =
  Arg.(value & opt (some string) None & info [ "objective" ] ~docv:"EXPR"
         ~doc:"Scalarized objective, e.g. $(b,power) or \
               $(b,0.7*power+0.2*area+0.1*latency): a weighted sum of \
               per-metric scores, each min-max normalized across the \
               candidates being compared (lower is better). Valid \
               metrics: power, area, latency, energy, mem.")

(* Shared by explore and search so both emit documents identically. *)
let write_doc path json =
  write_file Fmt.stderr path (Mclock_util.Json.to_string_pretty json ^ "\n")

let parse_constraints constraints =
  List.map
    (fun s -> or_user_error (Mclock_explore.Metrics.parse_constraint s))
    constraints

(* The [--smoke] defaults: the facet workload (unless one is given),
   2 clocks and 120 computations per cell, instead of 4 and 400. *)
let smoke_defaults ~smoke ~workload ~file ~max_clocks ~iterations =
  let workload =
    match (workload, file, smoke) with
    | None, None, true -> Some "facet"
    | w, _, _ -> w
  in
  ( workload,
    Option.value max_clocks ~default:(if smoke then 2 else 4),
    Option.value iterations ~default:(if smoke then 120 else 400) )

let open_cache ~no_cache dir =
  if no_cache then None else Some (Mclock_explore.Store.open_ ~dir ())

(* The options explore and search share, applied to [run]. *)
let grid_options run =
  Term.(
    const run $ workload_arg $ file_arg $ max_clocks_arg $ constraint_arg
    $ explore_iterations_arg $ seed_arg $ jobs_arg $ cache_dir_arg
    $ no_cache_arg $ json_doc_arg $ stats_json_arg $ smoke_arg $ objective_arg)

let sched_constraints_of ~workload =
  match workload with
  | Some n -> (
      match Mclock_workloads.Catalog.find n with
      | Some w -> w.Mclock_workloads.Workload.constraints
      | None -> [])
  | None -> []

(* --- explore ----------------------------------------------------------------- *)

let explore_cmd =
  let best_arg =
    Arg.(value & flag & info [ "best" ]
           ~doc:"Also print the best evaluated cell under the scalarized \
                 $(b,--objective) (default: pure power).")
  in
  let run workload file max_clocks constraints iterations seed jobs cache_dir
      no_cache json stats_json smoke objective best () =
    let open Mclock_explore in
    let jobs = resolve_jobs jobs in
    let objective_opt =
      Option.map (fun s -> or_user_error (Objective.parse s)) objective
    in
    (* --objective alone implies --best: parsing an objective and then
       not using it would be surprising. *)
    let best = best || objective_opt <> None in
    let objective = Option.value ~default:Objective.default objective_opt in
    let all_workloads = workload = Some "all" in
    if all_workloads && file <> None then
      user_error "--workload all cannot be combined with --file";
    let workload, max_clocks, iterations =
      smoke_defaults ~smoke ~workload ~file ~max_clocks ~iterations
    in
    let constraints = parse_constraints constraints in
    (* --workload all: every catalog behaviour in one pool session
       against one shared cache. *)
    let targets =
      if all_workloads then
        List.map
          (fun w ->
            ( w.Mclock_workloads.Workload.name,
              Mclock_workloads.Workload.graph w,
              w.Mclock_workloads.Workload.constraints ))
          Mclock_workloads.Catalog.all
      else
        let input = load ~workload ~file ~scheduler:`Annotated in
        [ (design_name ~workload ~file, input.graph, sched_constraints_of ~workload) ]
    in
    let cache = open_cache ~no_cache cache_dir in
    let results =
      Mclock_exec.Pool.with_pool ~jobs (fun pool ->
          List.map
            (fun (name, graph, sched_constraints) ->
              Engine.explore ~pool ?cache ~constraints ~seed ~iterations
                ~max_clocks ~name ~sched_constraints graph)
            targets)
    in
    List.iter
      (fun result ->
        if all_workloads then Printf.printf "== %s ==\n" result.Engine.workload;
        print_string (Engine.render_text result);
        if best then
          match Engine.best ~objective result with
          | Some (cell, score) ->
              Printf.printf "best (%s): %s (score %.4f)\n"
                (Objective.to_string objective) cell.Engine.cell_label score
          | None ->
              Printf.printf "best (%s): none (no evaluated functional cell)\n"
                (Objective.to_string objective))
      results;
    (* Single-workload documents keep their original shape (CI diffs
       them byte-for-byte); "all" wraps per-workload documents in one
       "workloads" list. *)
    let doc_of one_of_each = function
      | [ single ] when not all_workloads -> one_of_each single
      | many ->
          Mclock_util.Json.Obj
            [ ("workloads", Mclock_util.Json.List (List.map one_of_each many)) ]
    in
    Option.iter (fun p -> write_doc p (doc_of Engine.frontier_json results)) json;
    Option.iter (fun p -> write_doc p (doc_of Engine.stats_json results)) stats_json;
    let failed (c : Engine.cell) =
      match c.Engine.status with
      | Engine.Cached m | Engine.Simulated m -> not m.Metrics.functional_ok
      | Engine.Pruned _ -> false
    in
    if List.exists (fun r -> List.exists failed r.Engine.cells) results then 2
    else 0
  in
  subcommand "explore" ~traced:true
    ~doc:"Explore the scheduler x allocator x clock-count x transfers x \
          voltage design space; prune with pre-simulation bounds, reuse \
          the persistent evaluation cache, and report the \
          power/area/latency Pareto frontier.  $(b,--workload all) \
          iterates the whole catalog in one pool session against one \
          shared cache."
    Term.(grid_options run $ best_arg)

(* --- search ------------------------------------------------------------------ *)

let search_cmd =
  let eta_arg =
    Arg.(value & opt (at_least ~min:2 "--eta") 2 & info [ "eta" ] ~docv:"N"
           ~doc:"Halving rate: each rung keeps the best ceil(n/$(docv)) \
                 candidates and multiplies the iteration budget by \
                 $(docv). Must be >= 2.")
  in
  let min_iterations_arg =
    Arg.(value & opt (some (count "--min-iterations")) None
         & info [ "min-iterations" ] ~docv:"N"
           ~doc:"First rung's iteration budget (default: iterations/16, \
                 at least 1).")
  in
  let run workload file max_clocks constraints iterations seed jobs cache_dir
      no_cache json stats_json smoke objective eta min_iterations () =
    let open Mclock_explore in
    let jobs = resolve_jobs jobs in
    let workload, max_clocks, iterations =
      smoke_defaults ~smoke ~workload ~file ~max_clocks ~iterations
    in
    Option.iter
      (fun m ->
        if m > iterations then
          user_error "--min-iterations (%d) must not exceed --iterations (%d)"
            m iterations)
      min_iterations;
    let objective =
      match objective with
      | None -> Objective.default
      | Some s -> or_user_error (Objective.parse s)
    in
    let constraints = parse_constraints constraints in
    let input = load ~workload ~file ~scheduler:`Annotated in
    let name = design_name ~workload ~file in
    let sched_constraints = sched_constraints_of ~workload in
    let cache = open_cache ~no_cache cache_dir in
    let result =
      Mclock_exec.Pool.with_pool ~jobs (fun pool ->
          Halving.run ~pool ?cache ~eta ?min_iterations ~constraints ~seed
            ~iterations ~max_clocks ~objective ~name ~sched_constraints
            input.graph)
    in
    Option.iter (fun msg -> Fmt.epr "warning: %s@." msg) result.Halving.degenerate;
    print_string (Halving.render_text result);
    Option.iter (fun p -> write_doc p (Halving.result_json result)) json;
    Option.iter (fun p -> write_doc p (Halving.stats_json result)) stats_json;
    if result.Halving.winner = None then 2 else 0
  in
  subcommand "search" ~traced:true
    ~doc:"Successive-halving multi-fidelity search of the design space: \
          evaluate everything cheaply, keep the best ceil(n/eta) under \
          the scalarized objective, double down on the survivors until \
          one rung runs at full fidelity. Shares the persistent \
          evaluation cache with $(b,mclock explore); results are \
          byte-identical across job counts and cache states. Each \
          rung resumes the survivors' simulations from the previous \
          rung's checkpoints instead of restarting them."
    Term.(grid_options run $ eta_arg $ min_iterations_arg)

(* --- estimate ------------------------------------------------------------ *)

let estimate_cmd =
  let stimulus_arg =
    Arg.(value & opt string "uniform" & info [ "stimulus" ] ~docv:"MODEL"
           ~doc:"Stimulus statistics: $(b,uniform), $(b,correlated:P), \
                 $(b,ramp:K) or $(b,constant).")
  in
  let compare_arg =
    Arg.(value & flag & info [ "compare" ]
           ~doc:"Also run the simulator under the same stimulus model and \
                 report the per-component estimation error and the bound \
                 check; exits 3 if any component exceeds its certified \
                 bound.")
  in
  let run source m iterations seed stimulus json compare () =
    let name, input = source () in
    let stimulus = or_user_error (Mclock_static.Stim.parse stimulus) in
    let design = Mclock_core.Flow.synthesize ~method_:m ~name input.schedule in
    let analysis =
      Mclock_static.Analyze.run ~stimulus ~iterations tech design
    in
    let comparison =
      if compare then
        Some
          (Mclock_static.Report.compare_with_simulation ~seed tech design
             input.graph analysis)
      else None
    in
    if json then
      print_endline
        (Mclock_util.Json.to_string_pretty
           (Mclock_static.Report.to_json ?comparison analysis))
    else print_string (Mclock_static.Report.to_text ?comparison analysis);
    match comparison with
    | Some c when not c.Mclock_static.Report.sound -> 3
    | _ -> 0
  in
  subcommand "estimate"
    ~doc:"Simulation-free static power analysis: expected power under a \
          stimulus model plus a certified upper bound, per component and \
          mechanism."
    Term.(
      const run $ source_arg $ method_arg $ iterations_arg $ seed_arg
      $ stimulus_arg $ json_flag $ compare_arg)

let cache_cmd =
  let module Store = Mclock_explore.Store in
  let stats_cmd =
    let rebuild_arg =
      Arg.(value & flag & info [ "rebuild" ]
             ~doc:"Rescan the cache directory and rewrite the manifest \
                   instead of trusting an existing one.")
    in
    let run cache_dir rebuild json () =
      let store = Store.open_ ~dir:cache_dir () in
      let m = Store.manifest ~rebuild store in
      if json then
        print_endline
          (Mclock_util.Json.to_string_pretty
             (Mclock_util.Json.Obj
                [
                  ("dir", Mclock_util.Json.String (Store.dir store));
                  ("entries", Mclock_util.Json.Int m.Store.m_entries);
                  ("bytes", Mclock_util.Json.Int m.Store.m_bytes);
                  ("rebuilt", Mclock_util.Json.Bool m.Store.m_rebuilt);
                ]))
      else
        Fmt.pr "%s: %d entries, %d bytes%s@." (Store.dir store)
          m.Store.m_entries m.Store.m_bytes
          (if m.Store.m_rebuilt then " (manifest rebuilt)" else "");
      0
    in
    subcommand "stats"
      ~doc:"Entry-count and byte totals for the evaluation cache \
            (metrics entries plus checkpoint sidecars), O(1) via the \
            manifest when one is present."
      Term.(const run $ cache_dir_arg $ rebuild_arg $ json_flag)
  in
  let gc_cmd =
    let max_age_arg =
      Arg.(value & opt (some float) None & info [ "max-age" ] ~docv:"SECONDS"
             ~doc:"Remove entries older than $(docv) seconds.")
    in
    let max_size_arg =
      Arg.(value & opt (some int) None & info [ "max-size" ] ~docv:"BYTES"
             ~doc:"Evict oldest-first until at most $(docv) bytes remain.")
    in
    let dry_run_arg =
      Arg.(value & flag & info [ "dry-run" ]
             ~doc:"Report what would be removed — entry count, bytes, and \
                   the oldest/newest would-be victims — without deleting \
                   anything or touching the manifest.")
    in
    let run cache_dir max_age max_size dry_run json () =
      if max_age = None && max_size = None then
        user_error "cache gc: give --max-age and/or --max-size";
      if Option.fold ~none:false ~some:(fun a -> a < 0.) max_age then
        user_error "--max-age must be >= 0";
      if Option.fold ~none:false ~some:(fun s -> s < 0) max_size then
        user_error "--max-size must be >= 0";
      let store = Store.open_ ~dir:cache_dir () in
      let r = Store.gc ?max_age ?max_bytes:max_size ~dry_run store in
      if json then begin
        let mtime_json = function
          | None -> Mclock_util.Json.Null
          | Some m -> Mclock_util.Json.Float m
        in
        print_endline
          (Mclock_util.Json.to_string_pretty
             (Mclock_util.Json.Obj
                [
                  ("dir", Mclock_util.Json.String (Store.dir store));
                  ("dry_run", Mclock_util.Json.Bool dry_run);
                  ( "removed_entries",
                    Mclock_util.Json.Int r.Store.gc_removed_entries );
                  ( "removed_bytes",
                    Mclock_util.Json.Int r.Store.gc_removed_bytes );
                  ( "remaining_entries",
                    Mclock_util.Json.Int r.Store.gc_remaining_entries );
                  ( "remaining_bytes",
                    Mclock_util.Json.Int r.Store.gc_remaining_bytes );
                  ("oldest_removed", mtime_json r.Store.gc_oldest_removed);
                  ("newest_removed", mtime_json r.Store.gc_newest_removed);
                ]))
      end
      else begin
        Fmt.pr "%s: %s %d entries (%d bytes), %d entries (%d bytes) %s@."
          (Store.dir store)
          (if dry_run then "would remove" else "removed")
          r.Store.gc_removed_entries r.Store.gc_removed_bytes
          r.Store.gc_remaining_entries r.Store.gc_remaining_bytes
          (if dry_run then "would remain" else "remain");
        match (r.Store.gc_oldest_removed, r.Store.gc_newest_removed) with
        | Some oldest, Some newest ->
            let now = Unix.gettimeofday () in
            Fmt.pr "  victims span %.0fs to %.0fs old@." (now -. newest)
              (now -. oldest)
        | _ -> ()
      end;
      0
    in
    subcommand "gc"
      ~doc:"Bounded eviction over the evaluation cache: drop entries \
            older than $(b,--max-age), then evict oldest-first down to \
            $(b,--max-size) bytes.  Result and checkpoint entries are \
            treated uniformly; the manifest is rewritten with the \
            post-GC totals.  $(b,--dry-run) only reports."
      Term.(const run $ cache_dir_arg $ max_age_arg $ max_size_arg
            $ dry_run_arg $ json_flag)
  in
  Cmd.group
    (Cmd.info "cache" ~exits
       ~doc:"Inspect and bound the persistent evaluation cache.")
    [ stats_cmd; gc_cmd ]

(* The one exit: a subcommand's code, or 1 for a [User_error] raised
   anywhere in it — caught here, after its finalizers have run.  Any
   other exception is a bug, reported as such with Cmdliner's internal
   error code. *)
let () =
  let mclock =
    Cmd.group
      (Cmd.info "mclock" ~version:"1.0.0" ~exits
         ~doc:"Multi-clock RTL power-management synthesis (DAC'96 reproduction).")
      [ list_cmd; show_cmd; synth_cmd; lint_cmd; table_cmd; waves_cmd;
        sweep_cmd; explore_cmd; search_cmd; estimate_cmd; controller_cmd;
        calibrate_cmd; cache_cmd ]
  in
  exit
    (match Cmd.eval' ~catch:false mclock with
    | code -> code
    | exception User_error msg ->
        Fmt.epr "mclock: %s@." msg;
        1
    | exception e ->
        Fmt.epr "@[<v 8>mclock: internal error, uncaught exception:@,%s@,%s@]@."
          (Printexc.to_string e) (Printexc.get_backtrace ());
        Cmd.Exit.internal_error)
