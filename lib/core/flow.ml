(* End-to-end synthesis flow API: one entry point per design style plus
   the five-design suite each of the paper's tables reports. *)


type method_ =
  | Conventional_non_gated
  | Conventional_gated
  | Integrated of int (* clock count *)
  | Split of int

let method_label = function
  | Conventional_non_gated -> "Conven. Alloc. (Non-Gated Clock)"
  | Conventional_gated -> "Conven. Alloc. (Gated Clock)"
  | Integrated 1 -> "1 Clock"
  | Integrated n -> Printf.sprintf "%d Clocks" n
  | Split n -> Printf.sprintf "Split %d Clocks" n

type params = { tech : Mclock_tech.Library.t; width : int }

let default_params = { tech = Mclock_tech.Cmos08.t; width = 4 }

exception
  Lint_failed of {
    design : Mclock_rtl.Design.t;
    diagnostics : Mclock_lint.Diagnostic.t list;
  }

let () =
  Printexc.register_printer (function
    | Lint_failed { design; diagnostics } ->
        Some
          (Printf.sprintf "Flow.Lint_failed on %s:\n%s"
             (Mclock_rtl.Design.name design)
             (Mclock_lint.Diagnostic.render diagnostics))
    | _ -> None)

let allocate ~params ~transfers ~method_ ~name schedule =
  match method_ with
  | Conventional_non_gated ->
      Conventional.allocate
        ~params:{ Conventional.tech = params.tech; width = params.width }
        ~gated:false ~name schedule
  | Conventional_gated ->
      Conventional.allocate
        ~params:{ Conventional.tech = params.tech; width = params.width }
        ~gated:true ~name schedule
  | Integrated n ->
      (Integrated.run
         ~params:{ Integrated.tech = params.tech; width = params.width }
         ~transfers ~n ~name schedule)
        .Integrated.design
  | Split n ->
      Split_alloc.allocate
        ~params:{ Split_alloc.tech = params.tech; width = params.width }
        ~n ~name schedule

(* Every allocation is linted on the way out: an allocator emitting a
   design that violates the paper's structural discipline is a bug we
   want loud, not a wrong power number downstream.  [lint:false] is
   for tooling (e.g. the lint CLI) that wants the diagnostics
   themselves rather than an exception.  The integrated method's
   no-transfers ablation violates MC006 on purpose, so that rule is
   waived for it. *)
let synthesize ?(params = default_params) ?(lint = true) ?(transfers = true)
    ~method_ ~name schedule =
  let design = allocate ~params ~transfers ~method_ ~name schedule in
  let waived d =
    (not transfers)
    && d.Mclock_lint.Diagnostic.code = "MC006"
    && match method_ with Integrated _ -> true | _ -> false
  in
  if lint then begin
    match
      List.filter
        (fun d -> not (waived d))
        (Mclock_lint.Diagnostic.errors (Mclock_lint.Lint.design design))
    with
    | [] -> design
    | _ :: _ as diagnostics -> raise (Lint_failed { design; diagnostics })
  end
  else design

(* The five designs of each of the paper's tables, in row order. *)
let standard_suite ?(params = default_params) ~name schedule =
  List.map
    (fun method_ ->
      let design_name =
        Printf.sprintf "%s_%s" name
          (match method_ with
          | Conventional_non_gated -> "conv"
          | Conventional_gated -> "gated"
          | Integrated n -> Printf.sprintf "mc%d" n
          | Split n -> Printf.sprintf "split%d" n)
      in
      (method_, synthesize ~params ~method_ ~name:design_name schedule))
    [
      Conventional_non_gated;
      Conventional_gated;
      Integrated 1;
      Integrated 2;
      Integrated 3;
    ]
