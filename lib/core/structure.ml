(* Datapath construction and microcode generation — Step 4 of the
   integrated allocation ("create the Muxes necessary to complete the
   data path decided by the register and ALU allocation"), shared by
   every allocator in this library.

   Construction rules (the paper's FB/DPM model, Fig. 3):
   - one input port per primary input; one storage element per register
     class; one ALU per allocated ALU;
   - each ALU port fed by more than one distinct source gets a mux;
     single-source ports are wired directly;
   - each storage element written by more than one distinct source gets
     a mux in front of it; cross-partition transfers appear here as
     storage-to-storage moves (no ALU involved);
   - primary outputs tap the storage element holding them.

   Microcode: one control word per schedule step carrying the loads,
   mux selects and ALU function selects that step needs.  The
   [idle_controls] policy decides what happens to controls nobody
   needs: [`Hold] leaves them unspecified (the controller holds the
   previous value — the paper's latched-control discipline), [`Zero]
   re-emits a default every step (modelling the don't-care fill of a
   conventional synthesized controller, which costs switching). *)

open Mclock_dfg
open Mclock_sched
open Mclock_rtl

type config = {
  tech : Mclock_tech.Library.t;
  width : int;
  style : Design.style;
  idle_controls : [ `Hold | `Zero ];
  park_idle_muxes : bool;
      (* power-aware idle selects: when an ALU is off duty, steer its
         port muxes to the quietest input so the ALU sees no transitions
         (paper §4.2 step 3: "use the control on the Muxes to force
         transitions to occur during the correct time period") *)
  name : string;
}

let source_equal (a : Comp.source) (b : Comp.source) =
  match (a, b) with
  | Comp.From_comp x, Comp.From_comp y -> x = y
  | Comp.From_const x, Comp.From_const y -> x = y
  | Comp.From_comp _, Comp.From_const _ | Comp.From_const _, Comp.From_comp _
    ->
      false

(* A planned (possibly muxed) data port: the distinct sources feeding
   it and, per schedule step, which source must be routed. *)
type port_plan = {
  choices : Comp.source list ref;
  mutable routes : (int * int) list; (* step -> choice index *)
}

let new_port () = { choices = ref []; routes = [] }

(* Index of [src] among the port's choices, interning it if new. *)
let intern plan src =
  let rec find i = function
    | [] -> None
    | x :: rest -> if source_equal x src then Some i else find (i + 1) rest
  in
  match find 0 !(plan.choices) with
  | Some i -> i
  | None ->
      plan.choices := !(plan.choices) @ [ src ];
      List.length !(plan.choices) - 1

let route plan ~step src = plan.routes <- (step, intern plan src) :: plan.routes

exception Conflict of string

let conflict fmt = Format.kasprintf (fun s -> raise (Conflict s)) fmt

(* Exact minimization of a mux's output transitions over the cyclic
   schedule.  The output changes during step s when the select differs
   from step s-1 or the selected source was (re)loaded at the end of
   step s-1.  Busy steps force their routing; idle steps are free.
   Dynamic programming over (step, select), closed cyclically by
   pinning each possible step-1 select in turn.  Returns a full select
   assignment (one per step). *)
let optimize_parking ~num_steps ~num_choices ~forced ~loads_at_end =
  let inf = max_int / 2 in
  let cost ~prev ~sel ~step =
    (* Transition during [step] given select [sel] here and [prev] at
       the cyclically previous step. *)
    let prev_step = if step = 1 then num_steps else step - 1 in
    if sel <> prev || loads_at_end ~choice:sel ~step:prev_step then 1 else 0
  in
  let allowed step sel =
    match forced step with None -> true | Some f -> f = sel
  in
  let solve_with first_sel =
    if not (allowed 1 first_sel) then None
    else begin
      (* best.(sel) = minimal cost of steps 2..s with select [sel] at
         step s, given [first_sel] at step 1. *)
      let best = Array.make num_choices inf in
      best.(first_sel) <- 0;
      let final =
        List.fold_left
          (fun best step ->
            let next = Array.make num_choices inf in
            for sel = 0 to num_choices - 1 do
              if allowed step sel then
                for prev = 0 to num_choices - 1 do
                  if best.(prev) < inf then
                    next.(sel) <-
                      min next.(sel) (best.(prev) + cost ~prev ~sel ~step)
                done
            done;
            next)
          best
          (Mclock_util.List_ext.range 2 num_steps)
      in
      (* Close the cycle: add the step-1 cost for wrapping back. *)
      let closed = ref None in
      for last = 0 to num_choices - 1 do
        if final.(last) < inf then begin
          let total = final.(last) + cost ~prev:last ~sel:first_sel ~step:1 in
          match !closed with
          | Some (best_total, _) when best_total <= total -> ()
          | Some _ | None -> closed := Some (total, last)
        end
      done;
      Option.map (fun (total, last) -> (total, first_sel, last)) !closed
    end
  in
  (* Pick the best starting select, then reconstruct by re-running the
     DP with predecessor tracking. *)
  let starts =
    List.filter_map solve_with
      (Mclock_util.List_ext.range 0 (num_choices - 1))
  in
  match starts with
  | [] -> None
  | _ :: _ ->
      let _, first_sel, _ = Mclock_util.List_ext.min_by (fun (t, _, _) -> t) starts in
      (* Reconstruction pass with parent pointers. *)
      let best = Array.make num_choices inf in
      best.(first_sel) <- 0;
      let parents = Array.make_matrix (num_steps + 1) num_choices (-1) in
      let final =
        List.fold_left
          (fun best step ->
            let next = Array.make num_choices inf in
            for sel = 0 to num_choices - 1 do
              if allowed step sel then
                for prev = 0 to num_choices - 1 do
                  if best.(prev) < inf then begin
                    let c = best.(prev) + cost ~prev ~sel ~step in
                    if c < next.(sel) then begin
                      next.(sel) <- c;
                      parents.(step).(sel) <- prev
                    end
                  end
                done
            done;
            next)
          best
          (Mclock_util.List_ext.range 2 num_steps)
      in
      let last = ref (-1) and best_total = ref inf in
      for sel = 0 to num_choices - 1 do
        if final.(sel) < inf then begin
          let total = final.(sel) + cost ~prev:sel ~sel:first_sel ~step:1 in
          if total < !best_total then begin
            best_total := total;
            last := sel
          end
        end
      done;
      let selects = Array.make (num_steps + 1) first_sel in
      let rec back step sel =
        selects.(step) <- sel;
        if step > 2 then back (step - 1) parents.(step).(sel)
        else if step = 2 then selects.(1) <- first_sel
      in
      if num_steps > 1 then back num_steps !last;
      Some selects

let build config (problem : Lifetime.problem) reg_classes alus =
  let schedule = problem.Lifetime.schedule in
  let graph = Schedule.graph schedule in
  let n = problem.Lifetime.n in
  let style = config.style in
  let dp = Datapath.create ~width:config.width in
  (* --- Input ports --------------------------------------------------- *)
  let input_ids =
    List.map (fun v -> (v, Datapath.add_input dp v)) (Graph.inputs graph)
  in
  let input_id v =
    match List.find_opt (fun (v', _) -> Var.equal v v') input_ids with
    | Some (_, id) -> id
    | None ->
        invalid_arg
          (Printf.sprintf "Structure.build: %s is not an input" (Var.name v))
  in
  (* --- Storage elements (inputs wired after muxes exist) ------------- *)
  let storage_ids =
    List.map
      (fun rc ->
        let id =
          Datapath.add_storage dp
            ~name:(Printf.sprintf "R%d" rc.Reg_alloc.rc_id)
            ~kind:style.Design.storage_kind ~phase:rc.Reg_alloc.rc_partition
            ~input:(Comp.From_const 0) ~gated:style.Design.clock_gated
            ~holds:rc.Reg_alloc.rc_vars
        in
        (rc.Reg_alloc.rc_id, id))
      reg_classes
  in
  let storage_id rc_id = List.assoc rc_id storage_ids in
  let storage_of_var v =
    storage_id (Reg_alloc.class_of_exn reg_classes v).Reg_alloc.rc_id
  in
  let registered = Lifetime.registered_inputs problem in
  let resolve = function
    | Lifetime.S_const c -> Comp.From_const c
    | Lifetime.S_var v ->
        if Graph.is_input graph v && not (Var.Set.mem v registered) then
          Comp.From_comp (input_id v)
        else Comp.From_comp (storage_of_var v)
  in
  (* --- ALUs and their port muxes -------------------------------------- *)
  (* Per ALU: collected routing demands for ports a/b and the function
     to select per step. *)
  let alu_plans =
    List.map
      (fun alu ->
        let port_a = new_port () and port_b = new_port () in
        let op_events = ref [] in
        List.iter
          (fun (node_id, step) ->
            let node = Graph.node graph node_id in
            let operands =
              Node.Map.find node_id problem.Lifetime.node_operands
            in
            (match operands with
            | [ a ] -> route port_a ~step (resolve a)
            | [ a; b ] ->
                route port_a ~step (resolve a);
                route port_b ~step (resolve b)
            | [] | _ :: _ :: _ :: _ ->
                invalid_arg "Structure.build: unsupported operand arity");
            op_events := (step, Node.op node) :: !op_events)
          alu.Alu_alloc.alu_nodes;
        (alu, port_a, port_b, List.rev !op_events))
      alus
  in
  (* Materialize a port: None (unused), a direct source, or a mux with
     per-step selects. *)
  let mux_selects = ref [] (* (step, mux comp id, index) *) in
  let make_port ~name ~phase plan =
    match !(plan.choices) with
    | [] -> None
    | [ src ] -> Some src
    | choices ->
        let mux_id =
          Datapath.add_mux dp ~name ~phase ~choices:(Array.of_list choices)
        in
        List.iter
          (fun (step, idx) -> mux_selects := (step, mux_id, idx) :: !mux_selects)
          plan.routes;
        Some (Comp.From_comp mux_id)
  in
  let alu_comp_ids =
    List.map
      (fun (alu, port_a, port_b, op_events) ->
        let phase = alu.Alu_alloc.alu_partition in
        let src_a =
          make_port
            ~name:(Printf.sprintf "mxa%d" alu.Alu_alloc.alu_id)
            ~phase port_a
        in
        let src_b =
          make_port
            ~name:(Printf.sprintf "mxb%d" alu.Alu_alloc.alu_id)
            ~phase port_b
        in
        let src_a =
          match src_a with
          | Some s -> s
          | None -> invalid_arg "Structure.build: ALU with no operations"
        in
        let comp_id =
          Datapath.add_alu dp
            ~name:(Printf.sprintf "ALU%d" alu.Alu_alloc.alu_id)
            ~fset:alu.Alu_alloc.alu_fset ~phase ~src_a ~src_b
            ~isolated:style.Design.operand_isolation
            ~ops:(List.map fst alu.Alu_alloc.alu_nodes)
        in
        (alu.Alu_alloc.alu_id, (comp_id, op_events)))
      alu_plans
  in
  let alu_comp alu_id = fst (List.assoc alu_id alu_comp_ids) in
  (* --- Storage input wiring ------------------------------------------- *)
  let storage_loads = ref [] (* (step, storage comp id) *) in
  List.iter
    (fun rc ->
      let plan = new_port () in
      let sid = storage_id rc.Reg_alloc.rc_id in
      List.iter
        (fun var ->
          if Var.Set.mem var registered then begin
            (* Input register: re-sampled from its port at the end of
               the padded final step of every computation. *)
            route plan ~step:problem.Lifetime.padded_steps
              (Comp.From_comp (input_id var));
            storage_loads := (problem.Lifetime.padded_steps, sid) :: !storage_loads
          end
          else
          match
            List.find_opt
              (fun tr -> Var.equal tr.Lifetime.t_dest var)
              problem.Lifetime.transfers
          with
          | Some tr ->
              (* Transfer destination: storage-to-storage move. *)
              route plan ~step:tr.Lifetime.t_step
                (resolve (Lifetime.S_var tr.Lifetime.t_src));
              storage_loads := (tr.Lifetime.t_step, sid) :: !storage_loads
          | None -> (
              match Graph.producer graph var with
              | Some node ->
                  let step = Schedule.step schedule node in
                  let alu = Alu_alloc.alu_of_exn alus (Node.id node) in
                  route plan ~step
                    (Comp.From_comp (alu_comp alu.Alu_alloc.alu_id));
                  storage_loads := (step, sid) :: !storage_loads
              | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Structure.build: stored variable %s has no producer"
                       (Var.name var))))
        rc.Reg_alloc.rc_vars;
      let input =
        match
          make_port ~name:(Printf.sprintf "mxr%d" rc.Reg_alloc.rc_id)
            ~phase:rc.Reg_alloc.rc_partition plan
        with
        | Some src -> src
        | None ->
            invalid_arg
              (Printf.sprintf "Structure.build: storage R%d has no writer"
                 rc.Reg_alloc.rc_id)
      in
      match Comp.kind (Datapath.comp dp sid) with
      | Comp.Storage s ->
          Datapath.replace_kind dp sid (Comp.Storage { s with Comp.s_input = input })
      | Comp.Input _ | Comp.Alu _ | Comp.Mux _ -> assert false)
    reg_classes;
  (* --- Idle-select parking (ALU port muxes) ---------------------------- *)
  let padded = problem.Lifetime.padded_steps in
  if config.park_idle_muxes then begin
    let loads = !storage_loads in
    let cyclic_prev s = if s = 1 then padded else s - 1 in
    let park mux_id (m : Comp.mux) =
      let num_choices = Array.length m.Comp.m_choices in
      let forced_tbl = Hashtbl.create 8 in
      List.iter
        (fun (step, mid, idx) ->
          if mid = mux_id then
            match Hashtbl.find_opt forced_tbl step with
            | Some existing when existing <> idx ->
                conflict "mux c%d has conflicting selects at step %d" mux_id
                  step
            | Some _ -> ()
            | None -> Hashtbl.replace forced_tbl step idx)
        !mux_selects;
      let forced step = Hashtbl.find_opt forced_tbl step in
      let loads_at_end ~choice ~step =
        match m.Comp.m_choices.(choice) with
        | Comp.From_const _ -> false
        | Comp.From_comp src -> (
            match Comp.kind (Datapath.comp dp src) with
            | Comp.Storage _ -> List.mem (step, src) loads
            | Comp.Input v ->
                (* Registered-input ports change at the start of the
                   final step; direct ports at the start of step 1. *)
                if Var.Set.mem v registered then step = cyclic_prev padded
                else step = padded
            | Comp.Alu _ | Comp.Mux _ -> true)
      in
      match
        optimize_parking ~num_steps:padded ~num_choices ~forced ~loads_at_end
      with
      | None -> ()
      | Some selects ->
          mux_selects :=
            List.filter (fun (_, mid, _) -> mid <> mux_id) !mux_selects;
          List.iter
            (fun step ->
              mux_selects := (step, mux_id, selects.(step)) :: !mux_selects)
            (Mclock_util.List_ext.range 1 padded)
    in
    List.iter
      (fun (c, a) ->
        let sources =
          a.Comp.a_src_a
          :: (match a.Comp.a_src_b with None -> [] | Some s -> [ s ])
        in
        ignore c;
        List.iter
          (fun src ->
            match src with
            | Comp.From_const _ -> ()
            | Comp.From_comp id -> (
                match Comp.kind (Datapath.comp dp id) with
                | Comp.Mux m -> park id m
                | Comp.Input _ | Comp.Storage _ | Comp.Alu _ -> ()))
          sources)
      (Datapath.alus dp)
  end;
  (* --- Microcode ------------------------------------------------------- *)
  let all_mux_ids =
    List.map (fun (c, _) -> Comp.id c) (Datapath.muxes dp)
  in
  let multifun_alus =
    List.filter_map
      (fun (c, a) ->
        if Op.Set.cardinal a.Comp.a_fset > 1 then
          Some (Comp.id c, Schedule_model.default_op a)
        else None)
      (Datapath.alus dp)
  in
  let word_of_step step =
    let selects =
      List.filter_map
        (fun (s, mux, idx) -> if s = step then Some (mux, idx) else None)
        !mux_selects
    in
    (* Detect conflicting demands on one mux in one step. *)
    let selects =
      Mclock_util.List_ext.group_by ~key:fst ~compare_key:Int.compare selects
      |> List.map (fun (mux, demands) ->
             match Mclock_util.List_ext.dedup ~compare:compare demands with
             | [ (_, idx) ] -> (mux, idx)
             | _ ->
                 conflict "mux c%d has conflicting selects at step %d" mux step)
    in
    let loads =
      List.filter_map
        (fun (s, sid) -> if s = step then Some sid else None)
        !storage_loads
      |> Mclock_util.List_ext.dedup ~compare:Int.compare
    in
    let alu_ops =
      List.filter_map
        (fun (_, (comp_id, op_events)) ->
          match List.assoc_opt step op_events with
          | Some op -> Some (comp_id, op)
          | None -> None)
        alu_comp_ids
    in
    match config.idle_controls with
    | `Hold -> { Control.selects; loads; alu_ops }
    | `Zero ->
        let selects =
          selects
          @ List.filter_map
              (fun mux ->
                if List.mem_assoc mux selects then None else Some (mux, 0))
              all_mux_ids
        in
        let alu_ops =
          alu_ops
          @ List.filter_map
              (fun (comp_id, first_op) ->
                if List.mem_assoc comp_id alu_ops then None
                else Some (comp_id, first_op))
              multifun_alus
        in
        { Control.selects; loads; alu_ops }
  in
  (* The controller period must be a multiple of the clock count, or
     the free-running phase divider would drift against the schedule
     from one computation to the next; the problem's padded step count
     covers this with idle (input re-sampling) steps at the end. *)
  let words =
    List.map word_of_step
      (Mclock_util.List_ext.range 1 problem.Lifetime.padded_steps)
  in
  (* --- Output taps ------------------------------------------------------ *)
  let output_taps =
    List.map
      (fun var ->
        let u = Lifetime.usage problem var in
        {
          Design.var;
          source = Comp.From_comp (storage_of_var var);
          ready_step = u.Lifetime.write_step;
        })
      (Graph.outputs graph)
  in
  let clock =
    Clock.create ~phases:n
      ~frequency:config.tech.Mclock_tech.Library.clock_frequency
  in
  Design.create ~name:config.name ~behaviour:(Graph.name graph) ~datapath:dp
    ~control:(Control.create words) ~clock ~style ~input_ports:input_ids
    ~output_taps
