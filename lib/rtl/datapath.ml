(* The datapath: a wired collection of components plus output taps.

   Built imperatively by the allocators, then validated ([validate])
   before use: all referenced ids must exist, muxes need >= 2 inputs,
   and the combinational subgraph (muxes and ALUs) must be acyclic —
   every feedback loop must pass through a storage element. *)

open Mclock_dfg
module IMap = Map.Make (Int)

type t = {
  width : int;
  mutable next_id : int;
  mutable comps : Comp.t IMap.t;
  mutable outputs : (Var.t * Comp.source) list; (* reversed *)
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let create ~width =
  if width < 1 || width > Mclock_util.Bitvec.max_width then
    invalid "width %d out of range" width;
  { width; next_id = 1; comps = IMap.empty; outputs = [] }

let width t = t.width

let add t ~name kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.comps <- IMap.add id { Comp.id; name; kind } t.comps;
  id

let add_input t var = add t ~name:(Printf.sprintf "in_%s" (Var.name var)) (Comp.Input var)

let add_storage t ~name ~kind ~phase ~input ~gated ~holds =
  if phase < 1 then invalid "storage %s: phase %d < 1" name phase;
  add t ~name
    (Comp.Storage
       { s_kind = kind; s_phase = phase; s_input = input; s_gated = gated; s_holds = holds })

let add_alu t ~name ~fset ~phase ~src_a ~src_b ~isolated ~ops =
  if Op.Set.is_empty fset then invalid "alu %s: empty function set" name;
  if phase < 1 then invalid "alu %s: phase %d < 1" name phase;
  add t ~name
    (Comp.Alu
       {
         a_fset = fset;
         a_phase = phase;
         a_src_a = src_a;
         a_src_b = src_b;
         a_isolated = isolated;
         a_ops = ops;
       })

let add_mux t ~name ~phase ~choices =
  if Array.length choices < 2 then invalid "mux %s: needs >= 2 inputs" name;
  add t ~name (Comp.Mux { m_phase = phase; m_choices = choices })

let set_output t var source = t.outputs <- (var, source) :: t.outputs

let comp t id =
  match IMap.find_opt id t.comps with
  | Some c -> c
  | None -> invalid "no component with id %d" id

let comps t = List.map snd (IMap.bindings t.comps)

let outputs t = List.rev t.outputs

let replace_kind t id kind =
  let existing = comp t id in
  t.comps <- IMap.add id { existing with Comp.kind } t.comps

let inputs t =
  List.filter_map
    (fun c -> match Comp.kind c with Comp.Input v -> Some (c, v) | _ -> None)
    (comps t)

let storages t =
  List.filter_map
    (fun c -> match Comp.kind c with Comp.Storage s -> Some (c, s) | _ -> None)
    (comps t)

let alus t =
  List.filter_map
    (fun c -> match Comp.kind c with Comp.Alu a -> Some (c, a) | _ -> None)
    (comps t)

let muxes t =
  List.filter_map
    (fun c -> match Comp.kind c with Comp.Mux m -> Some (c, m) | _ -> None)
    (comps t)

(* --- Paper-style statistics ------------------------------------------- *)

let memory_cells t = List.length (storages t)

let mux_input_count t =
  Mclock_util.List_ext.sum_by
    (fun (_, m) -> Array.length m.Comp.m_choices)
    (muxes t)

let alu_inventory t =
  (* Group ALUs by function set and render "2(+), 1(*-)" as in the
     paper's tables. *)
  let sets = List.map (fun (_, a) -> a.Comp.a_fset) (alus t) in
  Mclock_util.List_ext.group_by ~key:Fun.id ~compare_key:Op.Set.compare sets
  |> List.map (fun (fset, members) -> (fset, List.length members))

let alu_inventory_string t =
  alu_inventory t
  |> List.map (fun (fset, n) -> Printf.sprintf "%d%s" n (Op.Set.to_string fset))
  |> String.concat ","

(* --- Validation -------------------------------------------------------- *)

(* [owner] names the referencing component in the error only: every
   compile validates, and formatting a name per component up front was
   most of the cost of a passing check. *)
let check_source t ~owner src =
  match src with
  | Comp.From_const _ -> ()
  | Comp.From_comp id ->
      if not (IMap.mem id t.comps) then
        invalid "component %s references missing component %d" (owner ()) id

let validate t =
  List.iter
    (fun c ->
      let owner () = Printf.sprintf "c%d(%s)" (Comp.id c) (Comp.name c) in
      match Comp.kind c with
      | Comp.Input _ -> ()
      | Comp.Storage s -> check_source t ~owner s.Comp.s_input
      | Comp.Alu a ->
          check_source t ~owner a.Comp.a_src_a;
          Option.iter (check_source t ~owner) a.Comp.a_src_b
      | Comp.Mux m ->
          if Array.length m.Comp.m_choices < 2 then
            invalid "%s: mux with < 2 inputs" (owner ());
          Array.iter (check_source t ~owner) m.Comp.m_choices)
    (comps t);
  List.iter
    (fun (v, src) ->
      check_source t
        ~owner:(fun () -> Printf.sprintf "output %s" (Var.name v))
        src)
    (outputs t);
  (* Combinational acyclicity: DFS over mux/ALU components, following
     fanin edges that lead to other combinational components. *)
  let state = Hashtbl.create 32 in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some `Done -> ()
    | Some `Active -> invalid "combinational cycle through component %d" id
    | None ->
        let c = comp t id in
        if Comp.is_combinational c then begin
          Hashtbl.replace state id `Active;
          List.iter visit (Comp.fanin c);
          Hashtbl.replace state id `Done
        end
        else Hashtbl.replace state id `Done
  in
  List.iter (fun c -> visit (Comp.id c)) (comps t)

(* Topological order of combinational components (inputs/storages first
   conceptually; they are sources and not included). *)
let combinational_order t =
  validate t;
  let order = ref [] in
  let seen = Hashtbl.create 32 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let c = comp t id in
      if Comp.is_combinational c then begin
        List.iter visit (Comp.fanin c);
        order := c :: !order
      end
    end
  in
  List.iter (fun c -> visit (Comp.id c)) (comps t);
  List.rev !order

(* Transitive combinational fan-in of a source: the set of sequential
   component ids (inputs and storages) that can influence it within one
   step.  When [select] is given, muxes whose routing it resolves
   contribute only their selected input (the read that physically
   matters); unresolved muxes contribute every input, conservatively. *)
let sequential_cone ?select t source =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec visit = function
    | Comp.From_const _ -> ()
    | Comp.From_comp id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.replace seen id ();
          let c = comp t id in
          match Comp.kind c with
          | Comp.Input _ | Comp.Storage _ -> acc := id :: !acc
          | Comp.Alu a ->
              visit a.Comp.a_src_a;
              Option.iter visit a.Comp.a_src_b
          | Comp.Mux m -> (
              let resolved =
                match select with None -> None | Some f -> f id
              in
              match resolved with
              | Some idx when idx >= 0 && idx < Array.length m.Comp.m_choices
                ->
                  visit m.Comp.m_choices.(idx)
              | Some _ | None -> Array.iter visit m.Comp.m_choices)
        end
  in
  visit source;
  !acc

(* Fanout count per component id (how many sinks read its output),
   used for output-load capacitance. *)
let fanout_counts t =
  let counts = Hashtbl.create 32 in
  let bump = function
    | Comp.From_const _ -> ()
    | Comp.From_comp id ->
        Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
  in
  List.iter
    (fun c ->
      match Comp.kind c with
      | Comp.Input _ -> ()
      | Comp.Storage s -> bump s.Comp.s_input
      | Comp.Alu a ->
          bump a.Comp.a_src_a;
          Option.iter bump a.Comp.a_src_b
      | Comp.Mux m -> Array.iter bump m.Comp.m_choices)
    (comps t);
  List.iter (fun (_, src) -> bump src) (outputs t);
  fun id -> Option.value ~default:0 (Hashtbl.find_opt counts id)

let pp ppf t =
  Fmt.pf ppf "@[<v>datapath (width %d)@,%a@,outputs: %a@]" t.width
    (Fmt.list ~sep:Fmt.cut Comp.pp) (comps t)
    (Fmt.list ~sep:Fmt.comma (fun ppf (v, src) ->
         Fmt.pf ppf "%a<-%a" Var.pp v Comp.pp_source src))
    (outputs t)
