(* The exploration grid.

   The paper samples three points of this space by hand (n = 1, 2, 3
   with fixed allocators); here the whole cross product
   scheduler x allocator x clock count x transfers x voltage mode is
   enumerated, minus the points that are redundant (a conventional
   allocator does not see the clock count) or meaningless (the
   no-transfers ablation on a design with nothing to transfer). *)

type scheduler = Asap | Alap | Force_directed | List_scheduler

type alloc = Conventional | Gated | Integrated | Split

type voltage = Nominal | Scaled

type t = {
  clocks : int;
  scheduler : scheduler;
  alloc : alloc;
  transfers : bool;
  voltage : voltage;
}

let schedulers = [ Asap; Alap; Force_directed; List_scheduler ]

let allocs = [ Conventional; Gated; Integrated; Split ]

let scheduler_name = function
  | Asap -> "asap"
  | Alap -> "alap"
  | Force_directed -> "fds"
  | List_scheduler -> "list"

let alloc_name = function
  | Conventional -> "conv"
  | Gated -> "gated"
  | Integrated -> "mc"
  | Split -> "split"

let is_valid ~max_clocks c =
  c.clocks >= 1
  && c.clocks <= max_clocks
  &&
  match c.alloc with
  | Conventional | Gated -> (
      (* The allocator itself is single-clock; the clock count only
         means something as a duplication factor under scaling. *)
      (not c.transfers)
      &&
      match c.voltage with
      | Nominal -> c.clocks = 1
      | Scaled -> c.clocks >= 2)
  | Integrated ->
      c.voltage = Nominal && (c.transfers || c.clocks >= 2)
  | Split ->
      c.voltage = Nominal && (not c.transfers) && c.clocks >= 2

let enumerate ~max_clocks =
  if max_clocks < 1 then invalid_arg "Config.enumerate: max_clocks < 1";
  List.concat_map
    (fun scheduler ->
      List.concat_map
        (fun alloc ->
          List.concat_map
            (fun clocks ->
              List.concat_map
                (fun transfers ->
                  List.filter_map
                    (fun voltage ->
                      let c =
                        { clocks; scheduler; alloc; transfers; voltage }
                      in
                      if is_valid ~max_clocks c then Some c else None)
                    [ Nominal; Scaled ])
                [ true; false ])
            (Mclock_util.List_ext.range 1 max_clocks))
        allocs)
    schedulers

let label c =
  let base =
    match c.alloc with
    | Conventional | Gated -> alloc_name c.alloc
    | Integrated -> Printf.sprintf "mc%d" c.clocks
    | Split -> Printf.sprintf "split%d" c.clocks
  in
  let base =
    if c.alloc = Integrated && not c.transfers then base ^ "-noxfer" else base
  in
  let base =
    match c.voltage with
    | Nominal -> base
    | Scaled -> Printf.sprintf "%s+dup%d" base c.clocks
  in
  Printf.sprintf "%s/%s" (scheduler_name c.scheduler) base

let compare = Stdlib.compare

let schedule c ~constraints graph =
  match c.scheduler with
  | Asap -> Mclock_sched.Asap.run graph
  | Alap -> Mclock_sched.Alap.run graph
  | Force_directed -> Mclock_sched.Force_directed.run graph
  | List_scheduler -> Mclock_sched.List_sched.run ~constraints graph

let flow_method c =
  match c.alloc with
  | Conventional -> Mclock_core.Flow.Conventional_non_gated
  | Gated -> Mclock_core.Flow.Conventional_gated
  | Integrated -> Mclock_core.Flow.Integrated c.clocks
  | Split -> Mclock_core.Flow.Split c.clocks

let synthesize ?(tech = Mclock_tech.Cmos08.t) ?(width = 4) c ~name schedule =
  Mclock_core.Flow.synthesize
    ~params:{ Mclock_core.Flow.tech; width }
    ~transfers:c.transfers ~method_:(flow_method c) ~name schedule

let fingerprint fp c =
  let open Mclock_util.Fingerprint in
  string fp "config";
  int fp c.clocks;
  string fp (scheduler_name c.scheduler);
  string fp (alloc_name c.alloc);
  bool fp c.transfers;
  bool fp (c.voltage = Scaled)
