(** One point of the design-space exploration grid: how to schedule and
    allocate a behaviour, and whether to trade the result through
    voltage-scaled duplication. *)

type scheduler = Asap | Alap | Force_directed | List_scheduler

type alloc = Conventional | Gated | Integrated | Split

type voltage =
  | Nominal  (** full supply, datapath as synthesized *)
  | Scaled
      (** the duplication alternative (paper [12]): [clocks] parallel
          copies of the single-clock datapath at [f/clocks] and the
          correspondingly reduced supply *)

type t = {
  clocks : int;
      (** clock count for [Integrated]/[Split]; copy count for a
          [Scaled] conventional design; 1 otherwise *)
  scheduler : scheduler;
  alloc : alloc;
  transfers : bool;
      (** cross-partition transfer insertion ([Integrated] only; the
          [false] arm is the MC006 ablation and needs [clocks >= 2]) *)
  voltage : voltage;
}

val is_valid : max_clocks:int -> t -> bool
(** The grid contains no redundant or meaningless points: single-clock
    allocators pin [clocks] to 1 unless duplicated, [Split] starts at
    2 clocks, only conventional styles can be voltage-scaled, and the
    no-transfers ablation exists only where transfers could fire. *)

val enumerate : max_clocks:int -> t list
(** Every valid configuration, in a canonical deterministic order
    (scheduler-major, then allocator, clock count, transfers,
    voltage).  Raises [Invalid_argument] if [max_clocks < 1]. *)

val schedulers : scheduler list
val scheduler_name : scheduler -> string
val alloc_name : alloc -> string

val label : t -> string
(** Compact cell label, e.g. ["asap/mc3"], ["fds/conv+dup2"],
    ["alap/mc2-noxfer"]. *)

val compare : t -> t -> int

val schedule :
  t ->
  constraints:Mclock_sched.List_sched.constraints ->
  Mclock_dfg.Graph.t ->
  Mclock_sched.Schedule.t
(** Schedule the behaviour with the configuration's scheduler
    ([constraints] feed the list scheduler; the others ignore it). *)

val flow_method : t -> Mclock_core.Flow.method_
(** The synthesis entry point for the configuration's allocator (the
    [Scaled] transform is applied after evaluation, not here). *)

val synthesize :
  ?tech:Mclock_tech.Library.t ->
  ?width:int ->
  t ->
  name:string ->
  Mclock_sched.Schedule.t ->
  Mclock_rtl.Design.t
(** Synthesize (and lint) the configuration's design through
    {!Mclock_core.Flow.synthesize}, the transfer ablation included. *)

val fingerprint : Mclock_util.Fingerprint.t -> t -> unit
