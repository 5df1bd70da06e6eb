(** Deterministic parallel execution engine.

    A fixed-size pool of OCaml 5 domains drains a shared work queue;
    batches submitted with {!map} (or {!map_rng}) are reduced in
    submission order, so the caller-observable result is byte-for-byte
    independent of the worker count: [jobs:1] and [jobs:N] agree.

    The determinism contract:
    - results come back in submission order, never completion order;
    - a task never shares a mutable RNG — {!map_rng} splits one child
      stream per task, keyed by task index, on the submitting side
      before any worker runs;
    - an exception in a task is captured with its backtrace and
      re-raised on the submitting side (lowest task index wins when
      several fail), after every task of the batch has settled, so a
      failure can neither kill a worker domain nor reorder siblings.

    Tasks must not call back into the pool that runs them (no nested
    batches); workloads here are CPU-bound leaf computations. *)

type t

val default_jobs : unit -> int
(** The [MCLOCK_JOBS] environment variable if set to a positive
    integer, else [Domain.recommended_domain_count () - 1], floored at
    1 (one spare core is left for the submitting domain). *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs <= 1] spawns
    none and runs every task inline). Default: {!default_jobs}. Raises
    [Invalid_argument] on [jobs < 1]. *)

val registry : t -> Mclock_obs.Registry.t
(** The pool's metrics registry (name ["pool"]): counters [tasks] (one
    per task run), [wall_us] (wall-clock microseconds inside tasks) and
    [alloc_bytes] (bytes allocated by the running domain inside tasks),
    summed over every batch since the pool was created. *)

val shutdown : t -> unit
(** Drains the queue and joins every worker domain. Idempotent;
    submitting to a shut-down pool raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down on the
    way out, exception or not. *)

val map : t -> ?label:(int -> string) -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [map pool f items] runs [f i item] for each item (where [i] is the
    0-based submission index) across the pool and returns the results
    in submission order. See the module header for the exception
    contract. *)

val map_rng :
  t ->
  seed:int ->
  ?label:(int -> string) ->
  (rng:Mclock_util.Rng.t -> int -> 'a -> 'b) ->
  'a list ->
  'b list
(** Like {!map}, but each task also receives a private RNG stream:
    child [i] of [Rng.create seed] split off in index order before
    submission, so streams depend only on [(seed, i)] — never on the
    worker count or on scheduling. *)
