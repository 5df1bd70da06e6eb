(* Deterministic parallel execution engine on OCaml 5 domains.

   A fixed set of worker domains drains one shared queue of closures.
   Determinism comes from three choices, none of which cost measurable
   throughput:

   - results are reduced in submission order (each task writes into its
     own slot of a batch-local array, the submitter reads the array
     left to right), so completion order is unobservable;
   - per-task RNG streams are split off the master generator on the
     submitting side, keyed by task index, before any worker runs;
   - task exceptions are captured (with backtrace) in the task's slot
     and re-raised by the submitter once the whole batch has settled —
     a failing task can neither kill a domain nor reorder siblings.

   Telemetry (wall clock + allocated bytes per task) goes to the pool's
   `Mclock_obs.Registry` (tasks, wall_us, alloc_bytes), and when tracing
   is on each task runs inside a span parented to the span that
   submitted the batch — the submitter's ambient context is captured
   once per batch and re-installed on the worker domain around the task
   body. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : (int -> unit) Queue.t; (* closures receive their worker index *)
  work_available : Condition.t;
  batch_done : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  obs : Mclock_obs.Registry.t;
  c_tasks : Mclock_obs.Registry.counter;
  c_wall_us : Mclock_obs.Registry.counter;
  c_alloc_bytes : Mclock_obs.Registry.counter;
}

let default_jobs () =
  match Sys.getenv_opt "MCLOCK_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "MCLOCK_JOBS=%S: expected a positive integer" s))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let rec worker_loop t worker_id =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.work) then Some (Queue.pop t.work)
    else if t.closed then None
    else begin
      Condition.wait t.work_available t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
      Mutex.unlock t.mutex;
      job worker_id;
      worker_loop t worker_id

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Exec.Pool.create: jobs must be >= 1";
  let obs = Mclock_obs.Registry.create ~name:"pool" () in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Queue.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      closed = false;
      workers = [];
      obs;
      c_tasks = Mclock_obs.Registry.counter obs "tasks";
      c_wall_us = Mclock_obs.Registry.counter obs "wall_us";
      c_alloc_bytes = Mclock_obs.Registry.counter obs "alloc_bytes";
    }
  in
  if jobs > 1 then
    t.workers <-
      List.init jobs (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let registry t = t.obs

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One task: run [f], fill the result/error slot, and count the task's
   wall time and allocation in the registry (atomic, so any domain may
   bump it).  Runs on a worker domain (or the submitting domain when
   jobs = 1), so [Gc.allocated_bytes] is the running domain's own
   counter.  [parent] is the submitter's ambient span context,
   re-installed here so the task span (and anything the task opens)
   nests under the submitting job in the trace. *)
let run_slot t ~parent ~label ~results ~errors f i x worker_id =
  Mclock_obs.Obs.with_context parent (fun () ->
      Mclock_obs.Obs.with_span ~cat:"pool" ~name:(label i)
        ~attrs:[ ("worker", string_of_int worker_id) ]
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let a0 = Gc.allocated_bytes () in
          (try results.(i) <- Some (f i x)
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             errors.(i) <- Some (e, bt));
          Mclock_obs.Registry.incr t.c_tasks;
          Mclock_obs.Registry.incr t.c_wall_us
            ~by:(int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
          Mclock_obs.Registry.incr t.c_alloc_bytes
            ~by:(int_of_float (Gc.allocated_bytes () -. a0))))

let map t ?label f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let label = match label with Some l -> l | None -> Printf.sprintf "task %d" in
  let results = Array.make n None in
  let errors = Array.make n None in
  let parent = Mclock_obs.Obs.context () in
  let run_slot i x w = run_slot t ~parent ~label ~results ~errors f i x w in
  if n > 0 then
    if t.jobs <= 1 || n = 1 then begin
      if t.closed then invalid_arg "Exec.Pool.map: pool is shut down";
      Array.iteri (fun i x -> run_slot i x 0) arr
    end
    else begin
      let remaining = ref n in
      Mutex.lock t.mutex;
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Exec.Pool.map: pool is shut down"
      end;
      Array.iteri
        (fun i x ->
          Queue.push
            (fun worker_id ->
              run_slot i x worker_id;
              Mutex.lock t.mutex;
              decr remaining;
              if !remaining = 0 then Condition.broadcast t.batch_done;
              Mutex.unlock t.mutex)
            t.work)
        arr;
      Condition.broadcast t.work_available;
      while !remaining > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      Mutex.unlock t.mutex
    end;
  (* Lowest-index failure wins, deterministically. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    errors;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> invalid_arg "Exec.Pool.map: task produced no result")
       results)

let map_rng t ~seed ?label f items =
  let master = Mclock_util.Rng.create seed in
  (* Split one child per task up front: stream [i] depends only on
     [(seed, i)], never on which worker runs the task. *)
  let streams =
    Array.init (List.length items) (fun _ -> Mclock_util.Rng.split master)
  in
  map t ?label (fun i x -> f ~rng:streams.(i) i x) items
