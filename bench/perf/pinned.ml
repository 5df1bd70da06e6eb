(* What the full-scale workloads (Scenario.full) must reproduce.
   [counts] hold at every seed; [digest] (of the result documents),
   [functional] and [seed42_counts] hold at seed 42.  A change that
   moves any of them changed what the benchmark measures or what the
   program answers. *)

let digest = function
  | "explore_cold" | "explore_warm" -> "d534735b7932bdca4ab391e52b325583"
  | "search_cold" -> "925d7ffe10d912794ebe4aa1e544e5bc"
  | "paper_eval" -> "c43ac55f9b9579d12be704af0c2e6f19"
  | w -> invalid_arg ("Pinned.digest: " ^ w)

(* Cells (search: candidate evaluations) the golden model accepts.  Not
   every seed's stimulus passes: at seed 10, FACET's integrated and
   split designs mismatch the golden model within 2000 computations. *)
let functional = function
  | "explore_cold" | "explore_warm" -> 504
  | "search_cold" -> 1001
  | "paper_eval" -> 56
  | w -> invalid_arg ("Pinned.functional: " ^ w)

let counts = function
  | "explore_cold" ->
      [
        ("explore.cells_simulated", 504);
        ("explore.cache_hits", 0);
        ("explore.pruned", 0);
        ("sim.cycles", 235200);
        ("store.writes", 504);
        ("store.ckpt_writes", 0);
        ("static.calls", 504);
        ("exec.tasks", 504);
      ]
  | "explore_warm" ->
      [
        ("explore.cells_simulated", 0);
        ("explore.cache_hits", 504);
        ("explore.pruned", 0);
        ("sim.cycles", 0);
        ("store.writes", 0);
        ("store.ckpt_writes", 0);
        ("static.calls", 504);
        ("exec.tasks", 0);
      ]
  | "search_cold" ->
      [ ("explore.cache_hits", 0); ("explore.pruned", 0); ("static.calls", 504) ]
  | "paper_eval" -> [ ("sim.cycles", 1186000); ("static.calls", 0); ("exec.tasks", 56) ]
  | w -> invalid_arg ("Pinned.counts: " ^ w)

(* A search keeps each rung's best-scoring candidates, and scores depend
   on the stimulus: which designs go on (and so [sim.cycles]) changes
   with the seed, and where a seed makes cells fail the golden model
   (see [functional]) so does how many. *)
let seed42_counts = function
  | "search_cold" ->
      [
        ("explore.cells_simulated", 1001);
        ("search.simulated_iterations", 4662);
        ("search.resumed", 497);
        ("sim.cycles", 42645);
        ("store.writes", 1001);
        ("store.ckpt_writes", 1001);
        ("exec.tasks", 1001);
      ]
  | "explore_cold" | "explore_warm" | "paper_eval" -> []
  | w -> invalid_arg ("Pinned.seed42_counts: " ^ w)
