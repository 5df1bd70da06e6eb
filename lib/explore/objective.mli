(** Scalarized objectives over cell metrics.

    A linear combination of per-metric weights —
    ["power"], ["0.7*power+0.2*area+0.1*latency"] — turned into a
    single comparable score per candidate so that "best" is
    well-defined for the successive-halving keep-rule and for
    [mclock explore --best].

    Each metric is min-max normalized across the candidate set being
    compared (a halving rung, or the evaluated cells of an
    exploration) before weighting, so weights express relative
    priorities rather than unit conversions.  Scores are deterministic
    functions of the candidate metrics: the same candidates in the
    same order always score identically, whatever produced the metrics
    (fresh simulation or cache hit). *)

type metric = Power | Area | Latency | Energy | Memory

type t
(** A non-empty weighted sum of metrics; at least one weight is
    positive, none is negative. *)

val metrics : metric list
(** Every metric, in canonical order. *)

val metric_name : metric -> string
(** ["power"], ["area"], ["latency"], ["energy"], ["mem"]. *)

val metric_value : metric -> Metrics.t -> float

val default : t
(** Pure power minimization (["power"]). *)

val of_weights : (metric * float) list -> (t, string) result
(** Weights for unlisted metrics default to 0; duplicates accumulate.
    Errors on a negative or non-finite weight and on an all-zero
    objective. *)

val weight : t -> metric -> float

val parse : string -> (t, string) result
(** Grammar: terms joined by [+], each term [WEIGHT*METRIC] or a bare
    [METRIC] (weight 1).  An unknown metric name is diagnosed with the
    list of valid metrics. *)

val to_string : t -> string
(** Canonical rendering; [parse (to_string t)] reproduces [t]. *)

val equal : t -> t -> bool

val scores : t -> Metrics.t list -> float list
(** One score per candidate, same order; lower is better.  Each
    weighted metric is min-max normalized across the candidates; a
    degenerate metric (all candidates equal) contributes 0 to every
    score, so a single-candidate list scores [0.]. *)

val best : t -> Metrics.t list -> (int * float) option
(** Index and score of the lowest-scoring candidate; the earliest
    index wins ties, so with candidates in canonical (enumeration)
    order the tie-break is canonical config order.  [None] on the
    empty list. *)
