(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every stochastic part of the toolchain draws from a value of type
    {!t}, so a whole experiment is reproducible from one integer seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val state : t -> int64
(** The generator's complete internal state.  [of_state (state t)]
    resumes [t]'s stream exactly where it stood — the primitive that
    simulation checkpoints use to continue a stimulus stream. *)

val of_state : int64 -> t
(** A generator continuing from a captured {!state}. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator; use to give sub-tasks their own streams. *)

val bits : t -> int
(** 62 uniformly random non-negative bits. *)

val bits_matrix : t -> rows:int -> cols:int -> mask:int -> int array array
(** [bits_matrix t ~rows ~cols ~mask] is a fresh [rows x cols] matrix
    whose entry [(i, j)] is the [(i * cols + j)]-th of [rows * cols]
    successive [bits t land mask] draws, and leaves [t] where those
    draws would; it allocates only the matrix. *)

val int : t -> int -> int
(** [int t bound] is exactly uniform in [\[0, bound)] (rejection
    sampling, no modulo bias). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation. *)
