(** List helpers shared across the code base. *)

val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list

val sum : int list -> int
val sum_by : ('a -> int) -> 'a list -> int
val sum_by_float : ('a -> float) -> 'a list -> float

val max_by : ('a -> 'b) -> 'a list -> 'a
(** Element maximising [f]; raises [Invalid_argument] on the empty list. *)

val min_by : ('a -> 'b) -> 'a list -> 'a

val find_by : what:string -> label_of:('a -> string) -> string -> 'a list -> 'a
(** [find_by ~what ~label_of label items] is the first item whose
    [label_of] equals [label]; raises [Invalid_argument] naming [what],
    the missing label and every candidate label otherwise.  Use it to
    pair rows by name instead of by position, so a reordered list fails
    loudly instead of silently mispairing. *)

val zip_strict : what:string -> 'a list -> 'b list -> ('a * 'b) list
(** [List.combine] that raises [Invalid_argument] naming [what] and
    both lengths on mismatch. *)

val dedup : compare:('a -> 'a -> int) -> 'a list -> 'a list
(** Sorted deduplicated copy. *)

val group_by :
  key:('a -> 'k) -> compare_key:('k -> 'k -> int) -> 'a list -> ('k * 'a list) list
(** Groups in order of first key occurrence after sorting; members keep
    their relative input order. *)

val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; ...; hi] (empty when [hi < lo]). *)

val assoc_update : key:'k -> default:'v -> ('v -> 'v) -> ('k * 'v) list -> ('k * 'v) list
(** Update the binding of [key] (inserting [f default] if absent). *)
