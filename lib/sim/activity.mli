(** Switched-energy bookkeeping (pJ) per component and mechanism. *)

type category =
  | Clock
  | Storage_write
  | Data
  | Alu_internal
  | Mux_data
  | Mux_select
  | Control
  | Isolation
  | Gating

val all_categories : category list
val category_name : category -> string

val num_categories : int

val category_index : category -> int
(** A category's offset within a component's cells: cell
    [comp * num_categories + category_index c] holds what {!get}
    returns for [(comp, c)].  Exported for kernels that keep their own
    flat cell array and hand it to {!of_raw} when done. *)

type t

val global_component : int
(** Pseudo component id for design-global costs (control network). *)

val create : ?max_comp:int -> unit -> t
(** [create ()] starts with room for [max_comp] components and grows on
    demand; pass the design's component count to avoid regrowth. *)

val add : t -> comp:int -> category:category -> float -> unit
val total : t -> float

val of_raw : cells:float array -> total:float -> t
(** An accumulator over a flat cell array laid out as
    {!category_index} describes (copies [cells]).  [total] is the
    running sum in charge order, carried verbatim: re-summing the
    cells would reassociate the additions and drift by ULPs. *)

val get : t -> comp:int -> category:category -> float
(** Energy charged to one (component, category) cell; 0 if never charged. *)

val by_category : t -> (category * float) list
val by_component : t -> (int * float) list
(** Per-component totals in ascending component order. *)

val of_component : t -> int -> float

val equal_cells : t -> t -> bool
(** Per-(component, category) exact float equality — the differential
    harness's acceptance predicate for compiled vs. reference kernels. *)
