(* Switched-energy bookkeeping for the simulator.

   Energy is accrued per (component, category) in picojoules; the
   categories separate the physical mechanisms so reports can show
   where a design style wins:
   - Clock: clock pins and clock tree;
   - Storage_write: internal write energy of storage elements;
   - Data: output-net transitions of any component;
   - Alu_internal: combinational switching inside ALUs;
   - Mux_data / Mux_select: mux datapath and select lines;
   - Control: controller output network (loads, function selects);
   - Isolation: operand-isolation cells;
   - Gating: clock-gating cells.

   Storage is a flat float array indexed [comp * num_categories + cat]
   (grown on demand), so [add] — called once per charge by the
   reference simulator and the static analysis — is a bounds check and
   one array update, and the aggregate queries are single passes in
   deterministic index order.  The compiled kernel keeps its own array
   in this layout and wraps it with [of_raw] when a run ends.  All
   charges are non-negative, so a non-zero cell is exactly "this
   (comp, category) was ever charged". *)

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

let all_categories =
  [ Clock; Storage_write; Data; Alu_internal; Mux_data; Mux_select; Control; Isolation; Gating ]

let num_categories = List.length all_categories

let category_index = function
  | Clock -> 0
  | Storage_write -> 1
  | Data -> 2
  | Alu_internal -> 3
  | Mux_data -> 4
  | Mux_select -> 5
  | Control -> 6
  | Isolation -> 7
  | Gating -> 8

let category_name = function
  | Clock -> "clock"
  | Storage_write -> "storage-write"
  | Data -> "data"
  | Alu_internal -> "alu-internal"
  | Mux_data -> "mux-data"
  | Mux_select -> "mux-select"
  | Control -> "control"
  | Isolation -> "isolation"
  | Gating -> "gating"

type t = {
  mutable cells : float array; (* comp * num_categories + category -> pJ *)
  mutable total : float;
}

(* Component id 0 is reserved for design-global costs (the control
   network); real components start at 1. *)
let global_component = 0

let create ?(max_comp = 15) () =
  { cells = Array.make ((max_comp + 1) * num_categories) 0.; total = 0. }

let grow t comp =
  let needed = (comp + 1) * num_categories in
  let cells = Array.make (max needed (2 * Array.length t.cells)) 0. in
  Array.blit t.cells 0 cells 0 (Array.length t.cells);
  t.cells <- cells

(* Small enough to inline: the growth path is out of line behind one
   bound check, which a pre-sized accumulator never fails. *)
let[@inline] add t ~comp ~category pj =
  if pj <> 0. then begin
    let i = (comp * num_categories) + category_index category in
    if i >= Array.length t.cells then grow t comp;
    t.cells.(i) <- t.cells.(i) +. pj;
    t.total <- t.total +. pj
  end

let total t = t.total

(* [total] is the running float accumulation, not a derived quantity:
   re-summing the cells would reassociate the additions and drift from
   the accumulating kernel by ULPs, so it is carried verbatim. *)
let of_raw ~cells ~total = { cells = Array.copy cells; total }

let max_comp t = (Array.length t.cells / num_categories) - 1

let get t ~comp ~category =
  let i = (comp * num_categories) + category_index category in
  if i < Array.length t.cells then t.cells.(i) else 0.

(* One pass over the cells, summing per category in component order;
   categories nobody charged are omitted. *)
let by_category t =
  let sums = Array.make num_categories 0. in
  Array.iteri
    (fun i pj -> sums.(i mod num_categories) <- sums.(i mod num_categories) +. pj)
    t.cells;
  List.filter_map
    (fun cat ->
      let sum = sums.(category_index cat) in
      if sum = 0. then None else Some (cat, sum))
    all_categories

(* One pass per component: sum its category cells; components never
   charged are omitted.  Output is in ascending component order. *)
let by_component t =
  let acc = ref [] in
  for comp = max_comp t downto 0 do
    let base = comp * num_categories in
    let sum = ref 0. in
    for c = 0 to num_categories - 1 do
      sum := !sum +. t.cells.(base + c)
    done;
    if !sum <> 0. then acc := (comp, !sum) :: !acc
  done;
  !acc

let of_component t comp =
  let base = comp * num_categories in
  let sum = ref 0. in
  if base + num_categories <= Array.length t.cells then
    for c = 0 to num_categories - 1 do
      sum := !sum +. t.cells.(base + c)
    done;
  !sum

(* Cell-exact equality: same per-(component, category) energies.  Used
   by the compiled-vs-reference differential harness. *)
let equal_cells a b =
  let n = max (Array.length a.cells) (Array.length b.cells) in
  let cell t i = if i < Array.length t.cells then t.cells.(i) else 0. in
  let rec go i = i >= n || (Float.equal (cell a i) (cell b i) && go (i + 1)) in
  go 0
