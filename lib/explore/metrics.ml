(* Cell metrics and pruning bounds.

   The exploration engine decides three times per cell whether work can
   be skipped: constraint pruning (on [bounds], before simulation),
   cache lookup (on the digest), and frontier extraction (on [t]).
   Everything in this module is therefore deterministic and — for the
   cache — bit-exact under a JSON round-trip: floats travel as
   hexadecimal float literals ("%h"), never as decimal renderings. *)

type t = {
  power_mw : float;
  area : float;
  latency_steps : int;
  energy_per_computation_pj : float;
  memory_cells : int;
  mux_inputs : int;
  functional_ok : bool;
}

type bounds = {
  b_area : float;
  b_latency_steps : int;
  b_memory_cells : int;
  b_power_mw : float;
  b_energy_pj : float;
}

(* Area and storage of the [Scaled] duplication variant, derivable from
   the single-copy design without simulating: n copies of the component
   area, the base overhead counted once (same arithmetic as
   [Voltage.duplicate]). *)
let scaled_area tech ~copies area =
  let base = tech.Mclock_tech.Library.base_area in
  base +. (float_of_int copies *. (area -. base))

(* The quadratic voltage factor of the [Scaled] duplication variant:
   power (and per-computation energy) of the n-copy low-voltage array
   relative to the single-copy design — exactly the ratio
   [Voltage.duplicate] applies to its measured baseline, so bounds and
   estimates transform the same way evaluated metrics do. *)
let scaled_power_factor tech ~copies =
  let vdd = tech.Mclock_tech.Library.supply_voltage in
  let v = Mclock_power.Voltage.scaled_voltage ~vdd (float_of_int copies) in
  v /. vdd *. (v /. vdd)

(* One static analysis yields both the certified bounds (for pruning)
   and the expected-power estimate (the halving seed pool's ranking
   key); computing them together halves the analyzer invocations per
   cell. *)
let bounds_and_estimate_of_design ~config ~iterations tech design =
  let area =
    (Mclock_power.Area.of_design tech design).Mclock_power.Area.design_total
  in
  let cells = Mclock_rtl.Datapath.memory_cells (Mclock_rtl.Design.datapath design) in
  let a = Mclock_static.Analyze.run ~iterations tech design in
  let b_power_mw = a.Mclock_static.Analyze.b_power_mw in
  let b_energy_pj = a.Mclock_static.Analyze.b_energy_pj in
  let est_power = a.Mclock_static.Analyze.est_power_mw in
  let est_energy = a.Mclock_static.Analyze.est_energy_pj in
  match config.Config.voltage with
  | Config.Nominal ->
      ( {
          b_area = area;
          b_latency_steps = Mclock_rtl.Design.num_steps design;
          b_memory_cells = cells;
          b_power_mw;
          b_energy_pj;
        },
        est_power,
        est_energy )
  | Config.Scaled ->
      let factor = scaled_power_factor tech ~copies:config.Config.clocks in
      ( {
          b_area = scaled_area tech ~copies:config.Config.clocks area;
          b_latency_steps = Mclock_rtl.Design.num_steps design;
          b_memory_cells = config.Config.clocks * cells;
          b_power_mw = b_power_mw *. factor;
          b_energy_pj = b_energy_pj *. factor;
        },
        est_power *. factor,
        est_energy *. factor )

let bounds_of_design ~config ~iterations tech design =
  let b, _, _ = bounds_and_estimate_of_design ~config ~iterations tech design in
  b

let of_report ~config ~tech ~latency_steps (r : Mclock_power.Report.t) =
  let base =
    {
      power_mw = r.Mclock_power.Report.power_mw;
      area = r.Mclock_power.Report.area.Mclock_power.Area.design_total;
      latency_steps;
      energy_per_computation_pj =
        r.Mclock_power.Report.energy_per_computation_pj;
      memory_cells = r.Mclock_power.Report.memory_cells;
      mux_inputs = r.Mclock_power.Report.mux_inputs;
      functional_ok = r.Mclock_power.Report.functional_ok;
    }
  in
  match config.Config.voltage with
  | Config.Nominal -> base
  | Config.Scaled ->
      let n = config.Config.clocks in
      let d =
        Mclock_power.Voltage.duplicate ~tech ~baseline_power_mw:base.power_mw
          ~baseline_area:base.area n
      in
      (* Throughput is preserved (n copies at f/n), so per-computation
         energy scales exactly like power: the quadratic voltage
         factor. *)
      let ratio = d.Mclock_power.Voltage.power_mw /. base.power_mw in
      {
        base with
        power_mw = d.Mclock_power.Voltage.power_mw;
        area = d.Mclock_power.Voltage.area;
        energy_per_computation_pj = base.energy_per_computation_pj *. ratio;
        memory_cells = n * base.memory_cells;
        mux_inputs = n * base.mux_inputs;
      }

type constraint_ =
  | Max_area of float
  | Max_latency of int
  | Max_memory of int
  | Max_power of float  (** certified upper bound [b_power_mw], mW *)
  | Max_energy of float  (** certified upper bound [b_energy_pj], pJ *)

let parse_constraint s =
  let s = String.trim s in
  match String.index_opt s '<' with
  | Some i
    when i + 1 < String.length s && s.[i + 1] = '=' ->
      let name = String.trim (String.sub s 0 i) in
      let value = String.trim (String.sub s (i + 2) (String.length s - i - 2)) in
      (match (String.lowercase_ascii name, value) with
      | "area", v -> (
          match float_of_string_opt v with
          | Some f when f > 0. -> Ok (Max_area f)
          | _ -> Error (Printf.sprintf "bad area bound %S" v))
      | "latency", v -> (
          match int_of_string_opt v with
          | Some i when i > 0 -> Ok (Max_latency i)
          | _ -> Error (Printf.sprintf "bad latency bound %S" v))
      | ("mem" | "memory"), v -> (
          match int_of_string_opt v with
          | Some i when i > 0 -> Ok (Max_memory i)
          | _ -> Error (Printf.sprintf "bad memory bound %S" v))
      | "power", v -> (
          match float_of_string_opt v with
          | Some f when f > 0. -> Ok (Max_power f)
          | _ -> Error (Printf.sprintf "bad power bound %S" v))
      | "energy", v -> (
          match float_of_string_opt v with
          | Some f when f > 0. -> Ok (Max_energy f)
          | _ -> Error (Printf.sprintf "bad energy bound %S" v))
      | other, _ ->
          Error
            (Printf.sprintf
               "unknown metric %S in constraint (valid metrics: area, \
                latency, mem, power, energy)"
               other))
  | _ ->
      Error
        (Printf.sprintf
           "cannot parse constraint %S (expected NAME<=VALUE, e.g. \
            area<=12000)"
           s)

(* [%g] (that is [%.6g]) when it reads back exactly, else the fewest
   digits that do. *)
let exact_float f =
  let rec go precision =
    let s = Printf.sprintf "%.*g" precision f in
    if precision >= 17 || float_of_string s = f then s else go (precision + 1)
  in
  go 6

let constraint_to_string = function
  | Max_area f -> "area<=" ^ exact_float f
  | Max_latency i -> Printf.sprintf "latency<=%d" i
  | Max_memory i -> Printf.sprintf "mem<=%d" i
  | Max_power f -> "power<=" ^ exact_float f
  | Max_energy f -> "energy<=" ^ exact_float f

let satisfies b = function
  | Max_area f -> b.b_area <= f
  | Max_latency i -> b.b_latency_steps <= i
  | Max_memory i -> b.b_memory_cells <= i
  | Max_power f -> b.b_power_mw <= f
  | Max_energy f -> b.b_energy_pj <= f

let violated ~constraints b =
  List.filter (fun c -> not (satisfies b c)) constraints

let admissible ~constraints b = List.for_all (satisfies b) constraints

let equal a b =
  Float.equal a.power_mw b.power_mw
  && Float.equal a.area b.area
  && a.latency_steps = b.latency_steps
  && Float.equal a.energy_per_computation_pj b.energy_per_computation_pj
  && a.memory_cells = b.memory_cells
  && a.mux_inputs = b.mux_inputs
  && a.functional_ok = b.functional_ok

(* --- Bit-exact JSON ---------------------------------------------------- *)

(* "%h" renders the exact binary value ("0x1.91eb851eb851fp+1"); decimal
   JSON floats would round-trip through two conversions and any
   discrepancy would make a warm-cache frontier differ from a cold one. *)
let float_to_json f = Mclock_util.Json.String (Printf.sprintf "%h" f)

let float_of_json = function
  | Mclock_util.Json.String s -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad hex float %S" s))
  | _ -> Error "expected a hex-float string"

let to_json m =
  Mclock_util.Json.Obj
    [
      ("power_mw", float_to_json m.power_mw);
      ("area", float_to_json m.area);
      ("latency_steps", Mclock_util.Json.Int m.latency_steps);
      ("energy_per_computation_pj", float_to_json m.energy_per_computation_pj);
      ("memory_cells", Mclock_util.Json.Int m.memory_cells);
      ("mux_inputs", Mclock_util.Json.Int m.mux_inputs);
      ("functional_ok", Mclock_util.Json.Bool m.functional_ok);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name =
    match Mclock_util.Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let float_field name = Result.bind (field name) float_of_json in
  let int_field name =
    let* v = field name in
    match v with
    | Mclock_util.Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "field %S: expected int" name)
  in
  let bool_field name =
    let* v = field name in
    match v with
    | Mclock_util.Json.Bool b -> Ok b
    | _ -> Error (Printf.sprintf "field %S: expected bool" name)
  in
  let* power_mw = float_field "power_mw" in
  let* area = float_field "area" in
  let* latency_steps = int_field "latency_steps" in
  let* energy_per_computation_pj = float_field "energy_per_computation_pj" in
  let* memory_cells = int_field "memory_cells" in
  let* mux_inputs = int_field "mux_inputs" in
  let* functional_ok = bool_field "functional_ok" in
  Ok
    {
      power_mw;
      area;
      latency_steps;
      energy_per_computation_pj;
      memory_cells;
      mux_inputs;
      functional_ok;
    }

let fingerprint fp m =
  let open Mclock_util.Fingerprint in
  string fp "metrics";
  float fp m.power_mw;
  float fp m.area;
  int fp m.latency_steps;
  float fp m.energy_per_computation_pj;
  int fp m.memory_cells;
  int fp m.mux_inputs;
  bool fp m.functional_ok
