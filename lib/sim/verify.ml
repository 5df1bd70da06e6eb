(* Functional verification: the design's simulated outputs must equal
   the golden interpreter's on the same random inputs, computation by
   computation.  Every allocator output is checked this way in the test
   suite and before every benchmark run. *)

open Mclock_dfg
module B = Mclock_util.Bitvec

type mismatch = {
  iteration : int; (* 1-based *)
  var : Var.t;
  expected : B.t;
  actual : B.t option; (* None: output never observed *)
}

type report = {
  iterations : int;
  mismatches : mismatch list;
}

let ok report = report.mismatches = []

(* The golden outputs of one stimulus, as a flat int table: row [i]
   (computation [i + 1]) holds the graph's outputs at
   [i * |outputs| + j].  It depends only on the graph, the width and
   the input rows, so every design of one graph that draws the same
   stimulus (same seed, iteration count and input columns) checks
   against one table: the boxed interpreter runs once per stimulus,
   not once per design, and the table keeps no input matrix, only its
   fingerprint, so a run of another stimulus is refused. *)
type expected = {
  x_width : int;
  x_input_vars : Var.t array; (* the input columns it was computed on *)
  x_stimulus : int; (* [fingerprint] of the input rows *)
  x_outputs : Var.t array; (* the graph's outputs: the table's columns *)
  x_rows : int;
  x_values : int array;
}

let fingerprint ins =
  Array.fold_left (Array.fold_left (fun h v -> (h * 31) + v)) 17 ins

(* The oracle is compiled once per table and the input columns are
   resolved once; the per-computation loop then only indexes arrays. *)
let expected_of_inputs ~width graph ~input_vars ins =
  let oracle = Golden.compile ~width graph in
  let in_cols =
    Array.map
      (fun v ->
        let c = Simulator.column input_vars v in
        if c < 0 then
          invalid_arg
            (Printf.sprintf "Golden.eval: missing input %s" (Var.name v));
        c)
      (Golden.inputs oracle)
  in
  let outputs = Golden.outputs oracle in
  let n_out = Array.length outputs in
  let values = Array.make (Array.length ins * n_out) 0 in
  let row = Array.make (Array.length in_cols) 0 in
  Array.iteri
    (fun idx inputs ->
      Array.iteri (fun j c -> row.(j) <- inputs.(c)) in_cols;
      Array.iteri
        (fun j v -> values.((idx * n_out) + j) <- B.to_int v)
        (Golden.run oracle row))
    ins;
  {
    x_width = width;
    x_input_vars = input_vars;
    x_stimulus = fingerprint ins;
    x_outputs = outputs;
    x_rows = Array.length ins;
    x_values = values;
  }

let expected ~seed ~iterations design graph =
  let width = Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath design) in
  let ins =
    Simulator.materialize_stimulus
      (Mclock_util.Rng.create seed)
      ~inputs:(Mclock_rtl.Design.input_ports design)
      ~width ~iterations
  in
  expected_of_inputs ~width graph
    ~input_vars:(Simulator.input_columns design)
    ins

let check_expected x (result : Simulator.result) =
  let outs = result.Simulator.outputs in
  if Array.length result.Simulator.inputs <> Array.length outs then
    invalid_arg "Verify.check: input and output row counts differ";
  if
    Array.length outs <> x.x_rows
    || Array.length result.Simulator.input_vars <> Array.length x.x_input_vars
    || not (Array.for_all2 Var.equal result.Simulator.input_vars x.x_input_vars)
    || fingerprint result.Simulator.inputs <> x.x_stimulus
  then invalid_arg "Verify.check: the result's stimulus is not the table's";
  let outputs = x.x_outputs in
  let n_out = Array.length outputs in
  let out_cols =
    Array.map (Simulator.column result.Simulator.output_vars) outputs
  in
  let mismatches = ref [] in
  for idx = 0 to x.x_rows - 1 do
    let observed = outs.(idx) in
    for j = 0 to n_out - 1 do
      let expected = x.x_values.((idx * n_out) + j) in
      let c = out_cols.(j) in
      let actual = if c < 0 then Simulator.unobserved else observed.(c) in
      if actual <> expected then
        mismatches :=
          {
            iteration = idx + 1;
            var = outputs.(j);
            expected = B.create ~width:x.x_width expected;
            actual =
              (if actual = Simulator.unobserved then None
               else Some (B.create ~width:x.x_width actual));
          }
          :: !mismatches
    done
  done;
  { iterations = result.Simulator.iterations; mismatches = List.rev !mismatches }

let check ~width graph (result : Simulator.result) =
  check_expected
    (expected_of_inputs ~width graph ~input_vars:result.Simulator.input_vars
       result.Simulator.inputs)
    result

let run ?(seed = 42) ?(iterations = 25) tech design graph =
  let width = Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath design) in
  let result = Simulator.run ~seed tech design ~iterations in
  check ~width graph result

let pp_mismatch ppf m =
  Fmt.pf ppf "iteration %d, %a: expected %a, got %a" m.iteration Var.pp m.var
    B.pp m.expected
    (Fmt.option ~none:(Fmt.any "nothing") B.pp)
    m.actual
