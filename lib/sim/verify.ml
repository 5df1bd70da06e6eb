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

(* The oracle is compiled once per call and the column maps between
   the graph's variables and the result's matrices are resolved once;
   the per-computation loop then only indexes arrays. *)
let check ~width graph (result : Simulator.result) =
  let oracle = Golden.compile ~width graph in
  let in_cols =
    Array.map
      (fun v ->
        let c = Simulator.column result.Simulator.input_vars v in
        if c < 0 then
          invalid_arg
            (Printf.sprintf "Golden.eval: missing input %s" (Var.name v));
        c)
      (Golden.inputs oracle)
  in
  let outputs = Golden.outputs oracle in
  let out_cols =
    Array.map (Simulator.column result.Simulator.output_vars) outputs
  in
  let ins = result.Simulator.inputs and outs = result.Simulator.outputs in
  if Array.length ins <> Array.length outs then
    invalid_arg "Verify.check: input and output row counts differ";
  let row = Array.make (Array.length in_cols) 0 in
  let mismatches = ref [] in
  for idx = 0 to Array.length ins - 1 do
    let inputs = ins.(idx) and observed = outs.(idx) in
    Array.iteri (fun j c -> row.(j) <- inputs.(c)) in_cols;
    let golden = Golden.run oracle row in
    Array.iteri
      (fun j expected ->
        let c = out_cols.(j) in
        let actual = if c < 0 then Simulator.unobserved else observed.(c) in
        if actual <> B.to_int expected then
          mismatches :=
            {
              iteration = idx + 1;
              var = outputs.(j);
              expected;
              actual =
                (if actual = Simulator.unobserved then None
                 else Some (B.create ~width actual));
            }
            :: !mismatches)
      golden
  done;
  { iterations = result.Simulator.iterations; mismatches = List.rev !mismatches }

let run ?(seed = 42) ?(iterations = 25) tech design graph =
  let width = Mclock_rtl.Datapath.width (Mclock_rtl.Design.datapath design) in
  let result = Simulator.run ~seed tech design ~iterations in
  check ~width graph result

let pp_mismatch ppf m =
  Fmt.pf ppf "iteration %d, %a: expected %a, got %a" m.iteration Var.pp m.var
    B.pp m.expected
    (Fmt.option ~none:(Fmt.any "nothing") B.pp)
    m.actual
