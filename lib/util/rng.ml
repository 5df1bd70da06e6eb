(* Deterministic, splittable pseudo-random number generator.

   All stochastic parts of the tool (stimulus generation, random DFGs,
   randomized allocation tie-breaking) draw from this generator so that
   every experiment is reproducible from a single integer seed.  The core
   is SplitMix64, which has good statistical quality for simulation
   purposes and supports O(1) splitting. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* The whole generator is its 64-bit counter, so a stream can be
   suspended and resumed exactly: [of_state (state t)] continues the
   draw sequence where [t] stood.  This is what makes simulation
   checkpoints deterministic — the resumed run draws precisely the
   stimulus the uninterrupted run would have drawn. *)
let state t = t.state

let of_state s = { state = s }

(* SplitMix64 finalizer.  Inlined so [bits_matrix] keeps its int64s
   unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  { state = seed }

let max_bits = 0x3FFFFFFFFFFFFFFF

let bits t = Int64.to_int (Int64.logand (next_int64 t) 0x3FFFFFFFFFFFFFFFL)

(* [bits] drawn [rows * cols] times, row by row.  Each [bits] call
   stores a freshly boxed counter into [t]; here the counter is a local,
   which the compiler keeps unboxed, and [t] is written once. *)
let bits_matrix t ~rows ~cols ~mask =
  let m = Array.make_matrix rows cols 0 in
  let s = ref t.state in
  for i = 0 to rows - 1 do
    let row = m.(i) in
    for j = 0 to cols - 1 do
      s := Int64.add !s golden_gamma;
      row.(j) <-
        Int64.to_int (Int64.logand (mix !s) 0x3FFFFFFFFFFFFFFFL) land mask
    done
  done;
  t.state <- !s;
  m

(* Rejection sampling: [bits] spans [0, 2^62), which a non-power-of-two
   [bound] does not divide, so a plain [mod] over-weights the low
   residues.  Draws in the final partial block are rejected instead;
   power-of-two bounds reduce to a mask (identical to the old [mod]). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits t land (bound - 1)
  else
    let rec draw () =
      let b = bits t in
      let r = b mod bound in
      if b - r > max_bits - (bound - 1) then draw () else r
    in
    draw ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (x /. 9007199254740992.0)

(* One [Array.of_list] instead of two list traversals
   ([List.length] + [List.nth]).  Consumes exactly one [int] draw, like
   the list-based implementation it replaced, so seeded streams are
   unchanged (regression-tested in test_util). *)
let choose t items =
  match items with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ :: _ ->
      let arr = Array.of_list items in
      arr.(int t (Array.length arr))

let shuffle t items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
