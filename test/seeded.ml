(* QCheck properties as Alcotest cases on a reproducible random stream.
   Every property draws from its own state seeded with [seed]: a fixed
   default, overridden by the QCHECK_SEED environment variable, so a
   plain [dune runtest] checks the same cases every time.  A failing
   property prints the seed it ran with before re-raising, so a red run
   replays exactly with QCHECK_SEED set to it. *)

let default_seed = 42

let seed =
  match Option.map String.trim (Sys.getenv_opt "QCHECK_SEED") with
  | None | Some "" -> default_seed
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> invalid_arg (Printf.sprintf "QCHECK_SEED=%S: not an integer" s))

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "property failed at QCHECK_SEED=%d\n%!" seed;
        raise e )
