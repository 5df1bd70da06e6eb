(* The controller: one control word per schedule step, cycled forever.

   A word lists the mux selections, storage load-enables and ALU
   function selections for its step.  Anything unspecified *holds* its
   previous value — the paper's latched-control discipline (§3.2) is
   obtained by simply not re-specifying a partition's controls outside
   its own phase, and the microcode generator (mclock_core.Microcode)
   decides that policy.  The simulator charges control-line power per
   actual change, so held lines are free, as in the paper. *)

open Mclock_dfg

type word = {
  selects : (int * int) list; (* mux component id -> chosen input index *)
  loads : int list; (* storage component ids written this step *)
  alu_ops : (int * Op.t) list; (* alu component id -> function this step *)
}

let empty_word = { selects = []; loads = []; alu_ops = [] }

type t = { words : word array }

(* A word assigns each line at most once: a mux select, ALU function or
   load-enable listed twice in one step has no single held value. *)
let check_word step w =
  let once what ids =
    let rec go = function
      | a :: (b :: _ as rest) ->
          if a = b then
            invalid_arg
              (Printf.sprintf "Control.create: step %d assigns %s %d twice"
                 step what a);
          go rest
      | [ _ ] | [] -> ()
    in
    go (List.sort Int.compare ids)
  in
  once "mux" (List.map fst w.selects);
  once "load" w.loads;
  once "ALU" (List.map fst w.alu_ops)

let create words =
  if words = [] then invalid_arg "Control.create: no control words";
  List.iteri (fun i w -> check_word (i + 1) w) words;
  { words = Array.of_list words }

let num_steps t = Array.length t.words

let word t ~step =
  if step < 1 then invalid_arg "Control.word: step must be >= 1";
  t.words.((step - 1) mod Array.length t.words)

let select t ~step ~mux = List.assoc_opt mux (word t ~step).selects

let loads t ~step = (word t ~step).loads

let alu_op t ~step ~alu = List.assoc_opt alu (word t ~step).alu_ops

let pp_word ppf w =
  Fmt.pf ppf "sel={%a} load={%a} op={%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (m, i) -> Fmt.pf ppf "c%d:%d" m i))
    w.selects
    (Fmt.list ~sep:Fmt.comma (fun ppf i -> Fmt.pf ppf "c%d" i))
    w.loads
    (Fmt.list ~sep:Fmt.comma (fun ppf (a, op) -> Fmt.pf ppf "c%d:%s" a (Op.name op)))
    w.alu_ops

let pp ppf t =
  Fmt.pf ppf "@[<v>controller (%d steps)@,%a@]" (num_steps t)
    (Fmt.list ~sep:Fmt.cut (fun ppf (i, w) -> Fmt.pf ppf "T%d: %a" (i + 1) pp_word w))
    (Array.to_list (Array.mapi (fun i w -> (i, w)) t.words))
