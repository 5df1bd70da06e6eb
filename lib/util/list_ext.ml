(* Small list helpers shared across the code base. *)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as items -> if n <= 0 then items else drop (n - 1) rest

let sum = List.fold_left ( + ) 0

let sum_by f items = List.fold_left (fun acc x -> acc + f x) 0 items

let sum_by_float f items = List.fold_left (fun acc x -> acc +. f x) 0. items

let max_by f = function
  | [] -> invalid_arg "List_ext.max_by: empty list"
  | x :: rest ->
      List.fold_left (fun best y -> if f y > f best then y else best) x rest

let min_by f = function
  | [] -> invalid_arg "List_ext.min_by: empty list"
  | x :: rest ->
      List.fold_left (fun best y -> if f y < f best then y else best) x rest

let find_by ~what ~label_of label items =
  match List.find_opt (fun x -> String.equal (label_of x) label) items with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf "%s: no item labelled %S among [%s]" what label
           (String.concat "; " (List.map label_of items)))

let zip_strict ~what a b =
  let la = List.length a and lb = List.length b in
  if la <> lb then
    invalid_arg
      (Printf.sprintf "%s: length mismatch (%d vs %d items)" what la lb);
  List.combine a b

let dedup ~compare items =
  let sorted = List.sort compare items in
  let rec go = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: (y :: _ as rest) -> if compare x y = 0 then go rest else x :: go rest
  in
  go sorted

let group_by ~key ~compare_key items =
  let tagged = List.map (fun x -> (key x, x)) items in
  let sorted = List.sort (fun (a, _) (b, _) -> compare_key a b) tagged in
  let rec go = function
    | [] -> []
    | (k, x) :: rest ->
        let same, others =
          List.partition (fun (k', _) -> compare_key k k' = 0) rest
        in
        (k, x :: List.map snd same) :: go others
  in
  go sorted

let range lo hi =
  let rec go acc i = if i < lo then acc else go (i :: acc) (i - 1) in
  go [] hi

let assoc_update ~key ~default f assoc =
  let rec go = function
    | [] -> [ (key, f default) ]
    | (k, v) :: rest -> if k = key then (k, f v) :: rest else (k, v) :: go rest
  in
  go assoc
