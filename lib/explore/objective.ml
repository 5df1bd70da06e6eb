(* Scalarized objectives: a weight vector over the metric axes plus
   per-candidate-set min-max normalization.

   Normalization happens per comparison set (per halving rung), never
   globally, so a weight of 0.7 on power always means "70% of the
   spread observed among the candidates under comparison" — the score
   is invariant under affine rescaling of any metric. *)

type metric = Power | Area | Latency | Energy | Memory

let metrics = [ Power; Area; Latency; Energy; Memory ]

let metric_name = function
  | Power -> "power"
  | Area -> "area"
  | Latency -> "latency"
  | Energy -> "energy"
  | Memory -> "mem"

let metric_of_name s =
  match String.lowercase_ascii s with
  | "power" -> Some Power
  | "area" -> Some Area
  | "latency" -> Some Latency
  | "energy" -> Some Energy
  | "mem" | "memory" -> Some Memory
  | _ -> None

let valid_metric_names = String.concat ", " (List.map metric_name metrics)

let metric_value m (v : Metrics.t) =
  match m with
  | Power -> v.Metrics.power_mw
  | Area -> v.Metrics.area
  | Latency -> float_of_int v.Metrics.latency_steps
  | Energy -> v.Metrics.energy_per_computation_pj
  | Memory -> float_of_int v.Metrics.memory_cells

let index_of = function
  | Power -> 0
  | Area -> 1
  | Latency -> 2
  | Energy -> 3
  | Memory -> 4

type t = { weights : float array }  (** indexed by [index_of], length 5 *)

let weight t m = t.weights.(index_of m)

let of_weights pairs =
  let weights = Array.make (List.length metrics) 0. in
  let bad =
    List.find_opt
      (fun (_, w) -> not (Float.is_finite w) || w < 0.)
      pairs
  in
  match bad with
  | Some (m, w) ->
      Error
        (Printf.sprintf "metric %s: weight %g must be a finite non-negative \
                         number"
           (metric_name m) w)
  | None ->
      List.iter
        (fun (m, w) -> weights.(index_of m) <- weights.(index_of m) +. w)
        pairs;
      if Array.for_all (fun w -> w = 0.) weights then
        Error "objective needs at least one positive weight"
      else Ok { weights }

let default =
  match of_weights [ (Power, 1.) ] with Ok t -> t | Error _ -> assert false

let parse s =
  let terms = String.split_on_char '+' s in
  let parse_term term =
    let term = String.trim term in
    if term = "" then Error "empty term (stray '+'?)"
    else
      match String.index_opt term '*' with
      | None -> (
          match metric_of_name term with
          | Some m -> Ok (m, 1.)
          | None ->
              Error
                (Printf.sprintf "unknown metric %S (valid metrics: %s)" term
                   valid_metric_names))
      | Some i -> (
          let w = String.trim (String.sub term 0 i) in
          let name =
            String.trim (String.sub term (i + 1) (String.length term - i - 1))
          in
          match (float_of_string_opt w, metric_of_name name) with
          | None, _ -> Error (Printf.sprintf "bad weight %S in term %S" w term)
          | _, None ->
              Error
                (Printf.sprintf "unknown metric %S (valid metrics: %s)" name
                   valid_metric_names)
          | Some w, Some m -> Ok (m, w))
  in
  let rec go acc = function
    | [] -> of_weights (List.rev acc)
    | term :: rest -> (
        match parse_term term with
        | Ok pair -> go (pair :: acc) rest
        | Error e ->
            Error (Printf.sprintf "cannot parse objective %S: %s" s e))
  in
  go [] terms

let to_string t =
  let nonzero =
    List.filter_map
      (fun m ->
        let w = weight t m in
        if w = 0. then None else Some (m, w))
      metrics
  in
  match nonzero with
  | [ (m, 1.) ] -> metric_name m
  | terms ->
      (* [parse] splits terms on '+', so an exponent loses its sign:
         1e+07 prints as 1e07. *)
      let weight w =
        String.concat "" (String.split_on_char '+' (Metrics.exact_float w))
      in
      String.concat "+"
        (List.map (fun (m, w) -> weight w ^ "*" ^ metric_name m) terms)

let equal a b = Array.for_all2 Float.equal a.weights b.weights

let scores t candidates =
  match candidates with
  | [] -> []
  | _ ->
      let arr = Array.of_list candidates in
      let contributions =
        List.filter_map
          (fun m ->
            let w = weight t m in
            if w = 0. then None
            else
              let v = Array.map (metric_value m) arr in
              let mn = Array.fold_left Float.min v.(0) v in
              let mx = Array.fold_left Float.max v.(0) v in
              let range = mx -. mn in
              (* A degenerate axis (all candidates equal) cannot rank
                 anyone; it contributes 0 to every score. *)
              if range <= 0. then None
              else Some (Array.map (fun x -> w *. ((x -. mn) /. range)) v))
          metrics
      in
      List.init (Array.length arr) (fun i ->
          List.fold_left (fun acc c -> acc +. c.(i)) 0. contributions)

let best t candidates =
  match scores t candidates with
  | [] -> None
  | ss ->
      let _, best =
        List.fold_left
          (fun (i, acc) s ->
            let acc =
              match acc with
              | Some (_, best_s) when best_s <= s -> acc
              | _ -> Some (i, s)
            in
            (i + 1, acc))
          (0, None) ss
      in
      best
