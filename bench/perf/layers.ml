(* Analysis of one traced run's span events: which timed pass (or
   probe) each event belongs to, per-span totals, and self time — a
   span's duration minus the part of its interval its child spans
   cover — computed from the events' parent ids. *)

open Mclock_obs.Obs

let seconds_of_us us = us /. 1e6

(* Events grouped under their root ancestor (a span with no recorded
   parent), roots in start order.  Worker-domain spans reach their
   root through the pool's explicit context hand-off. *)
let by_root events =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun ev -> Hashtbl.replace by_id ev.ev_id ev) events;
  let root_of = Hashtbl.create 1024 in
  let rec root ev =
    match Hashtbl.find_opt root_of ev.ev_id with
    | Some r -> r
    | None ->
        let r =
          match Option.bind ev.ev_parent (Hashtbl.find_opt by_id) with
          | Some parent -> root parent
          | None -> ev
        in
        Hashtbl.replace root_of ev.ev_id r;
        r
  in
  let members = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let r = root ev in
      Hashtbl.replace members r.ev_id
        (ev :: Option.value ~default:[] (Hashtbl.find_opt members r.ev_id)))
    events;
  List.filter (fun ev -> root ev == ev) events
  |> List.sort (fun a b -> Float.compare a.ev_ts_us b.ev_ts_us)
  |> List.map (fun r -> (r, Hashtbl.find members r.ev_id))

(* Total seconds spent in spans named any of [names]. *)
let total_s names events =
  List.fold_left
    (fun acc ev -> if List.mem ev.ev_name names then acc +. ev.ev_dur_us else acc)
    0. events
  |> seconds_of_us

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (
        match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

(* Per span name: (count, total seconds, self seconds), largest total
   first.  Pool task spans are named after their task and are grouped
   as one row. *)
let table events =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun ev ->
      match ev.ev_parent with
      | Some p ->
          Hashtbl.replace children p
            ((ev.ev_ts_us, ev.ev_ts_us +. ev.ev_dur_us)
            :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    events;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let lo = ev.ev_ts_us and hi = ev.ev_ts_us +. ev.ev_dur_us in
      let kids = Option.value ~default:[] (Hashtbl.find_opt children ev.ev_id) in
      let self = ev.ev_dur_us -. covered ~lo ~hi kids in
      let name = if ev.ev_cat = "pool" then "pool.task" else ev.ev_name in
      let n, total, self_total =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt rows name)
      in
      Hashtbl.replace rows name
        (n + 1, total +. ev.ev_dur_us, self_total +. self))
    events;
  Hashtbl.fold
    (fun name (n, total, self) acc ->
      (name, n, seconds_of_us total, seconds_of_us self) :: acc)
    rows []
  |> List.sort (fun (na, _, ta, _) (nb, _, tb, _) ->
         match Float.compare tb ta with 0 -> String.compare na nb | c -> c)

let table_json events =
  Mclock_lint.Json.List
    (List.map
       (fun (name, n, total, self) ->
         Mclock_lint.Json.Obj
           [
             ("span", Mclock_lint.Json.String name);
             ("count", Mclock_lint.Json.Int n);
             ("total_s", Mclock_lint.Json.Float total);
             ("self_s", Mclock_lint.Json.Float self);
           ])
       (table events))

let render_table events =
  let t =
    Mclock_util.Table.create ~title:"span self time"
      ~header:[ "span"; "count"; "total [s]"; "self [s]" ]
      ~aligns:Mclock_util.Table.[ Left; Right; Right; Right ]
      ()
  in
  List.iter
    (fun (name, n, total, self) ->
      Mclock_util.Table.add_row t
        [
          name;
          string_of_int n;
          Printf.sprintf "%.3f" total;
          Printf.sprintf "%.3f" self;
        ])
    (table events);
  Mclock_util.Table.render t
