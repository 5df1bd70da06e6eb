(* Clocks, process resources, order statistics and the work directory —
   everything the benchmark measures with that is not a layer of the
   program itself. *)

let now = Unix.gettimeofday

(* User + system time of the whole process, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set size (VmHWM) of this process, MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
    | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> find ())
  in
  find ()

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "Measure.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
   gives them, so spreads printed here match the acceptance rule. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Measure.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(* --- Work directory ------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Bytes of the regular files directly in [dir]: (all, checkpoint
   sidecars only). *)
let dir_bytes dir =
  Array.fold_left
    (fun (all, ckpt) f ->
      let st = Unix.stat (Filename.concat dir f) in
      if st.Unix.st_kind <> Unix.S_REG then (all, ckpt)
      else
        let n = st.Unix.st_size in
        (all + n, if Filename.check_suffix f ".ckpt" then ckpt + n else ckpt))
    (0, 0) (Sys.readdir dir)
