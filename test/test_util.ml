(* Unit tests for mclock_util: RNG, bit vectors, intervals, tables. *)

open Mclock_util

let check = Alcotest.check
let fail = Alcotest.fail

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  List.iter
    (fun _ -> check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b))
    (List_ext.range 1 50)

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.map (fun _ -> Rng.bits a) (List_ext.range 1 10) in
  let ys = List.map (fun _ -> Rng.bits b) (List_ext.range 1 10) in
  if xs = ys then fail "different seeds gave identical streams"

let test_rng_int_range () =
  let rng = Rng.create 3 in
  List.iter
    (fun _ ->
      let x = Rng.int rng 10 in
      if x < 0 || x >= 10 then fail (Printf.sprintf "out of range: %d" x))
    (List_ext.range 1 200)

let test_rng_int_in_range () =
  let rng = Rng.create 4 in
  List.iter
    (fun _ ->
      let x = Rng.int_in_range rng ~lo:5 ~hi:8 in
      if x < 5 || x > 8 then fail "int_in_range out of bounds")
    (List_ext.range 1 100)

let test_rng_int_invalid () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let xs = List.map (fun _ -> Rng.bits parent) (List_ext.range 1 10) in
  let ys = List.map (fun _ -> Rng.bits child) (List_ext.range 1 10) in
  if xs = ys then fail "split stream equals parent stream"

let test_rng_choose () =
  let rng = Rng.create 6 in
  List.iter
    (fun _ ->
      let x = Rng.choose rng [ 1; 2; 3 ] in
      if not (List.mem x [ 1; 2; 3 ]) then fail "choose out of list")
    (List_ext.range 1 50)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8 in
  let original = List_ext.range 1 20 in
  let shuffled = Rng.shuffle rng original in
  check
    Alcotest.(list int)
    "same multiset" original
    (List.sort Int.compare shuffled)

let test_rng_float_range () =
  let rng = Rng.create 9 in
  List.iter
    (fun _ ->
      let x = Rng.float rng 2.5 in
      if x < 0. || x >= 2.5 then fail "float out of range")
    (List_ext.range 1 100)

(* --- Bitvec ------------------------------------------------------------ *)

let bv w v = Bitvec.create ~width:w v

let test_bitvec_truncation () =
  check Alcotest.int "wraps to width" 1 (Bitvec.to_int (bv 4 17))

let test_bitvec_add_wraps () =
  check Alcotest.int "15+1 = 0 mod 16" 0
    (Bitvec.to_int (Bitvec.add (bv 4 15) (bv 4 1)))

let test_bitvec_sub_wraps () =
  check Alcotest.int "0-1 = 15 mod 16" 15
    (Bitvec.to_int (Bitvec.sub (bv 4 0) (bv 4 1)))

let test_bitvec_mul () =
  check Alcotest.int "3*5 = 15" 15 (Bitvec.to_int (Bitvec.mul (bv 4 3) (bv 4 5)))

let test_bitvec_mul_wraps () =
  check Alcotest.int "4*5 = 4 mod 16" 4
    (Bitvec.to_int (Bitvec.mul (bv 4 4) (bv 4 5)))

let test_bitvec_div () =
  check Alcotest.int "14/3 = 4" 4 (Bitvec.to_int (Bitvec.div (bv 4 14) (bv 4 3)))

let test_bitvec_div_by_zero () =
  check Alcotest.int "x/0 = all ones" 15
    (Bitvec.to_int (Bitvec.div (bv 4 7) (bv 4 0)))

let test_bitvec_logic () =
  check Alcotest.int "and" 0b1000 (Bitvec.to_int (Bitvec.logand (bv 4 0b1100) (bv 4 0b1010)));
  check Alcotest.int "or" 0b1110 (Bitvec.to_int (Bitvec.logor (bv 4 0b1100) (bv 4 0b1010)));
  check Alcotest.int "xor" 0b0110 (Bitvec.to_int (Bitvec.logxor (bv 4 0b1100) (bv 4 0b1010)));
  check Alcotest.int "not" 0b0011 (Bitvec.to_int (Bitvec.lognot (bv 4 0b1100)))

let test_bitvec_shifts () =
  check Alcotest.int "shl" 0b1000 (Bitvec.to_int (Bitvec.shift_left (bv 4 0b0001) 3));
  check Alcotest.int "shl drops" 0b0000 (Bitvec.to_int (Bitvec.shift_left (bv 4 0b1000) 1));
  check Alcotest.int "shr" 0b0001 (Bitvec.to_int (Bitvec.shift_right (bv 4 0b1000) 3))

let test_bitvec_compare_ops () =
  check Alcotest.int "gt true" 1 (Bitvec.to_int (Bitvec.gt (bv 4 9) (bv 4 3)));
  check Alcotest.int "gt false" 0 (Bitvec.to_int (Bitvec.gt (bv 4 3) (bv 4 9)));
  check Alcotest.int "lt" 1 (Bitvec.to_int (Bitvec.lt (bv 4 3) (bv 4 9)));
  check Alcotest.int "eq" 1 (Bitvec.to_int (Bitvec.eq (bv 4 5) (bv 4 5)))

let test_bitvec_hamming () =
  check Alcotest.int "distance" 2 (Bitvec.hamming (bv 4 0b1100) (bv 4 0b1010));
  check Alcotest.int "identical" 0 (Bitvec.hamming (bv 4 9) (bv 4 9));
  check Alcotest.int "max" 4 (Bitvec.hamming (bv 4 0) (bv 4 15))

(* The SWAR popcount against the naive bit-by-bit loop, over the whole
   supported domain: edge patterns plus random values of every width up
   to [max_width]. *)
let test_bitvec_popcount_vs_naive () =
  let naive x =
    let rec loop acc x =
      if x = 0 then acc else loop (acc + (x land 1)) (x lsr 1)
    in
    loop 0 x
  in
  let check_value x =
    check Alcotest.int
      (Printf.sprintf "popcount %d" x)
      (naive x) (Bitvec.popcount x)
  in
  List.iter check_value
    [ 0; 1; 2; 3; 0b1010; max_int; max_int - 1; (1 lsl 62) - 1; 1 lsl 61 ];
  let rng = Rng.create 7 in
  for width = 1 to Bitvec.max_width do
    let mask = (1 lsl width) - 1 in
    for _ = 1 to 200 do
      check_value (Rng.bits rng land mask)
    done
  done

let test_bitvec_width_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitvec: width mismatch (4 vs 5)") (fun () ->
      ignore (Bitvec.add (bv 4 1) (bv 5 1)))

let test_bitvec_bad_width () =
  Alcotest.check_raises "zero width" (Invalid_argument "Bitvec: width 0 out of [1, 62]")
    (fun () -> ignore (Bitvec.create ~width:0 1))

let test_bitvec_binary_string () =
  check Alcotest.string "msb first" "1010" (Bitvec.to_binary_string (bv 4 10))

let test_bitvec_bit () =
  let v = bv 4 0b1010 in
  check Alcotest.bool "bit 0" false (Bitvec.bit v 0);
  check Alcotest.bool "bit 1" true (Bitvec.bit v 1);
  check Alcotest.bool "bit 3" true (Bitvec.bit v 3)

(* --- Interval ----------------------------------------------------------- *)

let itv = Interval.make

let test_interval_invalid () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Interval.make 3 2")
    (fun () -> ignore (itv 3 2))

let test_interval_overlaps () =
  check Alcotest.bool "overlap" true (Interval.overlaps (itv 1 3) (itv 3 5));
  check Alcotest.bool "disjoint" false (Interval.overlaps (itv 1 3) (itv 4 5));
  check Alcotest.bool "contained" true (Interval.overlaps (itv 1 10) (itv 4 5))

let test_interval_hull_inter () =
  check Alcotest.bool "hull" true (Interval.equal (itv 1 5) (Interval.hull (itv 1 3) (itv 4 5)));
  (match Interval.inter (itv 1 4) (itv 3 6) with
  | Some i -> check Alcotest.bool "inter" true (Interval.equal i (itv 3 4))
  | None -> fail "expected intersection");
  check Alcotest.bool "no inter" true (Interval.inter (itv 1 2) (itv 3 4) = None)

let test_interval_length_contains () =
  check Alcotest.int "length" 3 (Interval.length (itv 2 4));
  check Alcotest.bool "contains" true (Interval.contains (itv 2 4) 3);
  check Alcotest.bool "outside" false (Interval.contains (itv 2 4) 5)

let test_left_edge_disjoint_single_track () =
  let tracks =
    Interval.left_edge_pack ~key:Fun.id [ itv 1 2; itv 3 4; itv 5 6 ]
  in
  check Alcotest.int "one track" 1 (List.length tracks)

let test_left_edge_all_overlapping () =
  let tracks =
    Interval.left_edge_pack ~key:Fun.id [ itv 1 5; itv 2 6; itv 3 7 ]
  in
  check Alcotest.int "three tracks" 3 (List.length tracks)

let test_left_edge_classic () =
  (* Classic example: 5 intervals packable into 2 tracks. *)
  let tracks =
    Interval.left_edge_pack ~key:Fun.id
      [ itv 1 3; itv 2 5; itv 4 7; itv 6 9; itv 8 10 ]
  in
  check Alcotest.int "two tracks" 2 (List.length tracks)

let test_left_edge_tracks_are_disjoint () =
  let rng = Rng.create 123 in
  let items =
    List.map
      (fun _ ->
        let lo = Rng.int rng 20 in
        itv lo (lo + Rng.int rng 10))
      (List_ext.range 1 40)
  in
  let tracks = Interval.left_edge_pack ~key:Fun.id items in
  List.iter
    (fun track ->
      let rec pairwise = function
        | a :: (b :: _ as rest) ->
            if Interval.overlaps a b then fail "track members overlap";
            pairwise rest
        | [ _ ] | [] -> ()
      in
      pairwise track)
    tracks;
  check Alcotest.int "no items lost" 40 (List_ext.sum_by List.length tracks)

(* --- Table -------------------------------------------------------------- *)

let test_table_renders () =
  let t =
    Table.create ~title:"T" ~header:[ "a"; "bb" ] ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check Alcotest.int "rows" 2 (List.length (Table.rows t));
  (* Alignment: numbers right-aligned in their column. *)
  check Alcotest.bool "right aligned" true (contains s "|  1 |")

let test_table_bad_row () =
  let t = Table.create ~header:[ "a" ] ~aligns:[ Table.Left ] () in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

(* --- List_ext ------------------------------------------------------------ *)

let test_list_ext_basics () =
  check Alcotest.(list int) "take" [ 1; 2 ] (List_ext.take 2 [ 1; 2; 3 ]);
  check Alcotest.(list int) "drop" [ 3 ] (List_ext.drop 2 [ 1; 2; 3 ]);
  check Alcotest.int "sum" 6 (List_ext.sum [ 1; 2; 3 ]);
  check Alcotest.int "max_by" 3 (List_ext.max_by Fun.id [ 1; 3; 2 ]);
  check Alcotest.int "min_by" 1 (List_ext.min_by Fun.id [ 2; 1; 3 ]);
  check Alcotest.(list int) "range" [ 2; 3; 4 ] (List_ext.range 2 4);
  check Alcotest.(list int) "empty range" [] (List_ext.range 3 2);
  check Alcotest.(list int) "dedup" [ 1; 2; 3 ]
    (List_ext.dedup ~compare:Int.compare [ 3; 1; 2; 1; 3 ])

let test_list_ext_group_by () =
  let groups =
    List_ext.group_by ~key:(fun x -> x mod 2) ~compare_key:Int.compare
      [ 1; 2; 3; 4; 5 ]
  in
  check Alcotest.int "two groups" 2 (List.length groups);
  check Alcotest.(list int) "evens" [ 2; 4 ] (List.assoc 0 groups);
  check Alcotest.(list int) "odds" [ 1; 3; 5 ] (List.assoc 1 groups)

(* Recorded from the pre-array implementation
   (List.nth items (int t (List.length items))): the array rewrite must
   consume the stream identically, so seeded draws are unchanged. *)
let test_rng_choose_seeded_regression () =
  let t = Rng.create 7 in
  let items = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let drawn = List.map (fun _ -> Rng.choose t items) (List_ext.range 1 12) in
  check
    Alcotest.(list string)
    "seed 7 draws"
    [ "f"; "d"; "c"; "c"; "b"; "g"; "b"; "d"; "g"; "d"; "g"; "d" ]
    drawn;
  let t2 = Rng.create 42 in
  let drawn2 =
    List.map (fun _ -> Rng.choose t2 [ 10; 20; 30; 40; 50 ]) (List_ext.range 1 12)
  in
  check
    Alcotest.(list int)
    "seed 42 draws"
    [ 10; 20; 50; 10; 10; 10; 10; 20; 20; 20; 30; 30 ]
    drawn2

(* The batch draw is [bits] in row-major order: same values, same
   generator position afterwards, no allocation beyond the matrix. *)
let test_rng_bits_matrix_matches_bits () =
  List.iter
    (fun (seed, rows, cols, mask) ->
      let a = Rng.create seed and b = Rng.create seed in
      let m = Rng.bits_matrix a ~rows ~cols ~mask in
      let expected =
        Array.init rows (fun _ ->
            Array.init cols (fun _ -> Rng.bits b land mask))
      in
      check Alcotest.(array (array int)) "same draws" expected m;
      check Alcotest.int64 "same position" (Rng.state b) (Rng.state a))
    [ (42, 7, 3, 0xFFFF); (7, 1, 1, max_int); (1, 0, 4, 1); (9, 5, 0, 255) ];
  let t = Rng.create 3 in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Rng.bits_matrix t ~rows:1 ~cols:200 ~mask:255));
  let words = Gc.minor_words () -. before in
  (* One 200-slot row plus its header and the one-row outer array; a
     boxed counter per draw would add 600. *)
  if words > 250. then
    Alcotest.failf "bits_matrix allocated %.0f words for 200 draws" words

(* --- Fingerprint ------------------------------------------------------- *)

let fp_of feed =
  let fp = Fingerprint.create () in
  feed fp;
  Fingerprint.hex fp

let test_fingerprint_deterministic () =
  let feed fp =
    Fingerprint.string fp "hello";
    Fingerprint.int fp 42;
    Fingerprint.float fp 3.25;
    Fingerprint.bool fp true;
    Fingerprint.list fp Fingerprint.int [ 1; 2; 3 ];
    Fingerprint.option fp Fingerprint.string (Some "x")
  in
  check Alcotest.string "same feed, same digest" (fp_of feed) (fp_of feed);
  check Alcotest.int "32 hex chars" 32 (String.length (fp_of feed))

let test_fingerprint_no_concat_ambiguity () =
  let a = fp_of (fun fp -> Fingerprint.string fp "ab"; Fingerprint.string fp "c") in
  let b = fp_of (fun fp -> Fingerprint.string fp "a"; Fingerprint.string fp "bc") in
  if a = b then fail "string split ambiguity";
  let c = fp_of (fun fp -> Fingerprint.list fp Fingerprint.int [ 1; 2 ]) in
  let d = fp_of (fun fp -> Fingerprint.list fp Fingerprint.int [ 1 ]; Fingerprint.int fp 2) in
  if c = d then fail "list boundary ambiguity"

let test_fingerprint_distinguishes_values () =
  let base = fp_of (fun fp -> Fingerprint.float fp 0.) in
  let negz = fp_of (fun fp -> Fingerprint.float fp (-0.)) in
  if base = negz then fail "0. and -0. digest equal";
  let n = fp_of (fun fp -> Fingerprint.option fp Fingerprint.int None) in
  let s = fp_of (fun fp -> Fingerprint.option fp Fingerprint.int (Some 0)) in
  if n = s then fail "None and Some 0 digest equal"

let test_list_ext_find_by () =
  let items = [ ("a", 1); ("b", 2) ] in
  check Alcotest.int "found" 2
    (snd (List_ext.find_by ~what:"t" ~label_of:fst "b" items));
  match List_ext.find_by ~what:"t" ~label_of:fst "z" items with
  | _ -> fail "missing label accepted"
  | exception Invalid_argument msg ->
      if not (contains msg "\"z\"" && contains msg "a" && contains msg "b")
      then fail ("unhelpful message: " ^ msg)

let test_list_ext_zip_strict () =
  check
    Alcotest.(list (pair int string))
    "zips" [ (1, "a"); (2, "b") ]
    (List_ext.zip_strict ~what:"t" [ 1; 2 ] [ "a"; "b" ]);
  match List_ext.zip_strict ~what:"rows" [ 1 ] [ "a"; "b" ] with
  | _ -> fail "length mismatch accepted"
  | exception Invalid_argument msg ->
      if not (contains msg "rows" && contains msg "1" && contains msg "2")
      then fail ("unhelpful message: " ^ msg)

let test_list_ext_assoc_update () =
  let a = List_ext.assoc_update ~key:"x" ~default:0 (fun n -> n + 1) [] in
  check Alcotest.int "insert" 1 (List.assoc "x" a);
  let a = List_ext.assoc_update ~key:"x" ~default:0 (fun n -> n + 1) a in
  check Alcotest.int "update" 2 (List.assoc "x" a)

(* --- Binio -------------------------------------------------------------- *)

let test_binio_roundtrip () =
  let module B = Mclock_util.Binio in
  let w = B.W.create () in
  B.W.bool w true;
  B.W.bool w false;
  B.W.int w min_int;
  B.W.int w max_int;
  B.W.i64 w 0x1234_5678_9abc_def0L;
  B.W.float w 0.1;
  B.W.float w nan;
  B.W.float w neg_infinity;
  B.W.string w "";
  B.W.string w "hello\x00world";
  B.W.int_array w [| -1; 0; 42 |];
  B.W.bool_array w [| true; false; true |];
  B.W.float_array w [| 1.5; -0.0 |];
  let r = B.R.of_string (B.W.contents w) in
  Alcotest.(check bool) "bool t" true (B.R.bool r);
  Alcotest.(check bool) "bool f" false (B.R.bool r);
  Alcotest.(check int) "min_int" min_int (B.R.int r);
  Alcotest.(check int) "max_int" max_int (B.R.int r);
  Alcotest.(check int64) "i64" 0x1234_5678_9abc_def0L (B.R.i64 r);
  Alcotest.(check (float 0.)) "float bit-exact" 0.1 (B.R.float r);
  Alcotest.(check bool) "nan round-trips" true (Float.is_nan (B.R.float r));
  Alcotest.(check (float 0.)) "neg_infinity" neg_infinity (B.R.float r);
  Alcotest.(check string) "empty string" "" (B.R.string r);
  Alcotest.(check string) "nul-safe string" "hello\x00world" (B.R.string r);
  Alcotest.(check (array int)) "int array" [| -1; 0; 42 |] (B.R.int_array r);
  Alcotest.(check (array bool)) "bool array" [| true; false; true |]
    (B.R.bool_array r);
  Alcotest.(check (array (float 0.))) "float array" [| 1.5; -0.0 |]
    (B.R.float_array r);
  B.R.expect_end r

let test_binio_corruption () =
  let module B = Mclock_util.Binio in
  let corrupt f =
    match f () with
    | _ -> Alcotest.fail "corrupt stream decoded"
    | exception B.Corrupt _ -> ()
  in
  (* Wrong tag: an int read from a float's bytes. *)
  let w = B.W.create () in
  B.W.float w 1.0;
  let s = B.W.contents w in
  corrupt (fun () -> B.R.int (B.R.of_string s));
  (* Truncation mid-value. *)
  corrupt (fun () ->
      B.R.float (B.R.of_string (String.sub s 0 (String.length s - 1))));
  (* Trailing bytes. *)
  corrupt (fun () ->
      let r = B.R.of_string (s ^ "x") in
      ignore (B.R.float r);
      B.R.expect_end r);
  (* Negative array length. *)
  let w = B.W.create () in
  B.W.int_array w [||];
  let bad =
    let b = Bytes.of_string (B.W.contents w) in
    Bytes.set_int64_le b 1 (-1L);
    Bytes.to_string b
  in
  corrupt (fun () -> B.R.int_array (B.R.of_string bad))

let test_binio_seal () =
  let module B = Mclock_util.Binio in
  let magic = "TEST-v1\n" in
  let payload = "some sealed payload" in
  let blob = B.seal ~magic payload in
  (match B.unseal ~magic blob with
  | Ok p -> Alcotest.(check string) "unseal inverts seal" payload p
  | Error e -> Alcotest.fail e);
  (match B.unseal ~magic:"OTHER-v1" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong magic accepted");
  let flipped = Bytes.of_string blob in
  Bytes.set flipped
    (String.length blob - 1)
    (Char.chr (Char.code (Bytes.get flipped (String.length blob - 1)) lxor 1));
  (match B.unseal ~magic (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flipped payload accepted");
  match B.unseal ~magic "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty blob accepted"

(* --- Json escaper -------------------------------------------------------- *)

let test_json_escape_short () =
  check Alcotest.string "quote and backslash" {|"a\"b\\c"|}
    (Json.escape_string {|a"b\c|});
  check Alcotest.string "newline, return, tab" {|"\n\r\t"|}
    (Json.escape_string "\n\r\t");
  check Alcotest.string "empty" {|""|} (Json.escape_string "")

let test_json_escape_control () =
  check Alcotest.string "NUL" {|"\u0000"|} (Json.escape_string "\000");
  check Alcotest.string "backspace, form feed" {|"\u0008\u000c"|}
    (Json.escape_string "\b\012");
  check Alcotest.string "unit separator" {|"\u001f"|}
    (Json.escape_string "\031");
  for c = 0 to 0x1f do
    let e = Json.escape_string (String.make 1 (Char.chr c)) in
    if String.exists (fun ch -> Char.code ch < 0x20) e then
      fail (Printf.sprintf "control byte %d left raw" c)
  done

let test_json_escape_passthrough () =
  check Alcotest.string "slash and DEL verbatim" "\"/\127\""
    (Json.escape_string "/\127");
  check Alcotest.string "high bytes verbatim" "\"\xc3\xa9\xff\""
    (Json.escape_string "\xc3\xa9\xff")

let test_json_string_roundtrip_all_bytes () =
  let all = String.init 256 Char.chr in
  let roundtrip s =
    match Json.parse (Json.to_string (Json.String s)) with
    | Ok (Json.String s') -> s'
    | Ok _ -> fail "not a string"
    | Error e -> fail e
  in
  check Alcotest.string "every byte at once" all (roundtrip all);
  String.iter
    (fun c ->
      let s = String.make 1 c in
      check Alcotest.string (Printf.sprintf "byte %d" (Char.code c)) s
        (roundtrip s))
    all

let test_json_emitter_uses_escaper () =
  let k = "k\"\r" and v = "v\\\001" in
  check Alcotest.string "keys and values share one escaper"
    ("{" ^ Json.escape_string k ^ ":" ^ Json.escape_string v ^ "}")
    (Json.to_string (Json.Obj [ (k, Json.String v) ]))

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int_in_range", `Quick, test_rng_int_in_range);
    ("rng invalid bound", `Quick, test_rng_int_invalid);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng choose", `Quick, test_rng_choose);
    ("rng choose seeded regression", `Quick, test_rng_choose_seeded_regression);
    ("rng bits_matrix = bits", `Quick, test_rng_bits_matrix_matches_bits);
    ("fingerprint deterministic", `Quick, test_fingerprint_deterministic);
    ("fingerprint concat-safe", `Quick, test_fingerprint_no_concat_ambiguity);
    ("fingerprint distinguishes values", `Quick, test_fingerprint_distinguishes_values);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng float range", `Quick, test_rng_float_range);
    ("bitvec truncation", `Quick, test_bitvec_truncation);
    ("bitvec add wraps", `Quick, test_bitvec_add_wraps);
    ("bitvec sub wraps", `Quick, test_bitvec_sub_wraps);
    ("bitvec mul", `Quick, test_bitvec_mul);
    ("bitvec mul wraps", `Quick, test_bitvec_mul_wraps);
    ("bitvec div", `Quick, test_bitvec_div);
    ("bitvec div by zero", `Quick, test_bitvec_div_by_zero);
    ("bitvec logic", `Quick, test_bitvec_logic);
    ("bitvec shifts", `Quick, test_bitvec_shifts);
    ("bitvec comparisons", `Quick, test_bitvec_compare_ops);
    ("bitvec hamming", `Quick, test_bitvec_hamming);
    ("bitvec popcount vs naive", `Quick, test_bitvec_popcount_vs_naive);
    ("bitvec width mismatch", `Quick, test_bitvec_width_mismatch);
    ("bitvec bad width", `Quick, test_bitvec_bad_width);
    ("bitvec binary string", `Quick, test_bitvec_binary_string);
    ("bitvec bit", `Quick, test_bitvec_bit);
    ("interval invalid", `Quick, test_interval_invalid);
    ("interval overlaps", `Quick, test_interval_overlaps);
    ("interval hull/inter", `Quick, test_interval_hull_inter);
    ("interval length/contains", `Quick, test_interval_length_contains);
    ("left-edge disjoint one track", `Quick, test_left_edge_disjoint_single_track);
    ("left-edge overlapping all tracks", `Quick, test_left_edge_all_overlapping);
    ("left-edge classic packing", `Quick, test_left_edge_classic);
    ("left-edge tracks disjoint", `Quick, test_left_edge_tracks_are_disjoint);
    ("table renders", `Quick, test_table_renders);
    ("table bad row", `Quick, test_table_bad_row);
    ("list_ext basics", `Quick, test_list_ext_basics);
    ("list_ext group_by", `Quick, test_list_ext_group_by);
    ("list_ext find_by", `Quick, test_list_ext_find_by);
    ("list_ext zip_strict", `Quick, test_list_ext_zip_strict);
    ("list_ext assoc_update", `Quick, test_list_ext_assoc_update);
    ("binio roundtrip", `Quick, test_binio_roundtrip);
    ("binio corruption", `Quick, test_binio_corruption);
    ("binio seal", `Quick, test_binio_seal);
    ("json escape short forms", `Quick, test_json_escape_short);
    ("json escape control bytes", `Quick, test_json_escape_control);
    ("json escape passthrough", `Quick, test_json_escape_passthrough);
    ("json string round-trips every byte", `Quick, test_json_string_roundtrip_all_bytes);
    ("json emitter uses escaper", `Quick, test_json_emitter_uses_escaper);
  ]
