(* Tests for the behavioural front end: lexer, parser, compiler (with
   CSE), and the full language -> schedule -> design -> verify path. *)

open Mclock_dfg
module Lang = Mclock_lang

let check = Alcotest.check
let fail = Alcotest.fail

let diffeq_source =
  {|
behavior diffeq
input x, y, u, dx, a
output x1, y1, u1, c

x1 := x + dx
y1 := y + u * dx
u1 := u - (3 * x) * (u * dx) - (3 * y) * dx
c  := x1 < a
|}

(* --- Lexer --------------------------------------------------------------- *)

let test_lexer_tokens () =
  let tokens = Lang.Lexer.tokenize "a := b + 3 # comment\n" in
  let kinds = List.map (fun t -> t.Lang.Token.token) tokens in
  check Alcotest.bool "shape" true
    (kinds
    = [
        Lang.Token.Ident "a"; Lang.Token.Assign; Lang.Token.Ident "b";
        Lang.Token.Plus; Lang.Token.Int 3; Lang.Token.Newline; Lang.Token.Eof;
      ])

let test_lexer_two_char_ops () =
  let kinds t = List.map (fun x -> x.Lang.Token.token) (Lang.Lexer.tokenize t) in
  check Alcotest.bool "shl" true (List.mem Lang.Token.Shl (kinds "a << b"));
  check Alcotest.bool "shr" true (List.mem Lang.Token.Shr (kinds "a >> b"));
  check Alcotest.bool "lt" true (List.mem Lang.Token.Lt (kinds "a < b"));
  check Alcotest.bool "gt" true (List.mem Lang.Token.Gt (kinds "a > b"))

let test_lexer_newline_collapse () =
  let tokens = Lang.Lexer.tokenize "a := 1\n\n\n\nb := 2\n" in
  let newlines =
    List.length
      (List.filter (fun t -> t.Lang.Token.token = Lang.Token.Newline) tokens)
  in
  check Alcotest.int "collapsed" 2 newlines

let test_lexer_error () =
  match Lang.Lexer.tokenize "a := $\n" with
  | exception Lang.Lexer.Error { line; _ } -> check Alcotest.int "line 1" 1 line
  | _ -> fail "accepted '$'"

let test_lexer_line_numbers () =
  match Lang.Lexer.tokenize "a := 1\nb := ?\n" with
  | exception Lang.Lexer.Error { line; _ } -> check Alcotest.int "line 2" 2 line
  | _ -> fail "accepted '?'"

(* An out-of-range literal is a lexical error on its line, not a
   [Failure] from [int_of_string]; the largest int still lexes. *)
let test_lexer_int_out_of_range () =
  (match Lang.Lexer.tokenize "a := 1\ny := x + 99999999999999999999\n" with
  | exception Lang.Lexer.Error { line; _ } -> check Alcotest.int "line 2" 2 line
  | _ -> fail "accepted an out-of-range literal");
  let tokens = Lang.Lexer.tokenize (string_of_int max_int) in
  check Alcotest.bool "max_int lexes" true
    (List.exists (fun t -> t.Lang.Token.token = Lang.Token.Int max_int) tokens)

(* --- Parser --------------------------------------------------------------- *)

let test_parser_structure () =
  let ast = Lang.Parser.parse_string diffeq_source in
  check Alcotest.string "name" "diffeq" ast.Lang.Ast.name;
  check Alcotest.(list string) "inputs" [ "x"; "y"; "u"; "dx"; "a" ] ast.Lang.Ast.inputs;
  check Alcotest.(list string) "outputs" [ "x1"; "y1"; "u1"; "c" ] ast.Lang.Ast.outputs;
  check Alcotest.int "statements" 4 (List.length ast.Lang.Ast.statements)

let test_parser_precedence () =
  let ast = Lang.Parser.parse_string "behavior t\ninput a, b, c\noutput y\ny := a + b * c\n" in
  match (List.hd ast.Lang.Ast.statements).Lang.Ast.expr with
  | Lang.Ast.Binop (Op.Add, Lang.Ast.Var "a", Lang.Ast.Binop (Op.Mul, _, _)) -> ()
  | e -> fail (Fmt.str "mul should bind tighter: %a" Lang.Ast.pp_expr e)

let test_parser_left_associativity () =
  let ast = Lang.Parser.parse_string "behavior t\ninput a, b, c\noutput y\ny := a - b - c\n" in
  match (List.hd ast.Lang.Ast.statements).Lang.Ast.expr with
  | Lang.Ast.Binop (Op.Sub, Lang.Ast.Binop (Op.Sub, _, _), Lang.Ast.Var "c") -> ()
  | e -> fail (Fmt.str "should be (a-b)-c: %a" Lang.Ast.pp_expr e)

let test_parser_parens_override () =
  let ast = Lang.Parser.parse_string "behavior t\ninput a, b, c\noutput y\ny := (a + b) * c\n" in
  match (List.hd ast.Lang.Ast.statements).Lang.Ast.expr with
  | Lang.Ast.Binop (Op.Mul, Lang.Ast.Binop (Op.Add, _, _), _) -> ()
  | e -> fail (Fmt.str "parens should win: %a" Lang.Ast.pp_expr e)

let test_parser_unary () =
  let ast = Lang.Parser.parse_string "behavior t\ninput a\noutput y\ny := ~a & a\n" in
  match (List.hd ast.Lang.Ast.statements).Lang.Ast.expr with
  | Lang.Ast.Binop (Op.And, Lang.Ast.Unop (Op.Not, _), _) -> ()
  | e -> fail (Fmt.str "unary not: %a" Lang.Ast.pp_expr e)

let test_parser_unary_minus () =
  let ast = Lang.Parser.parse_string "behavior t\ninput a\noutput y\ny := a + -a\n" in
  match (List.hd ast.Lang.Ast.statements).Lang.Ast.expr with
  | Lang.Ast.Binop (Op.Add, _, Lang.Ast.Binop (Op.Sub, Lang.Ast.Const 0, _)) -> ()
  | e -> fail (Fmt.str "unary minus sugar: %a" Lang.Ast.pp_expr e)

let test_parser_error_reports_line () =
  match Lang.Parser.parse_string "behavior t\ninput a\noutput y\ny := +\n" with
  | exception Lang.Parser.Error { line; _ } -> check Alcotest.int "line 4" 4 line
  | _ -> fail "accepted bad expression"

(* --- Compiler --------------------------------------------------------------- *)

let test_compile_diffeq () =
  let g = Lang.Compile.compile_string diffeq_source in
  check Alcotest.string "name" "diffeq" (Graph.name g);
  check Alcotest.int "inputs" 5 (List.length (Graph.inputs g));
  check Alcotest.int "outputs" 4 (List.length (Graph.outputs g));
  (* x+dx, y + u*dx (u*dx shared), u - 3x*(u dx) - 3y*dx, x1<a:
     nodes: x1, u*dx, y1, 3*x, t=(3x)*(udx), u-t, 3*y, (3y)*dx, u1, c. *)
  check Alcotest.int "node count with CSE" 10 (Graph.node_count g)

let test_compile_cse_shares () =
  let g =
    Lang.Compile.compile_string
      "behavior t\ninput a, b\noutput y, z\ny := (a * b) + a\nz := (a * b) + b\n"
  in
  (* a*b emitted once: nodes = mul, add, add. *)
  check Alcotest.int "3 nodes" 3 (Graph.node_count g)

let test_compile_alias () =
  let g =
    Lang.Compile.compile_string
      "behavior t\ninput a, b\noutput y, z\ny := a + b\nz := y\n"
  in
  check Alcotest.int "1 node" 1 (Graph.node_count g);
  check Alcotest.bool "z aliases y" true (Graph.is_output g (Var.v "y"))

let test_compile_constant_fold () =
  let g =
    Lang.Compile.compile_string
      "behavior t\ninput a\noutput y\ny := a + (2 + 3)\n"
  in
  match Graph.nodes g with
  | [ node ] -> (
      match Node.operands node with
      | [ _; Node.Operand_const 5 ] -> ()
      | _ -> fail "constant not folded")
  | _ -> fail "expected one node"

let test_compile_errors () =
  let expect_error src =
    match Lang.Compile.compile_string src with
    | exception Lang.Compile.Error _ -> ()
    | _ -> fail ("accepted: " ^ src)
  in
  expect_error "behavior t\ninput a\noutput y\ny := ghost + a\n";
  expect_error "behavior t\ninput a\noutput y\ny := a + 1\ny := a + 2\n";
  expect_error "behavior t\ninput a\noutput y\nz := a + 1\n";
  expect_error "behavior t\ninput a\noutput y\ny := 1 + 2\n"

(* Programs that parse and name-check but do not form a valid graph
   raise [Graph.Invalid], as [compile_string] documents: an input
   declared as an output. *)
let test_compile_unrealizable () =
  List.iter
    (fun src ->
      match Lang.Compile.compile_string src with
      | exception Graph.Invalid _ -> ()
      | _ -> fail ("accepted: " ^ src))
    [ "behavior t\ninput x\noutput x\n" ]

(* An output that only copies a primary input is rejected at its
   assignment, naming the output (directly or through an alias). *)
let test_compile_output_copies_input () =
  let expect src ~line ~message =
    match Lang.Compile.compile_string src with
    | exception Lang.Compile.Error e ->
        check Alcotest.int "line" line e.line;
        check Alcotest.string "message" message e.message
    | _ -> fail ("accepted: " ^ src)
  in
  expect "behavior t\ninput x\noutput y\ny := x\n" ~line:4
    ~message:
      "output y only copies input x; an output must be computed by an \
       operation";
  expect "behavior t\ninput x, b\noutput y\na := x\ny := a\n" ~line:5
    ~message:
      "output y only copies input x; an output must be computed by an \
       operation"

(* --- End to end: language -> schedule -> design -> verified ------------------- *)

let test_language_to_verified_design () =
  let graph = Lang.Compile.compile_string diffeq_source in
  let schedule = Mclock_sched.Force_directed.run graph in
  List.iter
    (fun n ->
      let design =
        Mclock_core.Integrated.allocate ~n ~name:"lang" schedule
      in
      let report =
        Mclock_sim.Verify.run ~iterations:15 Mclock_tech.Cmos08.t design graph
      in
      if not (Mclock_sim.Verify.ok report) then
        fail (Printf.sprintf "n=%d functional mismatch" n))
    [ 1; 2; 3 ]

let test_language_matches_hand_dfg () =
  (* The compiled diffeq must compute the same function as the
     hand-written HAL workload on shared inputs/outputs. *)
  let compiled = Lang.Compile.compile_string diffeq_source in
  let hand = Mclock_workloads.Workload.graph Mclock_workloads.Hal.t in
  let rng = Mclock_util.Rng.create 3 in
  List.iter
    (fun _ ->
      let env = Mclock_sim.Golden.random_inputs rng ~width:4 hand in
      let out_hand = Mclock_sim.Golden.eval ~width:4 hand env in
      let out_lang = Mclock_sim.Golden.eval ~width:4 compiled env in
      List.iter
        (fun name ->
          let v = Var.v name in
          (* HAL uses '>' where diffeq uses '<' with flipped operands on
             output c? No: hand HAL computes c = x1 > a, the language
             version c = x1 < a; compare only the arithmetic outputs. *)
          if name <> "c" then
            check Alcotest.int name
              (Mclock_util.Bitvec.to_int (Var.Map.find v out_hand))
              (Mclock_util.Bitvec.to_int (Var.Map.find v out_lang)))
        [ "x1"; "y1"; "u1" ])
    (Mclock_util.List_ext.range 1 30)

let suite =
  [
    ("lexer tokens", `Quick, test_lexer_tokens);
    ("lexer two-char ops", `Quick, test_lexer_two_char_ops);
    ("lexer newline collapse", `Quick, test_lexer_newline_collapse);
    ("lexer error", `Quick, test_lexer_error);
    ("lexer line numbers", `Quick, test_lexer_line_numbers);
    ("lexer int out of range", `Quick, test_lexer_int_out_of_range);
    ("parser structure", `Quick, test_parser_structure);
    ("parser precedence", `Quick, test_parser_precedence);
    ("parser left associativity", `Quick, test_parser_left_associativity);
    ("parser parens override", `Quick, test_parser_parens_override);
    ("parser unary", `Quick, test_parser_unary);
    ("parser unary minus", `Quick, test_parser_unary_minus);
    ("parser error line", `Quick, test_parser_error_reports_line);
    ("compile diffeq", `Quick, test_compile_diffeq);
    ("compile CSE shares", `Quick, test_compile_cse_shares);
    ("compile alias", `Quick, test_compile_alias);
    ("compile output copying an input rejected", `Quick, test_compile_output_copies_input);
    ("compile constant fold", `Quick, test_compile_constant_fold);
    ("compile errors", `Quick, test_compile_errors);
    ("compile unrealizable raises Graph.Invalid", `Quick,
      test_compile_unrealizable);
    ("language to verified design", `Quick, test_language_to_verified_design);
    ("language matches hand DFG", `Quick, test_language_matches_hand_dfg);
  ]
