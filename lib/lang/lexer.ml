(* Hand-written lexer for the behaviour description language.

   '#' starts a comment to end of line; newlines are significant
   (statement separators) and collapse into a single Newline token. *)

exception Error of { line : int; message : string }

let error line fmt =
  Format.kasprintf (fun message -> raise (Error { line; message })) fmt

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  is_ident_start c || match c with '0' .. '9' -> true | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let keyword = function
  | "behavior" | "behaviour" -> Some Token.Kw_behavior
  | "input" | "inputs" -> Some Token.Kw_input
  | "output" | "outputs" -> Some Token.Kw_output
  | _ -> None

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 in
  let emit token = tokens := { Token.token; line = !line } :: !tokens in
  let last_was_newline () =
    match !tokens with
    | { Token.token = Token.Newline; _ } :: _ -> true
    | [] -> true (* suppress leading newlines *)
    | _ -> false
  in
  let rec go i =
    if i >= n then ()
    else
      let c = text.[i] in
      match c with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
          if not (last_was_newline ()) then emit Token.Newline;
          incr line;
          go (i + 1)
      | '#' ->
          let rec skip i = if i < n && text.[i] <> '\n' then skip (i + 1) else i in
          go (skip i)
      | '(' -> emit Token.Lparen; go (i + 1)
      | ')' -> emit Token.Rparen; go (i + 1)
      | ',' -> emit Token.Comma; go (i + 1)
      | '+' -> emit Token.Plus; go (i + 1)
      | '-' -> emit Token.Minus; go (i + 1)
      | '*' -> emit Token.Star; go (i + 1)
      | '/' -> emit Token.Slash; go (i + 1)
      | '&' -> emit Token.Amp; go (i + 1)
      | '|' -> emit Token.Pipe; go (i + 1)
      | '^' -> emit Token.Caret; go (i + 1)
      | '~' -> emit Token.Tilde; go (i + 1)
      | '=' -> emit Token.Eq; go (i + 1)
      | ':' ->
          if i + 1 < n && text.[i + 1] = '=' then begin
            emit Token.Assign;
            go (i + 2)
          end
          else error !line "expected '=' after ':'"
      | '<' ->
          if i + 1 < n && text.[i + 1] = '<' then begin
            emit Token.Shl;
            go (i + 2)
          end
          else begin
            emit Token.Lt;
            go (i + 1)
          end
      | '>' ->
          if i + 1 < n && text.[i + 1] = '>' then begin
            emit Token.Shr;
            go (i + 2)
          end
          else begin
            emit Token.Gt;
            go (i + 1)
          end
      | c when is_digit c ->
          let rec scan j = if j < n && is_digit text.[j] then scan (j + 1) else j in
          let j = scan i in
          let digits = String.sub text i (j - i) in
          (match int_of_string_opt digits with
          | Some v -> emit (Token.Int v)
          | None -> error !line "integer literal %s is out of range" digits);
          go j
      | c when is_ident_start c ->
          let rec scan j = if j < n && is_ident_char text.[j] then scan (j + 1) else j in
          let j = scan i in
          let word = String.sub text i (j - i) in
          (match keyword word with
          | Some kw -> emit kw
          | None -> emit (Token.Ident word));
          go j
      | c -> error !line "unexpected character %C" c
  in
  go 0;
  emit Token.Eof;
  List.rev !tokens
