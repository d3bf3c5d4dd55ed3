(* Shared lexer for OpenQASM 2 and the OpenQASM 3 subset. Handles //
   line comments and /* */ block comments. *)

type token =
  | ID of string
  | INT of int
  | REAL of float
  | STRING of string
  | SEMI
  | COMMA
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | ARROW (* -> *)
  | EQEQ (* == *)
  | EQUALS (* = *)
  | COLON
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | CARET
  | EOF

exception Error of int * string (* line, message *)

type t = { src : string; mutable pos : int; mutable line : int }

let create src = { src; pos = 0; line = 1 }

let error lx fmt =
  Format.kasprintf (fun msg -> raise (Error (lx.line, msg))) fmt

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let peek2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx =
  if peek lx = Some '\n' then lx.line <- lx.line + 1;
  lx.pos <- lx.pos + 1

let is_digit c = c >= '0' && c <= '9'

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || is_digit c

let rec skip_trivia lx =
  match peek lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance lx;
    skip_trivia lx
  | Some '/' when peek2 lx = Some '/' ->
    let rec to_eol () =
      match peek lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_trivia lx
  | Some '/' when peek2 lx = Some '*' ->
    advance lx;
    advance lx;
    let rec to_close () =
      match peek lx, peek2 lx with
      | Some '*', Some '/' ->
        advance lx;
        advance lx
      | None, _ -> error lx "unterminated block comment"
      | Some _, _ ->
        advance lx;
        to_close ()
    in
    to_close ();
    skip_trivia lx
  | Some _ | None -> ()

let take_while lx pred =
  let start = lx.pos in
  let rec go () =
    match peek lx with
    | Some c when pred c ->
      advance lx;
      go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub lx.src start (lx.pos - start)

let number lx =
  let start = lx.pos in
  let _ = take_while lx is_digit in
  let is_real = ref false in
  if peek lx = Some '.' then begin
    is_real := true;
    advance lx;
    let _ = take_while lx is_digit in
    ()
  end;
  (match peek lx with
  | Some ('e' | 'E') ->
    is_real := true;
    advance lx;
    (match peek lx with
    | Some ('+' | '-') -> advance lx
    | Some _ | None -> ());
    let _ = take_while lx is_digit in
    ()
  | Some _ | None -> ());
  let text = String.sub lx.src start (lx.pos - start) in
  if !is_real then
    match float_of_string_opt text with
    | Some f -> REAL f
    | None -> error lx "malformed number %s" text
  else
    match int_of_string_opt text with
    | Some n -> INT n
    | None -> error lx "integer literal %s out of range" text

let next lx =
  skip_trivia lx;
  match peek lx with
  | None -> EOF
  | Some '"' ->
    advance lx;
    let s = take_while lx (fun c -> c <> '"') in
    (match peek lx with
    | Some '"' -> advance lx
    | _ -> error lx "unterminated string");
    STRING s
  | Some ';' ->
    advance lx;
    SEMI
  | Some ',' ->
    advance lx;
    COMMA
  | Some '(' ->
    advance lx;
    LPAREN
  | Some ')' ->
    advance lx;
    RPAREN
  | Some '[' ->
    advance lx;
    LBRACKET
  | Some ']' ->
    advance lx;
    RBRACKET
  | Some '{' ->
    advance lx;
    LBRACE
  | Some '}' ->
    advance lx;
    RBRACE
  | Some ':' ->
    advance lx;
    COLON
  | Some '+' ->
    advance lx;
    PLUS
  | Some '-' ->
    if peek2 lx = Some '>' then begin
      advance lx;
      advance lx;
      ARROW
    end
    else begin
      advance lx;
      MINUS
    end
  | Some '*' ->
    advance lx;
    STAR
  | Some '/' ->
    advance lx;
    SLASH
  | Some '^' ->
    advance lx;
    CARET
  | Some '=' ->
    if peek2 lx = Some '=' then begin
      advance lx;
      advance lx;
      EQEQ
    end
    else begin
      advance lx;
      EQUALS
    end
  | Some c when is_digit c || c = '.' -> number lx
  | Some c when is_id_start c -> ID (take_while lx is_id_char)
  | Some c -> error lx "unexpected character %C" c

let string_of_token = function
  | ID s -> s
  | INT n -> string_of_int n
  | REAL f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | SEMI -> ";"
  | COMMA -> ","
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | ARROW -> "->"
  | EQEQ -> "=="
  | EQUALS -> "="
  | COLON -> ":"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | CARET -> "^"
  | EOF -> "<eof>"
