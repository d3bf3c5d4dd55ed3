(* Hand-written lexer for the LLVM assembly subset. Comments (';' to end
   of line) are dropped. Identifier syntax follows LLVM: the sigils '@'
   (global), '%' (local) and '!' (metadata) prefix names; bare words are
   keywords or label definitions.

   The scan works on byte indices into [src]: every loop reads
   [String.unsafe_get] behind its own bound check, and nothing is
   allocated per character — only the token itself and the substring it
   carries. A malformed numeric literal ([-], [1.5e], [0x], a 20-digit
   integer, [#99999999999999999999]) is a {!Ir_error.Parse_error} at the
   literal's first character. *)

type token =
  | GLOBAL of string (* @name *)
  | LOCAL of string (* %name *)
  | META of string (* !name or !0 *)
  | ATTR_REF of int (* #0 *)
  | WORD of string (* keyword / bare identifier *)
  | INT of int64
  | FLOAT of float
  | STRING of string (* "..." *)
  | CSTRING of string (* c"..." *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | EQUALS
  | STAR
  | COLON
  | ELLIPSIS
  | EOF

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let create src = { src; pos = 0; line = 1; bol = 0 }
let col lx = lx.pos - lx.bol + 1

let error lx fmt = Ir_error.parse_error ~line:lx.line ~col:(col lx) fmt

(* An error at [start], a position on the current line. *)
let error_at lx start fmt =
  Ir_error.parse_error ~line:lx.line ~col:(start - lx.bol + 1) fmt

(* Identifier bytes: letters, digits and [_ . - $], as a 256-entry
   table so a scan tests one byte with one load. *)
let ident_table =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | '$' -> '\001'
      | _ -> '\000')

let[@inline] is_ident_char c = String.unsafe_get ident_table (Char.code c) = '\001'

let is_digit c = c >= '0' && c <= '9'

let is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* The byte at [i], or '\000' past the end: no token starts with or
   contains a NUL, so the sentinel never extends a token. *)
let[@inline] at lx i =
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

(* Consumes the byte at [pos], counting a newline. *)
let[@inline] bump lx =
  if at lx lx.pos = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos + 1
  end;
  lx.pos <- lx.pos + 1

let skip_trivia lx =
  let src = lx.src in
  let n = String.length src in
  let i = ref lx.pos in
  while
    !i < n
    &&
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> true
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- !i + 1;
      true
    | ';' ->
      (* to the end of the line; the newline itself is trivia *)
      while !i + 1 < n && String.unsafe_get src (!i + 1) <> '\n' do
        incr i
      done;
      true
    | _ -> false
  do
    incr i
  done;
  lx.pos <- !i

(* The end of the run of identifier bytes, digits or hex digits from
   [i]. One loop each: a predicate passed as an argument would be a
   closure call per byte. *)
let ident_end lx i =
  let src = lx.src in
  let j = ref i in
  while !j < String.length src && is_ident_char (String.unsafe_get src !j) do
    incr j
  done;
  !j

let digits_end lx i =
  let src = lx.src in
  let j = ref i in
  while !j < String.length src && is_digit (String.unsafe_get src !j) do
    incr j
  done;
  !j

let hex_end lx i =
  let src = lx.src in
  let j = ref i in
  while !j < String.length src && is_hex (String.unsafe_get src !j) do
    incr j
  done;
  !j

(* The substring [pos, stop) as the current token's text. *)
let take lx stop =
  let s = String.sub lx.src lx.pos (stop - lx.pos) in
  lx.pos <- stop;
  s

(* A quoted string; supports LLVM's \xx two-hex-digit escapes and \\.
   Bytes between escapes are copied as whole slices. *)
let quoted_string lx =
  bump lx (* opening quote *);
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> error lx "invalid hex digit %C in string escape" c
  in
  let n = String.length lx.src in
  let buf = Buffer.create 16 in
  let rec go start =
    if lx.pos >= n then error lx "unterminated string literal";
    match String.unsafe_get lx.src lx.pos with
    | '"' ->
      Buffer.add_substring buf lx.src start (lx.pos - start);
      lx.pos <- lx.pos + 1;
      Buffer.contents buf
    | '\\' ->
      Buffer.add_substring buf lx.src start (lx.pos - start);
      bump lx;
      if lx.pos >= n then error lx "unterminated string escape";
      let c1 = String.unsafe_get lx.src lx.pos in
      bump lx;
      if c1 = '\\' then Buffer.add_char buf '\\'
      else begin
        if lx.pos >= n then error lx "unterminated string escape";
        let c2 = String.unsafe_get lx.src lx.pos in
        bump lx;
        (* the second digit is validated first: when both are bad, the
           error names the second *)
        let lo = hex c2 in
        Buffer.add_char buf (Char.chr ((hex c1 * 16) + lo))
      end;
      go lx.pos
    | _ ->
      bump lx;
      go start
  in
  go lx.pos

(* Name after a sigil: quoted or bare. *)
let sigil_name lx =
  if lx.pos >= String.length lx.src then error lx "expected name after sigil"
  else if at lx lx.pos = '"' then quoted_string lx
  else take lx (ident_end lx lx.pos)

let number lx =
  let start = lx.pos in
  let i = if at lx start = '-' then start + 1 else start in
  let malformed text = error_at lx start "malformed number '%s'" text in
  if at lx i = '0' && (at lx (i + 1) = 'x' || at lx (i + 1) = 'X') then begin
    (* Hexadecimal: LLVM uses 0x... for the raw IEEE-754 bits of floats. *)
    let j = hex_end lx (i + 2) in
    let text = "0x" ^ String.sub lx.src (i + 2) (j - i - 2) in
    lx.pos <- j;
    match Int64.of_string_opt text with
    | Some bits -> FLOAT (Int64.float_of_bits bits)
    | None -> malformed (String.sub lx.src start (j - start))
  end
  else begin
    let j = ref (digits_end lx i) in
    let is_float = ref false in
    if at lx !j = '.' then begin
      is_float := true;
      j := digits_end lx (!j + 1)
    end;
    (match at lx !j with
    | 'e' | 'E' ->
      is_float := true;
      incr j;
      (match at lx !j with '+' | '-' -> incr j | _ -> ());
      j := digits_end lx !j
    | _ -> ());
    let text = take lx !j in
    let tok =
      if !is_float then Option.map (fun f -> FLOAT f) (float_of_string_opt text)
      else Option.map (fun n -> INT n) (Int64.of_string_opt text)
    in
    match tok with Some t -> t | None -> malformed text
  end

let next lx =
  skip_trivia lx;
  let c = at lx lx.pos in
  if lx.pos >= String.length lx.src then EOF
  else
    match c with
    | '@' ->
      lx.pos <- lx.pos + 1;
      GLOBAL (sigil_name lx)
    | '%' ->
      lx.pos <- lx.pos + 1;
      LOCAL (sigil_name lx)
    | '!' ->
      lx.pos <- lx.pos + 1;
      META (take lx (ident_end lx lx.pos))
    | '#' ->
      let start = lx.pos in
      lx.pos <- lx.pos + 1;
      let digits = take lx (digits_end lx lx.pos) in
      if String.equal digits "" then error lx "expected attribute group number"
      else begin
        match int_of_string_opt digits with
        | Some n -> ATTR_REF n
        | None -> error_at lx start "malformed attribute group number '#%s'" digits
      end
    | '"' -> STRING (quoted_string lx)
    | '(' | ')' | '{' | '}' | '[' | ']' | ',' | '=' | '*' | ':' ->
      lx.pos <- lx.pos + 1;
      (match c with
      | '(' -> LPAREN
      | ')' -> RPAREN
      | '{' -> LBRACE
      | '}' -> RBRACE
      | '[' -> LBRACKET
      | ']' -> RBRACKET
      | ',' -> COMMA
      | '=' -> EQUALS
      | '*' -> STAR
      | _ -> COLON)
    | '.' ->
      if at lx (lx.pos + 1) = '.' && at lx (lx.pos + 2) = '.' then begin
        lx.pos <- lx.pos + 3;
        ELLIPSIS
      end
      else error lx "unexpected '.'"
    | '-' | '0' .. '9' -> number lx
    | 'c' when at lx (lx.pos + 1) = '"' ->
      lx.pos <- lx.pos + 1;
      CSTRING (quoted_string lx)
    | c when is_ident_char c -> WORD (take lx (ident_end lx lx.pos))
    | c -> error lx "unexpected character %C" c

let string_of_token = function
  | GLOBAL s -> "@" ^ s
  | LOCAL s -> "%" ^ s
  | META s -> "!" ^ s
  | ATTR_REF n -> "#" ^ string_of_int n
  | WORD s -> s
  | INT n -> Int64.to_string n
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | CSTRING s -> Printf.sprintf "c%S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | EQUALS -> "="
  | STAR -> "*"
  | COLON -> ":"
  | ELLIPSIS -> "..."
  | EOF -> "<eof>"
