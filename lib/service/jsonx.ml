(* A small self-contained JSON layer for the service protocol: the
   toolchain ships no JSON dependency, and the newline-delimited
   protocol needs both directions (the existing renderers in
   lib/analysis only print). Values round-trip through [parse] and
   [to_string]; the printer emits compact one-line JSON, which is
   exactly what a newline-delimited protocol wants. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> Buffer.add_string b (number_to_string v)
  | Str s -> escape_string b s
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ", ";
        write b item)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        escape_string b k;
        Buffer.add_string b ": ";
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing: a plain recursive-descent parser over the string            *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let error cur msg = raise (Bad (Printf.sprintf "%s at offset %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    &&
    match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "expected '%s'" word)

(* Encode one Unicode scalar value as UTF-8 (BMP is enough for the
   protocol; lone surrogates become U+FFFD). *)
let add_utf8 b cp =
  let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    if cur.pos >= String.length cur.src then error cur "unterminated string";
    let c = cur.src.[cur.pos] in
    cur.pos <- cur.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
      (if cur.pos >= String.length cur.src then error cur "bad escape";
       let e = cur.src.[cur.pos] in
       cur.pos <- cur.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
         if cur.pos + 4 > String.length cur.src then error cur "bad \\u escape";
         let hex = String.sub cur.src cur.pos 4 in
         cur.pos <- cur.pos + 4;
         let cp =
           match int_of_string_opt ("0x" ^ hex) with
           | Some cp -> cp
           | None -> error cur "bad \\u escape"
         in
         add_utf8 b cp
       | _ -> error cur "unknown escape");
      go ()
    | c when Char.code c < 0x20 -> error cur "control character in string"
    | c ->
      Buffer.add_char b c;
      go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    cur.pos < String.length cur.src && num_char cur.src.[cur.pos]
  do
    cur.pos <- cur.pos + 1
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None -> error cur (Printf.sprintf "bad number %S" text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some '[' ->
    expect cur '[';
    skip_ws cur;
    if peek cur = Some ']' then begin
      cur.pos <- cur.pos + 1;
      Arr []
    end
    else begin
      let items = ref [ parse_value cur ] in
      skip_ws cur;
      while peek cur = Some ',' do
        cur.pos <- cur.pos + 1;
        items := parse_value cur :: !items;
        skip_ws cur
      done;
      expect cur ']';
      Arr (List.rev !items)
    end
  | Some '{' ->
    expect cur '{';
    skip_ws cur;
    if peek cur = Some '}' then begin
      cur.pos <- cur.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws cur;
      while peek cur = Some ',' do
        cur.pos <- cur.pos + 1;
        fields := field () :: !fields;
        skip_ws cur
      done;
      expect cur '}';
      Obj (List.rev !fields)
    end
  | Some c -> if c = '-' || (c >= '0' && c <= '9') then Num (parse_number cur)
    else error cur (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos < String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
    else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let str_opt = function Str s -> Some s | _ -> None
let num_opt = function Num v -> Some v | _ -> None
let bool_opt = function Bool v -> Some v | _ -> None

(* Integral and within 2^53, where every integer is an exact double and
   [int_of_float] is defined. *)
let int_opt = function
  | Num v when Float.is_integer v && Float.abs v <= 0x1p53 ->
    Some (int_of_float v)
  | _ -> None

let mem_str key v = Option.bind (member key v) str_opt
let mem_num key v = Option.bind (member key v) num_opt
let mem_int key v = Option.bind (member key v) int_opt
let mem_bool key v = Option.bind (member key v) bool_opt
