(* The toolchain's one JSON layer: every machine-readable output (lint
   diagnostics, resource certificates, call graphs, the NDJSON service
   protocol, qir-run's stats lines and the BENCH files) is built as a
   [t] and printed here, and the service protocol parses its requests
   here. The toolchain ships no JSON dependency. Values round-trip
   through [parse] and either printer: [to_string] emits compact
   one-line JSON, which is what a newline-delimited protocol wants, and
   [pretty] lays out multi-line documents by one rule (see [width]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

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

(* JSON has no NaN or infinity; a non-finite number (a ratio over a zero
   denominator, say) prints as [null] rather than as invalid JSON. A
   finite one prints with the fewest of 12, 15 or 17 significant digits
   that reads back as the same float. *)
let number_to_string v =
  let rec shortest = function
    | [] -> Printf.sprintf "%.17g" v
    | digits :: more ->
      let s = Printf.sprintf "%.*g" digits v in
      if float_of_string s = v then s else shortest more
  in
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else shortest [ 12; 15 ]

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

(* The one layout rule of [pretty]: a container stays on one line, in
   its [to_string] form, when that line (indent and key included) fits
   in [width] columns; otherwise each member goes on a line of its own,
   indented two spaces deeper than the container. *)
let width = 100

(* A non-empty container's brackets and members (keyed in an object). *)
let container = function
  | Arr (_ :: _ as items) -> Some ('[', ']', List.map (fun v -> (None, v)) items)
  | Obj (_ :: _ as fields) ->
    Some ('{', '}', List.map (fun (k, v) -> (Some k, v)) fields)
  | _ -> None

let pretty v =
  let b = Buffer.create 1024 in
  let line_start = ref 0 in
  let newline indent =
    Buffer.add_char b '\n';
    line_start := Buffer.length b;
    Buffer.add_string b (String.make indent ' ')
  in
  let rec go indent v =
    let column = Buffer.length b - !line_start in
    match container v with
    | Some (opening, closing, members)
      when column + String.length (to_string v) > width ->
      Buffer.add_char b opening;
      List.iteri
        (fun i (key, member) ->
          if i > 0 then Buffer.add_char b ',';
          newline (indent + 2);
          Option.iter
            (fun k ->
              escape_string b k;
              Buffer.add_string b ": ")
            key;
          go (indent + 2) member)
        members;
      newline indent;
      Buffer.add_char b closing
    | _ -> write b v
  in
  go 0 v;
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

(* Encode one Unicode scalar value as UTF-8; a lone surrogate becomes
   U+FFFD. *)
let add_utf8 b cp =
  let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
  Buffer.add_utf_8_uchar b (Uchar.of_int cp)

(* The four hex digits of a \u escape at [cur.pos], consumed. *)
let hex4 cur =
  if cur.pos + 4 > String.length cur.src then error cur "bad \\u escape";
  let hex = String.sub cur.src cur.pos 4 in
  cur.pos <- cur.pos + 4;
  match int_of_string_opt ("0x" ^ hex) with
  | Some cp -> cp
  | None -> error cur "bad \\u escape"

(* A high surrogate followed by a \u-escaped low surrogate is one
   non-BMP character (how Python's json.dumps writes them by default). *)
let unicode_escape cur =
  let cp = hex4 cur in
  let src = cur.src and pos = cur.pos in
  if
    cp >= 0xD800 && cp <= 0xDBFF
    && pos + 6 <= String.length src
    && src.[pos] = '\\' && src.[pos + 1] = 'u'
  then begin
    cur.pos <- pos + 2;
    let lo = hex4 cur in
    if lo >= 0xDC00 && lo <= 0xDFFF then
      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
    else begin
      cur.pos <- pos;
      cp
    end
  end
  else cp

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
       | 'u' -> add_utf8 b (unicode_escape cur)
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

(* Values nest at most this deep: deeper input is an error, not a stack
   overflow. *)
let max_depth = 512

let rec parse_value depth cur =
  if depth > max_depth then
    error cur (Printf.sprintf "nesting deeper than %d" max_depth);
  skip_ws cur;
  let parse_value = parse_value (depth + 1) in
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
  match parse_value 0 cur with
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
