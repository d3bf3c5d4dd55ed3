(* Parameter expressions in OpenQASM gate arguments: reals, pi, gate
   parameters, arithmetic and the standard unary functions. *)

type t =
  | Num of float
  | Pi
  | Param of string
  | Neg of t
  | Bin of char * t * t (* '+', '-', '*', '/', '^' *)
  | Fn of string * t

exception Unbound of string

let rec eval env = function
  | Num f -> f
  | Pi -> Float.pi
  | Param name -> (
    match List.assoc_opt name env with
    | Some v -> v
    | None -> raise (Unbound name))
  | Neg e -> -.eval env e
  | Bin ('+', a, b) -> eval env a +. eval env b
  | Bin ('-', a, b) -> eval env a -. eval env b
  | Bin ('*', a, b) -> eval env a *. eval env b
  | Bin ('/', a, b) -> eval env a /. eval env b
  | Bin ('^', a, b) -> Float.pow (eval env a) (eval env b)
  | Bin (op, _, _) -> invalid_arg (Printf.sprintf "Qasm_expr: operator %c" op)
  | Fn ("sin", e) -> sin (eval env e)
  | Fn ("cos", e) -> cos (eval env e)
  | Fn ("tan", e) -> tan (eval env e)
  | Fn ("exp", e) -> exp (eval env e)
  | Fn ("ln", e) -> log (eval env e)
  | Fn ("sqrt", e) -> sqrt (eval env e)
  | Fn (f, _) -> invalid_arg ("Qasm_expr: function " ^ f)

(* Pratt-style parser over the shared lexer; the caller supplies current
   token access. [prec 0] entry point. [depth] is the nesting the caller
   has already entered; each parenthesis, unary sign, function call and
   binary operator adds a level, and past [Jsonx.max_depth] levels
   the parse fails with a located error instead of exhausting the
   stack. *)
module P = struct
  type state = {
    mutable tok : Qasm_lexer.token;
    lx : Qasm_lexer.t;
  }

  let advance st = st.tok <- Qasm_lexer.next st.lx

  let rec parse_primary depth st =
    if depth > Jsonx.max_depth then
      Qasm_lexer.error st.lx "nesting deeper than %d" Jsonx.max_depth;
    match st.tok with
    | Qasm_lexer.REAL f ->
      advance st;
      Num f
    | Qasm_lexer.INT n ->
      advance st;
      Num (float_of_int n)
    | Qasm_lexer.ID "pi" ->
      advance st;
      Pi
    | Qasm_lexer.ID fn
      when List.mem fn [ "sin"; "cos"; "tan"; "exp"; "ln"; "sqrt" ] ->
      advance st;
      (match st.tok with
      | Qasm_lexer.LPAREN ->
        advance st;
        let e = parse ~depth:(depth + 1) 0 st in
        (match st.tok with
        | Qasm_lexer.RPAREN ->
          advance st;
          Fn (fn, e)
        | _ -> Qasm_lexer.error st.lx "expected ')' after %s(..." fn)
      | _ -> Qasm_lexer.error st.lx "expected '(' after %s" fn)
    | Qasm_lexer.ID name ->
      advance st;
      Param name
    | Qasm_lexer.MINUS ->
      advance st;
      Neg (parse_primary (depth + 1) st)
    | Qasm_lexer.PLUS ->
      advance st;
      parse_primary (depth + 1) st
    | Qasm_lexer.LPAREN ->
      advance st;
      let e = parse ~depth:(depth + 1) 0 st in
      (match st.tok with
      | Qasm_lexer.RPAREN ->
        advance st;
        e
      | _ -> Qasm_lexer.error st.lx "expected ')'")
    | tok ->
      Qasm_lexer.error st.lx "expected expression, found '%s'"
        (Qasm_lexer.string_of_token tok)

  (* A chain of binary operators builds a tree as deep as it is long,
     so each operator in it also adds a level. *)
  and parse ?(depth = 0) min_prec st =
    let rec loop lhs depth =
      let op, prec =
        match st.tok with
        | Qasm_lexer.PLUS -> (Some '+', 1)
        | Qasm_lexer.MINUS -> (Some '-', 1)
        | Qasm_lexer.STAR -> (Some '*', 2)
        | Qasm_lexer.SLASH -> (Some '/', 2)
        | Qasm_lexer.CARET -> (Some '^', 3)
        | _ -> (None, 0)
      in
      match op with
      | Some op when prec >= min_prec ->
        advance st;
        (* ^ is right-associative, the rest left *)
        let rhs =
          parse ~depth:(depth + 1) (if op = '^' then prec else prec + 1) st
        in
        loop (Bin (op, lhs, rhs)) (depth + 1)
      | _ -> lhs
    in
    loop (parse_primary depth st) depth
end

let rec pp ppf = function
  | Num f -> Format.fprintf ppf "%g" f
  | Pi -> Format.pp_print_string ppf "pi"
  | Param p -> Format.pp_print_string ppf p
  | Neg e -> Format.fprintf ppf "-(%a)" pp e
  | Bin (op, a, b) -> Format.fprintf ppf "(%a %c %a)" pp a op pp b
  | Fn (f, e) -> Format.fprintf ppf "%s(%a)" f pp e
