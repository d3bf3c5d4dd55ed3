(* OpenQASM 3 subset (the paper's Sec. II-B): classical declarations,
   stdgates applications, measurement assignment, [for] loops over integer
   ranges (unrolled while parsing) and [if] conditions over measurement
   bits. This is deliberately the "quantum assembly grown classical
   elements" design point the paper contrasts QIR with. *)

exception Error of int * string

let error line fmt =
  Format.kasprintf (fun msg -> raise (Error (line, msg))) fmt

type state = {
  st : Qasm_expr.P.state;
  mutable qregs : Circuit.register list;
  mutable cregs : Circuit.register list;
  build : Circuit.Build.t;
  mutable loop_env : (string * int) list; (* for-loop variables *)
}

let tok ps = ps.st.Qasm_expr.P.tok
let advance ps = Qasm_expr.P.advance ps.st
let line ps = ps.st.Qasm_expr.P.lx.Qasm_lexer.line
let perror ps fmt = error (line ps) fmt

let expect ps t =
  if tok ps = t then advance ps
  else
    perror ps "expected '%s', found '%s'"
      (Qasm_lexer.string_of_token t)
      (Qasm_lexer.string_of_token (tok ps))

let expect_id ps =
  match tok ps with
  | Qasm_lexer.ID name ->
    advance ps;
    name
  | t -> perror ps "expected identifier, found '%s'" (Qasm_lexer.string_of_token t)

(* An integer index: a literal or a loop variable (possibly +/- literal). *)
let rec parse_index ps =
  match tok ps with
  | Qasm_lexer.INT n ->
    advance ps;
    n
  | Qasm_lexer.MINUS ->
    advance ps;
    -parse_index ps
  | Qasm_lexer.ID v -> (
    advance ps;
    let base =
      match List.assoc_opt v ps.loop_env with
      | Some n -> n
      | None -> perror ps "unknown loop variable %s" v
    in
    match tok ps with
    | Qasm_lexer.PLUS ->
      advance ps;
      base + parse_index ps
    | Qasm_lexer.MINUS ->
      advance ps;
      base - parse_index ps
    | Qasm_lexer.STAR ->
      advance ps;
      base * parse_index ps
    | _ -> base)
  | t -> perror ps "expected index, found '%s'" (Qasm_lexer.string_of_token t)

let find_reg regs name =
  List.find_opt (fun (r : Circuit.register) -> String.equal r.Circuit.rname name) regs

type argument = Whole of string | Indexed of string * int

let parse_argument ps =
  let name = expect_id ps in
  if tok ps = Qasm_lexer.LBRACKET then begin
    advance ps;
    let idx = parse_index ps in
    expect ps Qasm_lexer.RBRACKET;
    Indexed (name, idx)
  end
  else Whole name

let resolve regs ps = function
  | Whole name -> (
    match find_reg regs name with
    | Some r -> List.init r.Circuit.rsize (fun i -> r.Circuit.roffset + i)
    | None -> perror ps "undeclared register %s" name)
  | Indexed (name, i) -> (
    match find_reg regs name with
    | Some r ->
      if i < 0 || i >= r.Circuit.rsize then
        perror ps "index %d out of range for %s[%d]" i name r.Circuit.rsize;
      [ r.Circuit.roffset + i ]
    | None -> perror ps "undeclared register %s" name)

let parse_params ps =
  if tok ps = Qasm_lexer.LPAREN then begin
    advance ps;
    if tok ps = Qasm_lexer.RPAREN then begin
      advance ps;
      []
    end
    else begin
      let rec go acc =
        let e = Qasm_expr.P.parse 0 ps.st in
        let v =
          try
            Qasm_expr.eval
              (List.map (fun (k, n) -> (k, float_of_int n)) ps.loop_env)
              e
          with Qasm_expr.Unbound p -> perror ps "unbound parameter %s" p
        in
        if tok ps = Qasm_lexer.COMMA then begin
          advance ps;
          go (v :: acc)
        end
        else begin
          expect ps Qasm_lexer.RPAREN;
          List.rev (v :: acc)
        end
      in
      go []
    end
  end
  else []

let broadcast ps (operands : int list list) =
  let lengths = List.sort_uniq compare (List.map List.length operands) in
  match lengths with
  | [ 1 ] -> [ List.map List.hd operands ]
  | [ n ] | [ 1; n ] ->
    List.init n (fun i ->
        List.map
          (fun ops ->
            match ops with
            | [ only ] -> only
            | _ -> List.nth ops i)
          operands)
  | _ -> perror ps "mismatched register sizes in broadcast"

let rec parse_statement ps ?cond () =
  match tok ps with
  | Qasm_lexer.ID "include" ->
    advance ps;
    (match tok ps with
    | Qasm_lexer.STRING _ -> advance ps
    | t -> perror ps "expected string, found '%s'" (Qasm_lexer.string_of_token t));
    expect ps Qasm_lexer.SEMI
  | Qasm_lexer.ID "qubit" ->
    advance ps;
    let size =
      if tok ps = Qasm_lexer.LBRACKET then begin
        advance ps;
        let n = parse_index ps in
        expect ps Qasm_lexer.RBRACKET;
        n
      end
      else 1
    in
    let name = expect_id ps in
    expect ps Qasm_lexer.SEMI;
    let offset =
      List.fold_left (fun a (r : Circuit.register) -> a + r.Circuit.rsize) 0 ps.qregs
    in
    ps.qregs <-
      ps.qregs @ [ { Circuit.rname = name; roffset = offset; rsize = size } ];
    if size > 0 then Circuit.Build.touch_qubit ps.build (offset + size - 1)
  | Qasm_lexer.ID "bit" ->
    advance ps;
    let size =
      if tok ps = Qasm_lexer.LBRACKET then begin
        advance ps;
        let n = parse_index ps in
        expect ps Qasm_lexer.RBRACKET;
        n
      end
      else 1
    in
    let name = expect_id ps in
    expect ps Qasm_lexer.SEMI;
    let offset =
      List.fold_left (fun a (r : Circuit.register) -> a + r.Circuit.rsize) 0 ps.cregs
    in
    ps.cregs <-
      ps.cregs @ [ { Circuit.rname = name; roffset = offset; rsize = size } ];
    if size > 0 then Circuit.Build.touch_clbit ps.build (offset + size - 1)
  | Qasm_lexer.ID "reset" ->
    advance ps;
    let a = parse_argument ps in
    expect ps Qasm_lexer.SEMI;
    List.iter (fun q -> Circuit.Build.reset ?cond ps.build q) (resolve ps.qregs ps a)
  | Qasm_lexer.ID "barrier" ->
    advance ps;
    if tok ps = Qasm_lexer.SEMI then begin
      advance ps;
      Circuit.Build.barrier ps.build
        (List.init
           (List.fold_left (fun a (r : Circuit.register) -> a + r.Circuit.rsize) 0 ps.qregs)
           Fun.id)
    end
    else begin
      let rec args acc =
        let a = parse_argument ps in
        if tok ps = Qasm_lexer.COMMA then begin
          advance ps;
          args (a :: acc)
        end
        else begin
          expect ps Qasm_lexer.SEMI;
          List.rev (a :: acc)
        end
      in
      let qs = List.concat_map (resolve ps.qregs ps) (args []) in
      Circuit.Build.barrier ps.build qs
    end
  | Qasm_lexer.ID "for" ->
    advance ps;
    (* for uint[N]? i in [a:b] | [a:s:b] { ... } *)
    (match tok ps with
    | Qasm_lexer.ID ("uint" | "int") ->
      advance ps;
      if tok ps = Qasm_lexer.LBRACKET then begin
        advance ps;
        let _ = parse_index ps in
        expect ps Qasm_lexer.RBRACKET
      end
    | _ -> ());
    let var = expect_id ps in
    (match tok ps with
    | Qasm_lexer.ID "in" -> advance ps
    | t -> perror ps "expected 'in', found '%s'" (Qasm_lexer.string_of_token t));
    expect ps Qasm_lexer.LBRACKET;
    let a = parse_index ps in
    expect ps Qasm_lexer.COLON;
    let b = parse_index ps in
    let step, stop =
      if tok ps = Qasm_lexer.COLON then begin
        advance ps;
        let c = parse_index ps in
        (b, c)
      end
      else (1, b)
    in
    expect ps Qasm_lexer.RBRACKET;
    if step = 0 then perror ps "for-loop step cannot be 0";
    (* capture the body's source span by scanning balanced braces; while
       the current token is '{', the lexer position is just past it *)
    (match tok ps with
    | Qasm_lexer.LBRACE -> ()
    | t -> perror ps "expected '{', found '%s'" (Qasm_lexer.string_of_token t));
    let body_start_pos = ps.st.Qasm_expr.P.lx.Qasm_lexer.pos in
    let body_start_line = line ps in
    advance ps;
    let depth = ref 0 in
    let body_end_pos = ref body_start_pos in
    let rec skip () =
      match tok ps with
      | Qasm_lexer.LBRACE ->
        incr depth;
        body_end_pos := ps.st.Qasm_expr.P.lx.Qasm_lexer.pos;
        advance ps;
        skip ()
      | Qasm_lexer.RBRACE ->
        if !depth = 0 then advance ps
        else begin
          decr depth;
          body_end_pos := ps.st.Qasm_expr.P.lx.Qasm_lexer.pos;
          advance ps;
          skip ()
        end
      | Qasm_lexer.EOF -> perror ps "unterminated for-loop body"
      | _ ->
        body_end_pos := ps.st.Qasm_expr.P.lx.Qasm_lexer.pos;
        advance ps;
        skip ()
    in
    skip ();
    let body_src =
      String.sub ps.st.Qasm_expr.P.lx.Qasm_lexer.src body_start_pos
        (!body_end_pos - body_start_pos)
    in
    (* OpenQASM 3 ranges are inclusive *)
    let values =
      let rec gen i acc =
        if (step > 0 && i > stop) || (step < 0 && i < stop) then List.rev acc
        else gen (i + step) (i :: acc)
      in
      gen a []
    in
    List.iter
      (fun v ->
        let sub_lx = Qasm_lexer.create body_src in
        (* keep line numbers roughly aligned for error messages *)
        sub_lx.Qasm_lexer.line <- body_start_line;
        let sub_st = { Qasm_expr.P.tok = Qasm_lexer.next sub_lx; lx = sub_lx } in
        let sub_ps =
          { ps with st = sub_st; loop_env = (var, v) :: ps.loop_env }
        in
        while tok sub_ps <> Qasm_lexer.EOF do
          parse_statement sub_ps ?cond ()
        done)
      values
  | Qasm_lexer.ID "if" ->
    advance ps;
    expect ps Qasm_lexer.LPAREN;
    let a = parse_argument ps in
    expect ps Qasm_lexer.EQEQ;
    let v = parse_index ps in
    expect ps Qasm_lexer.RPAREN;
    let cbits = resolve ps.cregs ps a in
    let cond' = { Circuit.cbits; value = v } in
    (match cond with
    | Some _ -> perror ps "nested if conditions are not supported"
    | None -> ());
    if tok ps = Qasm_lexer.LBRACE then begin
      advance ps;
      while tok ps <> Qasm_lexer.RBRACE do
        parse_statement ps ~cond:cond' ()
      done;
      advance ps
    end
    else parse_statement ps ~cond:cond' ()
  | Qasm_lexer.ID "measure" ->
    (* expression-statement form: measure q; (result discarded) *)
    perror ps "unassigned measure is not supported; use 'c = measure q;'"
  | Qasm_lexer.ID name -> (
    (* either an assignment 'c = measure q;' / 'c[i] = measure q[j];'
       or a gate application *)
    advance ps;
    let arg0 =
      if tok ps = Qasm_lexer.LBRACKET then begin
        advance ps;
        let idx = parse_index ps in
        expect ps Qasm_lexer.RBRACKET;
        Indexed (name, idx)
      end
      else Whole name
    in
    match tok ps with
    | Qasm_lexer.EQUALS ->
      advance ps;
      (match tok ps with
      | Qasm_lexer.ID "measure" -> advance ps
      | t ->
        perror ps "expected 'measure' after '=', found '%s'"
          (Qasm_lexer.string_of_token t));
      let qarg = parse_argument ps in
      expect ps Qasm_lexer.SEMI;
      let cs = resolve ps.cregs ps arg0 and qs = resolve ps.qregs ps qarg in
      List.iter
        (fun pair ->
          match pair with
          | [ q; c ] -> Circuit.Build.measure ?cond ps.build q c
          | _ -> assert false)
        (broadcast ps [ qs; cs ])
    | _ ->
      (* gate application: name(params)? args ; where arg0 was consumed
         only if it had no parameters — reparse path: if tok is LPAREN we
         mis-read; handle by treating arg0 as plain name *)
      let params =
        match arg0 with
        | Whole _ when tok ps = Qasm_lexer.LPAREN -> parse_params ps
        | _ -> []
      in
      let rec args acc =
        let a = parse_argument ps in
        if tok ps = Qasm_lexer.COMMA then begin
          advance ps;
          args (a :: acc)
        end
        else begin
          expect ps Qasm_lexer.SEMI;
          List.rev (a :: acc)
        end
      in
      let arglist =
        match arg0 with
        | Whole _ -> args []
        | Indexed _ ->
          perror ps "unexpected '[' after gate name %s" name
      in
      let resolved = List.map (resolve ps.qregs ps) arglist in
      List.iter
        (fun qubits ->
          match Qasm2.builtin name params with
          | Some g -> Circuit.Build.gate ?cond ps.build g qubits
          | None -> perror ps "unknown gate %s" name)
        (broadcast ps resolved))
  | t -> perror ps "unexpected '%s'" (Qasm_lexer.string_of_token t)

let parse src : Circuit.t =
  let lx = Qasm_lexer.create src in
  let tok0 =
    try Qasm_lexer.next lx with Qasm_lexer.Error (l, m) -> error l "%s" m
  in
  let st = { Qasm_expr.P.tok = tok0; lx } in
  let ps =
    { st; qregs = []; cregs = []; build = Circuit.Build.create (); loop_env = [] }
  in
  (try
     (match tok ps with
     | Qasm_lexer.ID "OPENQASM" ->
       advance ps;
       (match tok ps with
       | Qasm_lexer.INT 3 -> advance ps
       | Qasm_lexer.REAL 3.0 -> advance ps
       | t ->
         perror ps "unsupported OpenQASM version '%s'"
           (Qasm_lexer.string_of_token t));
       expect ps Qasm_lexer.SEMI
     | _ -> perror ps "missing OPENQASM 3 header");
     while tok ps <> Qasm_lexer.EOF do
       parse_statement ps ()
     done
   with Qasm_lexer.Error (l, m) -> error l "%s" m);
  Circuit.Build.finish ~qregs:ps.qregs ~cregs:ps.cregs ps.build

let parse_result src =
  match parse src with
  | c -> Ok c
  | exception Error (l, m) -> Error (Printf.sprintf "line %d: %s" l m)

(* ------------------------------------------------------------------ *)
(* Printer (linear form)                                                *)

let to_string (t : Circuit.t) =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "OPENQASM 3;@\ninclude \"stdgates.inc\";@\n";
  List.iter
    (fun (r : Circuit.register) ->
      Format.fprintf ppf "qubit[%d] %s;@\n" r.rsize r.rname)
    t.qregs;
  List.iter
    (fun (r : Circuit.register) ->
      Format.fprintf ppf "bit[%d] %s;@\n" r.rsize r.rname)
    t.cregs;
  let qref = Qasm2.ref_in t.qregs and cref = Qasm2.ref_in t.cregs in
  List.iter
    (fun (op : Circuit.op) ->
      (match op.cond with
      | Some { cbits = [ c ]; value } ->
        Format.fprintf ppf "if (%s == %d) " (cref c) value
      | Some { cbits; value } -> (
        match Qasm2.creg_covering t.cregs cbits with
        | Some r -> Format.fprintf ppf "if (%s == %d) " r.Circuit.rname value
        | None ->
          invalid_arg "Qasm3.to_string: condition does not cover a register")
      | None -> ());
      match op.kind with
      | Circuit.Gate (g, qs) ->
        let params = Gate.params g in
        let name =
          match g with
          | Gate.P _ -> "p"
          | Gate.U _ -> "u3"
          | Gate.Cp _ -> "cp"
          | Gate.Cu _ -> "cu3"
          | g -> Gate.name g
        in
        if params = [] then
          Format.fprintf ppf "%s %s;@\n" name
            (String.concat ", " (List.map qref qs))
        else
          Format.fprintf ppf "%s(%a) %s;@\n" name
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               Qasm2.pp_angle)
            params
            (String.concat ", " (List.map qref qs))
      | Circuit.Measure (q, c) ->
        Format.fprintf ppf "%s = measure %s;@\n" (cref c) (qref q)
      | Circuit.Reset q -> Format.fprintf ppf "reset %s;@\n" (qref q)
      | Circuit.Barrier qs ->
        Format.fprintf ppf "barrier %s;@\n"
          (String.concat ", " (List.map qref qs)))
    t.ops;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
