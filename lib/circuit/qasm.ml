(* OpenQASM 2.0 and 3 front- and back-end (the paper's Sec. II-A/II-B,
   Fig. 1 left): one parser and one printer for both versions.

   The mandatory header ([OPENQASM 2.0;] or [OPENQASM 3;]) picks the
   version, and only the syntax that differs branches on it:
   - declarations: [qreg q[n];]/[creg c[n];] in 2, [qubit[n] q;]/
     [bit[n] c;] in 3;
   - measurement: [measure a -> b;] in both, [b = measure a;] in 3;
   - [if]: a whole register and one operation in 2, a bit or a register
     and a statement or block in 3;
   - [for] loops over inclusive integer ranges, in 3 only;
   - indices: integer literals in 2, expressions over loop variables
     in 3.
   Both share the qelib1/stdgates vocabulary (implemented natively),
   user [gate] definitions (expanded as macros), [opaque] declarations,
   register broadcasting, [reset] and [barrier].

   Each statement is parsed into one small statement type, shared by
   gate bodies, [if] blocks and [for] bodies, and then elaborated into
   the circuit: a top-level statement as soon as it is parsed, a loop
   body once per iteration (the circuit IR has no loops). Names are
   checked where they are read, so elaboration never meets an unbound
   one. *)

exception Error of int * string
exception Unsupported of string

type version = [ `V2 | `V3 ]

let error line fmt =
  Format.kasprintf (fun msg -> raise (Error (line, msg))) fmt

(* ------------------------------------------------------------------ *)
(* Builtin gate vocabulary (U, CX and qelib1/stdgates)                  *)

let half_pi = Float.pi /. 2.0

let builtin name (params : float list) : Gate.t option =
  match name, params with
  | "U", [ a; b; c ] | "u3", [ a; b; c ] | "u", [ a; b; c ] ->
    Some (Gate.U (a, b, c))
  | "u2", [ p; l ] -> Some (Gate.U (half_pi, p, l))
  | "u1", [ l ] | "p", [ l ] | "phase", [ l ] -> Some (Gate.P l)
  | "u0", [ _ ] -> Some Gate.I
  | "CX", [] | "cx", [] | "cnot", [] -> Some Gate.Cx
  | "id", [] -> Some Gate.I
  | "x", [] -> Some Gate.X
  | "y", [] -> Some Gate.Y
  | "z", [] -> Some Gate.Z
  | "h", [] -> Some Gate.H
  | "s", [] -> Some Gate.S
  | "sdg", [] -> Some Gate.Sdg
  | "t", [] -> Some Gate.T
  | "tdg", [] -> Some Gate.Tdg
  | "sx", [] -> Some Gate.Sx
  | "sxdg", [] -> Some Gate.Sxdg
  | "rx", [ t ] -> Some (Gate.Rx t)
  | "ry", [ t ] -> Some (Gate.Ry t)
  | "rz", [ t ] -> Some (Gate.Rz t)
  | "cz", [] -> Some Gate.Cz
  | "cy", [] -> Some Gate.Cy
  | "ch", [] -> Some Gate.Ch
  | "ccx", [] -> Some Gate.Ccx
  | "crx", [ t ] -> Some (Gate.Crx t)
  | "cry", [ t ] -> Some (Gate.Cry t)
  | "crz", [ t ] -> Some (Gate.Crz t)
  | "cu1", [ t ] | "cp", [ t ] -> Some (Gate.Cp t)
  | "cu3", [ a; b; c ] -> Some (Gate.Cu (a, b, c))
  | "swap", [] -> Some Gate.Swap
  | "cswap", [] -> Some Gate.Cswap
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)

(* A register (or a gate's qubit argument), whole or at one index. *)
type arg = string * Qasm_expr.t option

type stmt =
  | Decl of bool * string * Qasm_expr.t  (* quantum?, name, size *)
  | Apply of string * Qasm_expr.t list * arg list
  | Measure of arg * arg  (* qubit, bit *)
  | Reset of arg
  | Barrier of arg list  (* [] is every qubit *)
  | If of arg * Qasm_expr.t * located list
  | For of string * Qasm_expr.t * Qasm_expr.t * Qasm_expr.t * located list
      (* variable, first, step, last (inclusive) *)

(* A statement with the line where its elaboration errors are
   reported: the line of its first token. *)
and located = int * stmt

type gate_def = {
  g_params : string list;
  g_qubits : string list;
  g_body : located list;  (* applications and barriers; empty if opaque *)
  g_opaque : bool;
}

type state = {
  st : Qasm_expr.P.state;
  mutable v3 : bool;
  mutable qregs : Circuit.register list;
  mutable cregs : Circuit.register list;
  gates : (string, gate_def) Hashtbl.t;
  build : Circuit.Build.t;
  (* the names an expression may read here (loop variables, or a gate's
     parameters), and the gate whose body is being parsed *)
  mutable scope : (string * float) list;
  mutable in_gate : string option;
  mutable in_if : bool;  (* in an [if] body: conditions do not nest *)
  mutable depth : int;  (* block nesting *)
}

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

let tok ps = ps.st.Qasm_expr.P.tok
let advance ps = Qasm_expr.P.advance ps.st
let line ps = ps.st.Qasm_expr.P.lx.Qasm_lexer.line
let perror ps fmt = error (line ps) fmt
let show = Qasm_lexer.string_of_token

let expect ps t =
  if tok ps = t then advance ps
  else perror ps "expected '%s', found '%s'" (show t) (show (tok ps))

let expect_id ps =
  match tok ps with
  | Qasm_lexer.ID name ->
    advance ps;
    name
  | t -> perror ps "expected identifier, found '%s'" (show t)

let expect_int ps =
  match tok ps with
  | Qasm_lexer.INT n ->
    advance ps;
    n
  | t -> perror ps "expected integer, found '%s'" (show t)

let rec parse_id_list ps acc =
  let id = expect_id ps in
  if tok ps = Qasm_lexer.COMMA then begin
    advance ps;
    parse_id_list ps (id :: acc)
  end
  else List.rev (id :: acc)

(* [e], once evaluating it over the names in scope shows it reads no
   other: an unbound name is reported where it is read. *)
let check_names ps e =
  match Qasm_expr.eval ps.scope e with
  | _ -> e
  | exception Qasm_expr.Unbound p -> (
    match ps.in_gate with
    | Some g -> perror ps "unbound parameter %s in gate %s" p g
    | None -> perror ps "unbound parameter %s" p)

(* An index, a size or a compared value: an integer literal in
   OpenQASM 2, an expression over the loop variables in 3. *)
let parse_index ps =
  if ps.v3 then check_names ps (Qasm_expr.P.parse ~depth:ps.depth 0 ps.st)
  else Qasm_expr.Num (float_of_int (expect_int ps))

let parse_arg_of ps name : arg =
  if tok ps = Qasm_lexer.LBRACKET then begin
    advance ps;
    let idx = parse_index ps in
    expect ps Qasm_lexer.RBRACKET;
    (name, Some idx)
  end
  else (name, None)

let parse_arg ps = parse_arg_of ps (expect_id ps)

(* Operands up to the closing semicolon. *)
let rec parse_args ps acc =
  let a = parse_arg ps in
  if tok ps = Qasm_lexer.COMMA then begin
    advance ps;
    parse_args ps (a :: acc)
  end
  else begin
    expect ps Qasm_lexer.SEMI;
    List.rev (a :: acc)
  end

let parse_params ps =
  if tok ps <> Qasm_lexer.LPAREN then []
  else begin
    advance ps;
    let rec go acc =
      let e = Qasm_expr.P.parse ~depth:ps.depth 0 ps.st in
      if tok ps = Qasm_lexer.COMMA then begin
        advance ps;
        go (e :: acc)
      end
      else begin
        expect ps Qasm_lexer.RPAREN;
        List.rev (e :: acc)
      end
    in
    let exprs =
      if tok ps = Qasm_lexer.RPAREN then begin
        advance ps;
        []
      end
      else go []
    in
    List.map (check_names ps) exprs
  end

(* A measurement, a reset or a gate application. *)
let parse_qop ps =
  match tok ps with
  | Qasm_lexer.ID "measure" ->
    advance ps;
    let q = parse_arg ps in
    expect ps Qasm_lexer.ARROW;
    let c = parse_arg ps in
    expect ps Qasm_lexer.SEMI;
    Measure (q, c)
  | Qasm_lexer.ID "reset" ->
    advance ps;
    let q = parse_arg ps in
    expect ps Qasm_lexer.SEMI;
    Reset q
  | Qasm_lexer.ID name ->
    advance ps;
    if ps.v3 && (tok ps = Qasm_lexer.LBRACKET || tok ps = Qasm_lexer.EQUALS)
    then begin
      let c = parse_arg_of ps name in
      expect ps Qasm_lexer.EQUALS;
      (match tok ps with
      | Qasm_lexer.ID "measure" -> advance ps
      | t -> perror ps "expected 'measure' after '=', found '%s'" (show t));
      let q = parse_arg ps in
      expect ps Qasm_lexer.SEMI;
      Measure (q, c)
    end
    else
      let exprs = parse_params ps in
      Apply (name, exprs, parse_args ps [])
  | t -> perror ps "expected quantum operation, found '%s'" (show t)

(* Only applications and barriers over the gate's own qubit arguments
   may appear in its body. *)
let check_gate_body name qubits body =
  let check_arg line = function
    | q, None when List.mem q qubits -> ()
    | q, _ -> error line "unbound qubit %s in gate %s" q name
  in
  List.iter
    (fun (line, s) ->
      match s with
      | Apply (_, _, args) | Barrier args -> List.iter (check_arg line) args
      | _ -> error line "only gate applications may appear in gate %s" name)
    body

(* One statement, located at the line it starts on, where its own
   errors are reported (the body statements of an [if] or a [for] carry
   their own lines). [None] for a definition or an include, which leave
   nothing to elaborate. *)
let rec parse_stmt ps =
  let start = line ps in
  let here s = Some (start, s) in
  match tok ps with
  | Qasm_lexer.ID "include" ->
    advance ps;
    (match tok ps with
    | Qasm_lexer.STRING lib ->
      advance ps;
      if not (String.equal lib "qelib1.inc" || String.equal lib "stdgates.inc")
      then
        perror ps "cannot resolve include %S (only %s is built in)" lib
          (if ps.v3 then "stdgates.inc" else "qelib1.inc")
    | t -> perror ps "expected string after include, found '%s'" (show t));
    expect ps Qasm_lexer.SEMI;
    None
  | Qasm_lexer.ID ("qreg" | "creg" as kw) when not ps.v3 ->
    advance ps;
    let name = expect_id ps in
    expect ps Qasm_lexer.LBRACKET;
    let size = parse_index ps in
    expect ps Qasm_lexer.RBRACKET;
    expect ps Qasm_lexer.SEMI;
    here (Decl (kw = "qreg", name, size))
  | Qasm_lexer.ID ("qubit" | "bit" as kw) when ps.v3 ->
    advance ps;
    let size =
      if tok ps = Qasm_lexer.LBRACKET then begin
        advance ps;
        let n = parse_index ps in
        expect ps Qasm_lexer.RBRACKET;
        n
      end
      else Qasm_expr.Num 1.
    in
    let name = expect_id ps in
    expect ps Qasm_lexer.SEMI;
    here (Decl (kw = "qubit", name, size))
  | Qasm_lexer.ID ("gate" | "opaque" as kw) ->
    advance ps;
    let name = expect_id ps in
    let g_params =
      if tok ps = Qasm_lexer.LPAREN then begin
        advance ps;
        let ids = if tok ps = Qasm_lexer.RPAREN then [] else parse_id_list ps [] in
        expect ps Qasm_lexer.RPAREN;
        ids
      end
      else []
    in
    let g_qubits = parse_id_list ps [] in
    let g_opaque = kw = "opaque" in
    let g_body =
      if g_opaque then begin
        expect ps Qasm_lexer.SEMI;
        []
      end
      else begin
        let scope = ps.scope and in_gate = ps.in_gate in
        ps.scope <- List.map (fun p -> (p, 0.)) g_params;
        ps.in_gate <- Some name;
        let body = parse_block ps in
        ps.scope <- scope;
        ps.in_gate <- in_gate;
        check_gate_body name g_qubits body;
        body
      end
    in
    Hashtbl.replace ps.gates name { g_params; g_qubits; g_body; g_opaque };
    None
  | Qasm_lexer.ID "barrier" ->
    advance ps;
    if tok ps = Qasm_lexer.SEMI then begin
      advance ps;
      here (Barrier [])
    end
    else
      let args = parse_args ps [] in
      here (Barrier args)
  | Qasm_lexer.ID "if" ->
    advance ps;
    expect ps Qasm_lexer.LPAREN;
    let bits = if ps.v3 then parse_arg ps else (expect_id ps, None) in
    expect ps Qasm_lexer.EQEQ;
    let value = parse_index ps in
    expect ps Qasm_lexer.RPAREN;
    if ps.in_if then perror ps "nested if conditions are not supported";
    ps.in_if <- true;
    let body =
      if not ps.v3 then
        let at = line ps in
        [ (at, parse_qop ps) ]
      else if tok ps = Qasm_lexer.LBRACE then parse_block ps
      else Option.to_list (parse_stmt ps)
    in
    ps.in_if <- false;
    here (If (bits, value, body))
  | Qasm_lexer.ID "for" when ps.v3 ->
    (* for (uint[N] | int)? i in [first:last] | [first:step:last] { ... } *)
    advance ps;
    (match tok ps with
    | Qasm_lexer.ID ("uint" | "int") ->
      advance ps;
      if tok ps = Qasm_lexer.LBRACKET then begin
        advance ps;
        ignore (parse_index ps);
        expect ps Qasm_lexer.RBRACKET
      end
    | _ -> ());
    let var = expect_id ps in
    (match tok ps with
    | Qasm_lexer.ID "in" -> advance ps
    | t -> perror ps "expected 'in', found '%s'" (show t));
    expect ps Qasm_lexer.LBRACKET;
    let first = parse_index ps in
    expect ps Qasm_lexer.COLON;
    let b = parse_index ps in
    let step, last =
      if tok ps = Qasm_lexer.COLON then begin
        advance ps;
        (b, parse_index ps)
      end
      else (Qasm_expr.Num 1., b)
    in
    expect ps Qasm_lexer.RBRACKET;
    let scope = ps.scope in
    ps.scope <- (var, 0.) :: scope;
    let body = parse_block ps in
    ps.scope <- scope;
    here (For (var, first, step, last, body))
  | Qasm_lexer.ID _ ->
    let s = parse_qop ps in
    here s
  | t ->
    perror ps "unexpected '%s'%s" (show t)
      (if ps.depth = 0 then " at top level" else "")

(* [{ statements }]: gate bodies, [if] blocks and [for] bodies. Block
   nesting shares [Jsonx.max_depth] with expression nesting. *)
and parse_block ps =
  expect ps Qasm_lexer.LBRACE;
  ps.depth <- ps.depth + 1;
  if ps.depth > Jsonx.max_depth then
    perror ps "nesting deeper than %d" Jsonx.max_depth;
  let rec go acc =
    if tok ps = Qasm_lexer.RBRACE then begin
      advance ps;
      List.rev acc
    end
    else
      match parse_stmt ps with Some s -> go (s :: acc) | None -> go acc
  in
  let body = go [] in
  ps.depth <- ps.depth - 1;
  body

(* ------------------------------------------------------------------ *)
(* Elaboration                                                          *)

(* Indices, sizes and range bounds are integers no float rounds. *)
let to_int line v =
  if Float.is_integer v && Float.abs v <= 0x1p52 then int_of_float v
  else error line "expected an integer, found %g" v

let bits (r : Circuit.register) = List.init r.rsize (fun i -> r.roffset + i)

let resolve ps line env ~quantum ((name, index) : arg) =
  let regs = if quantum then ps.qregs else ps.cregs in
  match
    List.find_opt (fun (r : Circuit.register) -> String.equal r.rname name) regs
  with
  | None ->
    error line "undeclared %s register %s"
      (if quantum then "quantum" else "classical")
      name
  | Some r -> (
    match index with
    | None -> bits r
    | Some e ->
      let i = to_int line (Qasm_expr.eval env e) in
      if i < 0 || i >= r.rsize then
        error line "index %d out of range for %s[%d]" i name r.rsize;
      [ r.roffset + i ])

(* Broadcast semantics: whole-register operands must agree in length;
   singleton operands repeat. *)
let broadcast line (operands : int list list) =
  match List.sort_uniq compare (List.map List.length operands) with
  | [ 1 ] -> [ List.map List.hd operands ]
  | [ n ] | [ 1; n ] ->
    List.init n (fun i ->
        List.map (function [ only ] -> only | ops -> List.nth ops i) operands)
  | _ -> error line "mismatched register sizes in broadcast"

(* One gate application: a builtin, checked for arity and duplicate
   operands, or a user gate, expanded with its parameters and qubits
   bound. *)
let rec apply ps line ?cond ~depth name (values : float list)
    (qubits : int list) =
  if depth > 64 then error line "gate expansion too deep (recursive gate?)";
  match builtin name values with
  | Some g ->
    if List.length qubits <> Gate.num_qubits g then
      error line "%s expects %d qubits, got %d" name (Gate.num_qubits g)
        (List.length qubits);
    if List.length (List.sort_uniq compare qubits) <> List.length qubits then
      error line "duplicate qubit operands to %s" name;
    Circuit.Build.gate ?cond ps.build g qubits
  | None -> (
    match Hashtbl.find_opt ps.gates name with
    | Some def when not def.g_opaque ->
      if List.length values <> List.length def.g_params then
        error line "%s expects %d parameters" name (List.length def.g_params);
      if List.length qubits <> List.length def.g_qubits then
        error line "%s expects %d qubits" name (List.length def.g_qubits);
      let penv = List.combine def.g_params values in
      let qenv = List.combine def.g_qubits qubits in
      List.iter
        (function
          | _, Apply (g, exprs, args) ->
            apply ps line ?cond ~depth:(depth + 1) g
              (List.map (Qasm_expr.eval penv) exprs)
              (List.map (fun (q, _) -> List.assoc q qenv) args)
          | _ -> () (* barriers inside gate bodies are hints *))
        def.g_body
    | Some _ -> error line "cannot apply opaque gate %s" name
    | None -> error line "unknown gate %s" name)

let rec exec ps env ?cond ((line, s) : located) =
  let int_of e = to_int line (Qasm_expr.eval env e) in
  let qubits = resolve ps line env ~quantum:true in
  match s with
  | Decl (quantum, name, size) ->
    let size = int_of size in
    if size < 0 then error line "negative size %d for register %s" size name;
    let regs = if quantum then ps.qregs else ps.cregs in
    if List.exists (fun (r : Circuit.register) -> String.equal r.rname name) regs
    then error line "duplicate %s %s" (if quantum then "qreg" else "creg") name;
    let roffset =
      List.fold_left (fun a (r : Circuit.register) -> a + r.rsize) 0 regs
    in
    let regs = regs @ [ { Circuit.rname = name; roffset; rsize = size } ] in
    (* the builder learns about every declared bit *)
    if quantum then begin
      ps.qregs <- regs;
      if size > 0 then Circuit.Build.touch_qubit ps.build (roffset + size - 1)
    end
    else begin
      ps.cregs <- regs;
      if size > 0 then Circuit.Build.touch_clbit ps.build (roffset + size - 1)
    end
  | Apply (name, exprs, args) ->
    let values = List.map (Qasm_expr.eval env) exprs in
    let resolved = List.map qubits args in
    List.iter
      (apply ps line ?cond ~depth:0 name values)
      (broadcast line resolved)
  | Measure (q, c) ->
    let qs = qubits q in
    let cs = resolve ps line env ~quantum:false c in
    List.iter
      (function
        | [ q; c ] -> Circuit.Build.measure ?cond ps.build q c
        | _ -> assert false)
      (broadcast line [ qs; cs ])
  | Reset q -> List.iter (Circuit.Build.reset ?cond ps.build) (qubits q)
  | Barrier [] -> Circuit.Build.barrier ps.build (List.concat_map bits ps.qregs)
  | Barrier args -> Circuit.Build.barrier ps.build (List.concat_map qubits args)
  | If (bits, value, body) ->
    let cbits = resolve ps line env ~quantum:false bits in
    let cond = { Circuit.cbits; value = int_of value } in
    List.iter (exec ps env ~cond) body
  | For (var, first, step, last, body) ->
    let first = int_of first and step = int_of step and last = int_of last in
    if step = 0 then error line "for-loop step cannot be 0";
    let rec go i =
      if (step > 0 && i <= last) || (step < 0 && i >= last) then begin
        List.iter (exec ps ((var, float_of_int i) :: env) ?cond) body;
        go (i + step)
      end
    in
    go first

let parse src : Circuit.t =
  let lx = Qasm_lexer.create src in
  let tok0 =
    try Qasm_lexer.next lx with Qasm_lexer.Error (l, m) -> error l "%s" m
  in
  let ps =
    {
      st = { Qasm_expr.P.tok = tok0; lx };
      v3 = false;
      qregs = [];
      cregs = [];
      gates = Hashtbl.create 16;
      build = Circuit.Build.create ();
      scope = [];
      in_gate = None;
      in_if = false;
      depth = 0;
    }
  in
  (try
     (* header: OPENQASM 2.0; or OPENQASM 3; *)
     (match tok ps with
     | Qasm_lexer.ID "OPENQASM" ->
       advance ps;
       (match tok ps with
       | Qasm_lexer.REAL 2.0 | Qasm_lexer.INT 2 -> ()
       | Qasm_lexer.INT 3 | Qasm_lexer.REAL 3.0 -> ps.v3 <- true
       | t -> perror ps "unsupported OpenQASM version '%s'" (show t));
       advance ps;
       expect ps Qasm_lexer.SEMI
     | _ -> perror ps "missing OPENQASM 2.0 header");
     while tok ps <> Qasm_lexer.EOF do
       Option.iter (exec ps []) (parse_stmt ps)
     done
   with Qasm_lexer.Error (l, m) -> error l "%s" m);
  Circuit.Build.finish ~qregs:ps.qregs ~cregs:ps.cregs ps.build

let parse_result src =
  match parse src with
  | c -> Ok c
  | exception Error (l, m) -> Error (Printf.sprintf "line %d: %s" l m)

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)

(* Gates not in qelib1 need a definition in an OpenQASM 2 prologue. *)
let prologue_defs = function
  | Gate.Sx -> Some "gate sx a { sdg a; h a; sdg a; }"
  | Gate.Sxdg -> Some "gate sxdg a { s a; h a; s a; }"
  | Gate.Crx _ -> Some "gate crx(t) a, b { u1(pi/2) b; cx a, b; u3(-t/2,0,0) b; cx a, b; u3(t/2,-pi/2,0) b; }"
  | Gate.Cry _ -> Some "gate cry(t) a, b { ry(t/2) b; cx a, b; ry(-t/2) b; cx a, b; }"
  | _ -> None

let gate_name version (g : Gate.t) =
  match g, version with
  | Gate.P _, `V2 -> "u1"
  | Gate.Cp _, `V2 -> "cu1"
  | Gate.P _, `V3 -> "p"
  | Gate.Cp _, `V3 -> "cp"
  | Gate.U _, _ -> "u3"
  | Gate.Cu _, _ -> "cu3"
  | g, _ -> Gate.name g

(* Maps a flat index back to "reg[i]" syntax. *)
let ref_in regs idx =
  let r =
    List.find_opt
      (fun (r : Circuit.register) ->
        idx >= r.roffset && idx < r.roffset + r.rsize)
      regs
  in
  match r with
  | Some r -> Printf.sprintf "%s[%d]" r.Circuit.rname (idx - r.Circuit.roffset)
  | None -> Printf.sprintf "q[%d]" idx

let creg_covering regs cbits =
  List.find_opt
    (fun (r : Circuit.register) -> List.sort compare cbits = bits r)
    regs

let pp_angle ppf t =
  (* render common multiples of pi exactly *)
  let k = t /. Float.pi in
  if Float.is_integer (k *. 8.0) && Float.abs k <= 16.0 then begin
    if Float.equal k 0.0 then Format.pp_print_string ppf "0"
    else if Float.equal k 1.0 then Format.pp_print_string ppf "pi"
    else if Float.equal k (-1.0) then Format.pp_print_string ppf "-pi"
    else Format.fprintf ppf "%g*pi" k
  end
  (* non-finite angles as expressions every OpenQASM reader evaluates *)
  else if Float.is_nan t then Format.pp_print_string ppf "0/0"
  else if Float.equal t Float.infinity then Format.pp_print_string ppf "1/0"
  else if Float.equal t Float.neg_infinity then
    Format.pp_print_string ppf "-1/0"
  else Format.fprintf ppf "%.17g" t

(* Conditions the printer spells as a register comparison: every one in
   OpenQASM 2, all but single-bit ones in 3 (which compares a bit
   directly). *)
let reads_register version (c : Circuit.cond) =
  version = `V2 || List.compare_length_with c.cbits 1 <> 0

(* A condition on a run of consecutive bits of one register (LSB
   first) that is not a whole register becomes expressible by splitting
   registers: every register is cut where such a run starts and ends,
   and each piece declared in order as a register of its own, named
   [<register>_<first bit>]. Pieces declared in order keep every bit's
   flat index, so a reader maps each bit back to the same classical
   bit. *)
let split_cregs version (t : Circuit.t) =
  let cuts = Hashtbl.create 8 in
  let unsupported cbits =
    raise
      (Unsupported
         (Printf.sprintf
            "OpenQASM %s cannot condition on classical bits [%s]: not a run of one register"
            (if version = `V2 then "2" else "3")
            (String.concat "; " (List.map string_of_int cbits))))
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.cond with
      | Some ({ cbits = first :: _ as cbits; _ } as c)
        when reads_register version c && creg_covering t.cregs cbits = None -> (
        let w = List.length cbits in
        if not (List.equal Int.equal cbits (List.init w (fun i -> first + i))) then
          unsupported cbits;
        match
          List.find_opt
            (fun (r : Circuit.register) ->
              first >= r.roffset && first + w <= r.roffset + r.rsize)
            t.cregs
        with
        | Some _ ->
          Hashtbl.replace cuts first ();
          Hashtbl.replace cuts (first + w) ()
        | None -> unsupported cbits)
      | _ -> ())
    t.ops;
  let taken = Hashtbl.create 8 in
  List.iter (fun (r : Circuit.register) -> Hashtbl.replace taken r.rname ()) t.cregs;
  let rec fresh name =
    if Hashtbl.mem taken name then fresh (name ^ "_")
    else begin
      Hashtbl.replace taken name ();
      name
    end
  in
  let cregs =
    List.concat_map
      (fun (r : Circuit.register) ->
        let stop = r.roffset + r.rsize in
        let inside = ref [] in
        for i = stop - 1 downto r.roffset + 1 do
          if Hashtbl.mem cuts i then inside := i :: !inside
        done;
        if !inside = [] then [ r ]
        else
          let starts = r.roffset :: !inside in
          List.mapi
            (fun j a ->
              let b = match List.nth_opt starts (j + 1) with Some b -> b | None -> stop in
              {
                Circuit.rname = fresh (Printf.sprintf "%s_%d" r.rname (a - r.roffset));
                roffset = a;
                rsize = b - a;
              })
            starts)
      t.cregs
  in
  (* every such condition now reads a whole register, unless two runs
     overlap without coinciding and split each other *)
  List.iter
    (fun (op : Circuit.op) ->
      match op.cond with
      | Some ({ cbits; _ } as c)
        when reads_register version c && creg_covering cregs cbits = None ->
        unsupported cbits
      | _ -> ())
    t.ops;
  cregs

let to_string ~(version : version) (t : Circuit.t) =
  let cregs = split_cregs version t in
  let qref = ref_in t.qregs and cref = ref_in cregs in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  (match version with
  | `V2 ->
    Format.fprintf ppf "OPENQASM 2.0;@\ninclude \"qelib1.inc\";@\n";
    (* prologue definitions for non-qelib gates *)
    let defs = Hashtbl.create 4 in
    List.iter
      (fun (op : Circuit.op) ->
        match op.kind with
        | Circuit.Gate (g, _) -> (
          match prologue_defs g with
          | Some d -> Hashtbl.replace defs d ()
          | None -> ())
        | _ -> ())
      t.ops;
    Hashtbl.iter (fun d () -> Format.fprintf ppf "%s@\n" d) defs
  | `V3 -> Format.fprintf ppf "OPENQASM 3;@\ninclude \"stdgates.inc\";@\n");
  let declare quantum (r : Circuit.register) =
    match version with
    | `V2 ->
      Format.fprintf ppf "%s %s[%d];@\n"
        (if quantum then "qreg" else "creg")
        r.rname r.rsize
    | `V3 ->
      Format.fprintf ppf "%s[%d] %s;@\n"
        (if quantum then "qubit" else "bit")
        r.rsize r.rname
  in
  List.iter (declare true) t.qregs;
  List.iter (declare false) cregs;
  List.iter
    (fun (op : Circuit.op) ->
      (match op.cond with
      | Some ({ cbits; value } as c) when reads_register version c -> (
        match creg_covering cregs cbits with
        | Some r -> Format.fprintf ppf "if (%s == %d) " r.rname value
        | None -> assert false (* split_cregs covers every such condition *))
      | Some { cbits; value } ->
        Format.fprintf ppf "if (%s == %d) " (cref (List.hd cbits)) value
      | None -> ());
      match op.kind with
      | Circuit.Gate (g, qs) ->
        let params = Gate.params g in
        if params = [] then
          Format.fprintf ppf "%s %s;@\n" (gate_name version g)
            (String.concat ", " (List.map qref qs))
        else
          Format.fprintf ppf "%s(%a) %s;@\n" (gate_name version g)
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               pp_angle)
            params
            (String.concat ", " (List.map qref qs))
      | Circuit.Measure (q, c) -> (
        match version with
        | `V2 -> Format.fprintf ppf "measure %s -> %s;@\n" (qref q) (cref c)
        | `V3 -> Format.fprintf ppf "%s = measure %s;@\n" (cref c) (qref q))
      | Circuit.Reset q -> Format.fprintf ppf "reset %s;@\n" (qref q)
      | Circuit.Barrier qs ->
        Format.fprintf ppf "barrier %s;@\n"
          (String.concat ", " (List.map qref qs)))
    t.ops;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
