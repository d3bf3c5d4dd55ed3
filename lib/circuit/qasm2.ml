(* OpenQASM 2.0 front- and back-end (the paper's Sec. II-A, Fig. 1 left).

   The parser supports the full OpenQASM 2 language: register
   declarations, the built-in [U]/[CX] gates, the qelib1 standard library
   (implemented natively), user gate definitions (expanded as macros),
   [opaque] declarations, register broadcasting, [measure]/[reset],
   [barrier] and [if (creg == n)] conditions. *)

exception Error of int * string
exception Unsupported of string

let error line fmt =
  Format.kasprintf (fun msg -> raise (Error (line, msg))) fmt

(* ------------------------------------------------------------------ *)
(* Builtin gate vocabulary (U, CX and qelib1)                           *)

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
(* Parser                                                               *)

type argument = Whole of string | Indexed of string * int

type g_stmt =
  | G_apply of string * Qasm_expr.t list * string list
  | G_barrier of string list

type gate_def = {
  g_params : string list;
  g_qubits : string list;
  g_body : g_stmt list; (* empty for opaque gates *)
  g_opaque : bool;
}

type state = {
  st : Qasm_expr.P.state;
  mutable qregs : Circuit.register list;
  mutable cregs : Circuit.register list;
  gates : (string, gate_def) Hashtbl.t;
  build : Circuit.Build.t;
  mutable include_seen : bool;
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

let expect_int ps =
  match tok ps with
  | Qasm_lexer.INT n ->
    advance ps;
    n
  | t -> perror ps "expected integer, found '%s'" (Qasm_lexer.string_of_token t)

let find_qreg ps name =
  List.find_opt (fun (r : Circuit.register) -> String.equal r.rname name) ps.qregs

let find_creg ps name =
  List.find_opt (fun (r : Circuit.register) -> String.equal r.rname name) ps.cregs

let parse_argument ps =
  let name = expect_id ps in
  if tok ps = Qasm_lexer.LBRACKET then begin
    advance ps;
    let idx = expect_int ps in
    expect ps Qasm_lexer.RBRACKET;
    Indexed (name, idx)
  end
  else Whole name

(* Resolves an argument against the quantum registers into a list of flat
   qubit indices ([Whole] broadcasts). *)
let resolve_qarg ps = function
  | Whole name -> (
    match find_qreg ps name with
    | Some r -> List.init r.rsize (fun i -> r.roffset + i)
    | None -> perror ps "undeclared quantum register %s" name)
  | Indexed (name, i) -> (
    match find_qreg ps name with
    | Some r ->
      if i < 0 || i >= r.rsize then
        perror ps "index %d out of range for %s[%d]" i name r.rsize;
      [ r.roffset + i ]
    | None -> perror ps "undeclared quantum register %s" name)

let resolve_carg ps = function
  | Whole name -> (
    match find_creg ps name with
    | Some r -> List.init r.rsize (fun i -> r.roffset + i)
    | None -> perror ps "undeclared classical register %s" name)
  | Indexed (name, i) -> (
    match find_creg ps name with
    | Some r ->
      if i < 0 || i >= r.rsize then
        perror ps "index %d out of range for %s[%d]" i name r.rsize;
      [ r.roffset + i ]
    | None -> perror ps "undeclared classical register %s" name)

(* Broadcast semantics: whole-register operands must agree in length;
   singleton operands repeat. *)
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
        if tok ps = Qasm_lexer.COMMA then begin
          advance ps;
          go (e :: acc)
        end
        else begin
          expect ps Qasm_lexer.RPAREN;
          List.rev (e :: acc)
        end
      in
      go []
    end
  end
  else []

let rec parse_id_list ps acc =
  let id = expect_id ps in
  if tok ps = Qasm_lexer.COMMA then begin
    advance ps;
    parse_id_list ps (id :: acc)
  end
  else List.rev (id :: acc)

(* Emits one gate application, expanding user-defined gates. [env] maps
   gate parameters to values. *)
let rec emit_gate ps ?cond ~depth name (param_values : float list)
    (qubits : int list) =
  if depth > 64 then perror ps "gate expansion too deep (recursive gate?)";
  match builtin name param_values with
  | Some g ->
    if List.length qubits <> Gate.num_qubits g then
      perror ps "%s expects %d qubits, got %d" name (Gate.num_qubits g)
        (List.length qubits);
    if
      List.length (List.sort_uniq compare qubits) <> List.length qubits
    then perror ps "duplicate qubit operands to %s" name;
    Circuit.Build.gate ?cond ps.build g qubits
  | None -> (
    match Hashtbl.find_opt ps.gates name with
    | Some def when not def.g_opaque ->
      if List.length param_values <> List.length def.g_params then
        perror ps "%s expects %d parameters" name (List.length def.g_params);
      if List.length qubits <> List.length def.g_qubits then
        perror ps "%s expects %d qubits" name (List.length def.g_qubits);
      let penv = List.combine def.g_params param_values in
      let qenv = List.combine def.g_qubits qubits in
      List.iter
        (fun stmt ->
          match stmt with
          | G_apply (gname, exprs, qargs) ->
            let values =
              List.map
                (fun e ->
                  try Qasm_expr.eval penv e
                  with Qasm_expr.Unbound p ->
                    perror ps "unbound parameter %s in gate %s" p name)
                exprs
            in
            let qs =
              List.map
                (fun q ->
                  match List.assoc_opt q qenv with
                  | Some idx -> idx
                  | None -> perror ps "unbound qubit %s in gate %s" q name)
                qargs
            in
            emit_gate ps ?cond ~depth:(depth + 1) gname values qs
          | G_barrier _ -> () (* barriers inside gate bodies are hints *))
        def.g_body
    | Some _ -> perror ps "cannot apply opaque gate %s" name
    | None -> perror ps "unknown gate %s" name)

(* One quantum operation (after any [if] prefix). *)
let parse_qop ps ?cond () =
  match tok ps with
  | Qasm_lexer.ID "measure" ->
    advance ps;
    let qarg = parse_argument ps in
    expect ps Qasm_lexer.ARROW;
    let carg = parse_argument ps in
    expect ps Qasm_lexer.SEMI;
    let qs = resolve_qarg ps qarg and cs = resolve_carg ps carg in
    List.iter
      (fun pair ->
        match pair with
        | [ q; c ] -> Circuit.Build.measure ?cond ps.build q c
        | _ -> assert false)
      (broadcast ps [ qs; cs ])
  | Qasm_lexer.ID "reset" ->
    advance ps;
    let qarg = parse_argument ps in
    expect ps Qasm_lexer.SEMI;
    List.iter (fun q -> Circuit.Build.reset ?cond ps.build q) (resolve_qarg ps qarg)
  | Qasm_lexer.ID name ->
    advance ps;
    let exprs = parse_params ps in
    let values =
      List.map
        (fun e ->
          try Qasm_expr.eval [] e
          with Qasm_expr.Unbound p -> perror ps "unbound parameter %s" p)
        exprs
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
    let arglist = args [] in
    let resolved = List.map (resolve_qarg ps) arglist in
    List.iter
      (fun qubits -> emit_gate ps ?cond ~depth:0 name values qubits)
      (broadcast ps resolved)
  | t -> perror ps "expected quantum operation, found '%s'" (Qasm_lexer.string_of_token t)

let parse_gate_body ps =
  expect ps Qasm_lexer.LBRACE;
  let stmts = ref [] in
  let rec go () =
    match tok ps with
    | Qasm_lexer.RBRACE -> advance ps
    | Qasm_lexer.ID "barrier" ->
      advance ps;
      let ids = parse_id_list ps [] in
      expect ps Qasm_lexer.SEMI;
      stmts := G_barrier ids :: !stmts;
      go ()
    | Qasm_lexer.ID name ->
      advance ps;
      let exprs = parse_params ps in
      let qargs = parse_id_list ps [] in
      expect ps Qasm_lexer.SEMI;
      stmts := G_apply (name, exprs, qargs) :: !stmts;
      go ()
    | t ->
      perror ps "unexpected '%s' in gate body" (Qasm_lexer.string_of_token t)
  in
  go ();
  List.rev !stmts

let parse_statement ps =
  match tok ps with
  | Qasm_lexer.ID "include" ->
    advance ps;
    (match tok ps with
    | Qasm_lexer.STRING lib ->
      advance ps;
      if
        not
          (String.equal lib "qelib1.inc" || String.equal lib "stdgates.inc")
      then perror ps "cannot resolve include %S (only qelib1.inc is built in)" lib;
      ps.include_seen <- true
    | t -> perror ps "expected string after include, found '%s'" (Qasm_lexer.string_of_token t));
    expect ps Qasm_lexer.SEMI
  | Qasm_lexer.ID "qreg" ->
    advance ps;
    let name = expect_id ps in
    expect ps Qasm_lexer.LBRACKET;
    let size = expect_int ps in
    expect ps Qasm_lexer.RBRACKET;
    expect ps Qasm_lexer.SEMI;
    if find_qreg ps name <> None then perror ps "duplicate qreg %s" name;
    let offset = List.fold_left (fun a (r : Circuit.register) -> a + r.rsize) 0 ps.qregs in
    ps.qregs <- ps.qregs @ [ { Circuit.rname = name; roffset = offset; rsize = size } ];
    (* make sure the builder knows about all declared qubits *)
    if size > 0 then Circuit.Build.touch_qubit ps.build (offset + size - 1)
  | Qasm_lexer.ID "creg" ->
    advance ps;
    let name = expect_id ps in
    expect ps Qasm_lexer.LBRACKET;
    let size = expect_int ps in
    expect ps Qasm_lexer.RBRACKET;
    expect ps Qasm_lexer.SEMI;
    if find_creg ps name <> None then perror ps "duplicate creg %s" name;
    let offset = List.fold_left (fun a (r : Circuit.register) -> a + r.rsize) 0 ps.cregs in
    ps.cregs <- ps.cregs @ [ { Circuit.rname = name; roffset = offset; rsize = size } ];
    if size > 0 then Circuit.Build.touch_clbit ps.build (offset + size - 1)
  | Qasm_lexer.ID "gate" ->
    advance ps;
    let name = expect_id ps in
    let g_params =
      if tok ps = Qasm_lexer.LPAREN then begin
        advance ps;
        if tok ps = Qasm_lexer.RPAREN then begin
          advance ps;
          []
        end
        else begin
          let ids = parse_id_list ps [] in
          expect ps Qasm_lexer.RPAREN;
          ids
        end
      end
      else []
    in
    let g_qubits = parse_id_list ps [] in
    let g_body = parse_gate_body ps in
    Hashtbl.replace ps.gates name { g_params; g_qubits; g_body; g_opaque = false }
  | Qasm_lexer.ID "opaque" ->
    advance ps;
    let name = expect_id ps in
    let g_params =
      if tok ps = Qasm_lexer.LPAREN then begin
        advance ps;
        let ids =
          if tok ps = Qasm_lexer.RPAREN then []
          else parse_id_list ps []
        in
        expect ps Qasm_lexer.RPAREN;
        ids
      end
      else []
    in
    let g_qubits = parse_id_list ps [] in
    expect ps Qasm_lexer.SEMI;
    Hashtbl.replace ps.gates name { g_params; g_qubits; g_body = []; g_opaque = true }
  | Qasm_lexer.ID "barrier" ->
    advance ps;
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
    let qs = List.concat_map (resolve_qarg ps) (args []) in
    Circuit.Build.barrier ps.build qs
  | Qasm_lexer.ID "if" ->
    advance ps;
    expect ps Qasm_lexer.LPAREN;
    let creg = expect_id ps in
    expect ps Qasm_lexer.EQEQ;
    let value = expect_int ps in
    expect ps Qasm_lexer.RPAREN;
    let cbits =
      match find_creg ps creg with
      | Some r -> List.init r.rsize (fun i -> r.roffset + i)
      | None -> perror ps "undeclared classical register %s" creg
    in
    parse_qop ps ~cond:{ Circuit.cbits; value } ()
  | Qasm_lexer.ID _ -> parse_qop ps ()
  | t -> perror ps "unexpected '%s' at top level" (Qasm_lexer.string_of_token t)

let parse src : Circuit.t =
  let lx = Qasm_lexer.create src in
  let tok0 =
    try Qasm_lexer.next lx with Qasm_lexer.Error (l, m) -> error l "%s" m
  in
  let st = { Qasm_expr.P.tok = tok0; lx } in
  let ps =
    {
      st;
      qregs = [];
      cregs = [];
      gates = Hashtbl.create 16;
      build = Circuit.Build.create ();
      include_seen = false;
    }
  in
  (try
     (* header: OPENQASM 2.0; *)
     (match tok ps with
     | Qasm_lexer.ID "OPENQASM" ->
       advance ps;
       (match tok ps with
       | Qasm_lexer.REAL 2.0 -> advance ps
       | Qasm_lexer.INT 2 -> advance ps
       | t ->
         perror ps "unsupported OpenQASM version '%s'"
           (Qasm_lexer.string_of_token t));
       expect ps Qasm_lexer.SEMI
     | _ -> perror ps "missing OPENQASM 2.0 header");
     while tok ps <> Qasm_lexer.EOF do
       parse_statement ps
     done
   with Qasm_lexer.Error (l, m) -> error l "%s" m);
  Circuit.Build.finish ~qregs:ps.qregs ~cregs:ps.cregs ps.build

let parse_result src =
  match parse src with
  | c -> Ok c
  | exception Error (l, m) -> Error (Printf.sprintf "line %d: %s" l m)

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)

(* Gates not in qelib1 need a definition in the prologue. *)
let prologue_defs = function
  | Gate.Sx -> Some "gate sx a { sdg a; h a; sdg a; }"
  | Gate.Sxdg -> Some "gate sxdg a { s a; h a; s a; }"
  | Gate.P _ -> None (* printed as u1 *)
  | Gate.Cp _ -> None (* printed as cu1 *)
  | Gate.Crx _ -> Some "gate crx(t) a, b { u1(pi/2) b; cx a, b; u3(-t/2,0,0) b; cx a, b; u3(t/2,-pi/2,0) b; }"
  | Gate.Cry _ -> Some "gate cry(t) a, b { ry(t/2) b; cx a, b; ry(-t/2) b; cx a, b; }"
  | _ -> None

let qasm_gate_name (g : Gate.t) =
  match g with
  | Gate.P _ -> "u1"
  | Gate.Cp _ -> "cu1"
  | Gate.U _ -> "u3"
  | Gate.Cu _ -> "cu3"
  | g -> Gate.name g

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
    (fun (r : Circuit.register) ->
      List.sort compare cbits = List.init r.rsize (fun i -> r.roffset + i))
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

(* OpenQASM 2 conditions read a whole register. A condition on a run
   of consecutive bits of one register (LSB first) that is not a whole
   register becomes expressible by splitting registers: every register
   is cut where such a run starts and ends, and each piece declared in
   order as a register of its own, named [<register>_<first bit>].
   Pieces declared in order keep every bit's flat index, so a reader
   maps each bit back to the same classical bit. *)
let split_cregs (t : Circuit.t) =
  let cuts = Hashtbl.create 8 in
  let unsupported cbits =
    raise
      (Unsupported
         (Printf.sprintf
            "OpenQASM 2 cannot condition on classical bits [%s]: not a run of one register"
            (String.concat "; " (List.map string_of_int cbits))))
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.cond with
      | Some { cbits = first :: _ as cbits; _ }
        when creg_covering t.cregs cbits = None -> (
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
  (* every condition now reads a whole register, unless two runs
     overlap without coinciding and split each other *)
  List.iter
    (fun (op : Circuit.op) ->
      match op.cond with
      | Some { cbits; _ } when creg_covering cregs cbits = None -> unsupported cbits
      | _ -> ())
    t.ops;
  cregs

let to_string (t : Circuit.t) =
  let cregs = split_cregs t in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
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
  Hashtbl.iter (fun d () -> Format.fprintf ppf "%s@\n" d) defs;
  List.iter
    (fun (r : Circuit.register) ->
      Format.fprintf ppf "qreg %s[%d];@\n" r.rname r.rsize)
    t.qregs;
  List.iter
    (fun (r : Circuit.register) ->
      Format.fprintf ppf "creg %s[%d];@\n" r.rname r.rsize)
    cregs;
  List.iter
    (fun (op : Circuit.op) ->
      (match op.cond with
      | Some { cbits; value } -> (
        match creg_covering cregs cbits with
        | Some r -> Format.fprintf ppf "if (%s == %d) " r.rname value
        | None -> assert false (* split_cregs covers every condition *))
      | None -> ());
      match op.kind with
      | Circuit.Gate (g, qs) ->
        let params = Gate.params g in
        if params = [] then
          Format.fprintf ppf "%s %s;@\n" (qasm_gate_name g)
            (String.concat ", " (List.map (ref_in t.qregs) qs))
        else
          Format.fprintf ppf "%s(%a) %s;@\n" (qasm_gate_name g)
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               pp_angle)
            params
            (String.concat ", " (List.map (ref_in t.qregs) qs))
      | Circuit.Measure (q, c) ->
        Format.fprintf ppf "measure %s -> %s;@\n" (ref_in t.qregs q)
          (ref_in cregs c)
      | Circuit.Reset q -> Format.fprintf ppf "reset %s;@\n" (ref_in t.qregs q)
      | Circuit.Barrier qs ->
        Format.fprintf ppf "barrier %s;@\n"
          (String.concat ", " (List.map (ref_in t.qregs) qs)))
    t.ops;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
