(* Recursive-descent parser for the LLVM assembly subset used by QIR.

   The parser accepts both the modern opaque-pointer syntax (which
   {!Printer} emits) and the legacy typed-pointer spelling used by the
   original QIR specification ([%Qubit*], [%Array*], ...): named types
   resolve through a typedef table and every pointer type collapses to
   [Ty.Ptr]. *)

type t = {
  lx : Lexer.t;
  mutable tok : Lexer.token;
  mutable tok2 : Lexer.token; (* one token of lookahead *)
  type_defs : (string, Ty.t) Hashtbl.t;
  attr_groups : (int, (string * string) list) Hashtbl.t;
  mutable group_refs : (string * int) list; (* function -> attribute group *)
}

let error p fmt =
  Ir_error.parse_error ~line:p.lx.Lexer.line ~col:(Lexer.col p.lx) fmt

let advance p =
  p.tok <- p.tok2;
  p.tok2 <- Lexer.next p.lx

let create src =
  let lx = Lexer.create src in
  let tok = Lexer.next lx in
  let tok2 = Lexer.next lx in
  {
    lx;
    tok;
    tok2;
    type_defs = Hashtbl.create 16;
    attr_groups = Hashtbl.create 8;
    group_refs = [];
  }

(* [is p tok]: the current token is the punctuation token [tok]. Every
   token without a payload is an immediate, so physical equality decides
   it without a polymorphic comparison; [tok] must be one of those. *)
let[@inline] is p (tok : Lexer.token) = p.tok == tok

let expect p tok =
  if is p tok then advance p
  else
    error p "expected '%s', found '%s'" (Lexer.string_of_token tok)
      (Lexer.string_of_token p.tok)

let expect_word p w =
  match p.tok with
  | Lexer.WORD s when String.equal s w -> advance p
  | _ ->
    error p "expected '%s', found '%s'" w (Lexer.string_of_token p.tok)

let eat_word p w =
  match p.tok with
  | Lexer.WORD s when String.equal s w ->
    advance p;
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Attribute-like noise words that may be skipped wherever they occur.  *)

let linkage_word = function
  | "private" | "internal" | "external" | "linkonce" | "weak" | "common"
  | "appending" | "extern_weak" | "linkonce_odr" | "weak_odr" | "dso_local"
  | "dso_preemptable" | "hidden" | "protected" | "default" | "local_unnamed_addr"
  | "unnamed_addr" ->
    true
  | _ -> false

let param_attr_word = function
  | "writeonly" | "readonly" | "readnone" | "nocapture" | "noundef" | "immarg"
  | "nonnull" | "noalias" | "signext" | "zeroext" | "inreg" | "returned"
  | "dereferenceable" | "align" | "captures" ->
    true
  | _ -> false

let fn_attr_word = function
  | "nounwind" | "willreturn" | "norecurse" | "nosync" | "nofree" | "mustprogress"
  | "alwaysinline" | "noinline" | "optnone" | "memory" | "speculatable" | "cold"
  | "hot" | "uwtable" ->
    true
  | _ -> false

let flag_word = function
  | "nuw" | "nsw" | "exact" | "inbounds" | "disjoint" | "volatile" | "fast" | "nnan"
  | "ninf" | "nsz" | "arcp" | "contract" | "afn" | "reassoc" | "nneg" | "samesign" ->
    true
  | _ -> false

let rec skip_balanced_parens p =
  match p.tok with
  | Lexer.LPAREN ->
    advance p;
    let rec go depth =
      match p.tok with
      | Lexer.LPAREN ->
        advance p;
        go (depth + 1)
      | Lexer.RPAREN ->
        advance p;
        if depth > 0 then go (depth - 1)
      | Lexer.EOF -> error p "unbalanced parentheses"
      | _ ->
        advance p;
        go depth
    in
    go 0;
    skip_balanced_parens p
  | _ -> ()

let rec skip_words p is_word =
  match p.tok with
  | Lexer.WORD w when is_word w ->
    advance p;
    (* [align 8], [dereferenceable(16)], [memory(none)] carry an argument *)
    (match p.tok with
    | Lexer.INT _ when String.equal w "align" -> advance p
    | Lexer.LPAREN -> skip_balanced_parens p
    | _ -> ());
    skip_words p is_word
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Types                                                                *)

let resolve_named_type p name =
  match Hashtbl.find_opt p.type_defs name with
  | Some ty -> ty
  | None -> Ty.Struct [] (* forward reference to an opaque named type *)

let rec parse_ty p =
  let base =
    match p.tok with
    | Lexer.WORD "void" ->
      advance p;
      Ty.Void
    | Lexer.WORD "i1" ->
      advance p;
      Ty.I1
    | Lexer.WORD "i8" ->
      advance p;
      Ty.I8
    | Lexer.WORD "i16" ->
      advance p;
      Ty.I16
    | Lexer.WORD "i32" ->
      advance p;
      Ty.I32
    | Lexer.WORD "i64" ->
      advance p;
      Ty.I64
    | Lexer.WORD ("double" | "float") ->
      advance p;
      Ty.Double
    | Lexer.WORD "ptr" ->
      advance p;
      Ty.Ptr
    | Lexer.WORD "label" ->
      advance p;
      Ty.Label
    | Lexer.LOCAL name ->
      advance p;
      resolve_named_type p name
    | Lexer.LBRACKET ->
      advance p;
      let n =
        match p.tok with
        | Lexer.INT n ->
          advance p;
          Int64.to_int n
        | _ -> error p "expected array length"
      in
      expect_word p "x";
      let elt = parse_ty p in
      expect p Lexer.RBRACKET;
      Ty.Array (n, elt)
    | Lexer.LBRACE ->
      advance p;
      let rec fields acc =
        if is p Lexer.RBRACE then begin
          advance p;
          List.rev acc
        end
        else begin
          let f = parse_ty p in
          if is p Lexer.COMMA then advance p;
          fields (f :: acc)
        end
      in
      Ty.Struct (fields [])
    | _ -> error p "expected type, found '%s'" (Lexer.string_of_token p.tok)
  in
  parse_ty_suffix p base

and parse_ty_suffix p base =
  match p.tok with
  | Lexer.STAR ->
    advance p;
    parse_ty_suffix p Ty.Ptr (* every pointer collapses to opaque ptr *)
  | Lexer.LPAREN ->
    (* function type: ret (args) — only in declarations of fn pointers *)
    advance p;
    let rec args acc vararg =
      match p.tok with
      | Lexer.RPAREN ->
        advance p;
        (List.rev acc, vararg)
      | Lexer.ELLIPSIS ->
        advance p;
        args acc true
      | _ ->
        let a = parse_ty p in
        if is p Lexer.COMMA then advance p;
        args (a :: acc) vararg
    in
    let params, vararg = args [] false in
    parse_ty_suffix p (Ty.Func (base, params, vararg))
  | _ -> base

(* ------------------------------------------------------------------ *)
(* Constants and operands                                               *)

let rec parse_const p ty =
  match p.tok with
  | Lexer.INT n ->
    advance p;
    if Ty.equal ty Ty.I1 then Constant.Bool (not (Int64.equal n 0L))
    else if Ty.equal ty Ty.Double then Constant.Float (Int64.to_float n)
    else Constant.Int n
  | Lexer.FLOAT f ->
    advance p;
    Constant.Float f
  | Lexer.WORD "true" ->
    advance p;
    Constant.Bool true
  | Lexer.WORD "false" ->
    advance p;
    Constant.Bool false
  | Lexer.WORD "null" ->
    advance p;
    Constant.Null
  | Lexer.WORD ("undef" | "poison") ->
    advance p;
    Constant.Undef
  | Lexer.WORD "zeroinitializer" ->
    advance p;
    Constant.Zeroinit
  | Lexer.GLOBAL g ->
    advance p;
    Constant.Global g
  | Lexer.CSTRING s ->
    advance p;
    Constant.Str s
  | Lexer.WORD "inttoptr" ->
    advance p;
    expect p Lexer.LPAREN;
    let _ = parse_ty p in
    let n =
      match p.tok with
      | Lexer.INT n ->
        advance p;
        n
      | _ -> error p "expected integer in inttoptr constant"
    in
    expect_word p "to";
    let _ = parse_ty p in
    expect p Lexer.RPAREN;
    Constant.Inttoptr n
  | Lexer.WORD "getelementptr" ->
    (* constant GEP, e.g. string addressing: reduce to its base global *)
    advance p;
    let _ = eat_word p "inbounds" in
    expect p Lexer.LPAREN;
    let _ = parse_ty p in
    expect p Lexer.COMMA;
    let base_ty = parse_ty p in
    let base = parse_const p base_ty in
    let rec rest () =
      if is p Lexer.COMMA then begin
        advance p;
        let ity = parse_ty p in
        let _ = parse_const p ity in
        rest ()
      end
    in
    rest ();
    expect p Lexer.RPAREN;
    base
  | Lexer.LBRACKET ->
    advance p;
    let rec elems acc elt_ty =
      if is p Lexer.RBRACKET then begin
        advance p;
        (List.rev acc, elt_ty)
      end
      else begin
        let ety = parse_ty p in
        let c = parse_const p ety in
        if is p Lexer.COMMA then advance p;
        elems (c :: acc) ety
      end
    in
    let elems, elt_ty = elems [] Ty.I8 in
    Constant.Arr (elt_ty, elems)
  | _ ->
    error p "expected constant of type %s, found '%s'" (Ty.to_string ty)
      (Lexer.string_of_token p.tok)

let parse_operand p ty =
  match p.tok with
  | Lexer.LOCAL name ->
    advance p;
    Operand.Local name
  | _ -> Operand.Const (parse_const p ty)

let parse_typed_operand p =
  let ty = parse_ty p in
  skip_words p param_attr_word;
  let v = parse_operand p ty in
  Operand.typed ty v

(* ------------------------------------------------------------------ *)
(* Metadata                                                             *)

(* [, !dbg !7] attachments after an instruction. *)
let rec skip_metadata_attachments p =
  match p.tok, p.tok2 with
  | Lexer.COMMA, Lexer.META _ ->
    advance p;
    advance p;
    (match p.tok with
    | Lexer.META _ -> advance p
    | _ -> ());
    skip_metadata_attachments p
  | _ -> ()

let rec skip_alignment p =
  match p.tok, p.tok2 with
  | Lexer.COMMA, Lexer.WORD "align" ->
    advance p;
    advance p;
    (match p.tok with
    | Lexer.INT _ -> advance p
    | _ -> error p "expected alignment value");
    skip_alignment p
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Instructions                                                         *)

let binop_of_word = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "sdiv" -> Some Instr.Sdiv
  | "udiv" -> Some Instr.Udiv
  | "srem" -> Some Instr.Srem
  | "urem" -> Some Instr.Urem
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl
  | "lshr" -> Some Instr.Lshr
  | "ashr" -> Some Instr.Ashr
  | _ -> None

let fbinop_of_word = function
  | "fadd" -> Some Instr.Fadd
  | "fsub" -> Some Instr.Fsub
  | "fmul" -> Some Instr.Fmul
  | "fdiv" -> Some Instr.Fdiv
  | "frem" -> Some Instr.Frem
  | _ -> None

let icmp_of_word p = function
  | "eq" -> Instr.Ieq
  | "ne" -> Instr.Ine
  | "slt" -> Instr.Islt
  | "sle" -> Instr.Isle
  | "sgt" -> Instr.Isgt
  | "sge" -> Instr.Isge
  | "ult" -> Instr.Iult
  | "ule" -> Instr.Iule
  | "ugt" -> Instr.Iugt
  | "uge" -> Instr.Iuge
  | w -> error p "unknown icmp predicate '%s'" w

let fcmp_of_word p = function
  | "oeq" -> Instr.Foeq
  | "one" -> Instr.Fone
  | "olt" -> Instr.Folt
  | "ole" -> Instr.Fole
  | "ogt" -> Instr.Fogt
  | "oge" -> Instr.Foge
  | "ord" -> Instr.Ford
  | "uno" -> Instr.Funo
  | w -> error p "unknown fcmp predicate '%s'" w

let cast_of_word = function
  | "zext" -> Some Instr.Zext
  | "sext" -> Some Instr.Sext
  | "trunc" -> Some Instr.Trunc
  | "bitcast" -> Some Instr.Bitcast
  | "inttoptr" -> Some Instr.Inttoptr
  | "ptrtoint" -> Some Instr.Ptrtoint
  | "sitofp" -> Some Instr.Sitofp
  | "fptosi" -> Some Instr.Fptosi
  | _ -> None

let parse_call_args p =
  expect p Lexer.LPAREN;
  let rec args acc =
    if is p Lexer.RPAREN then begin
      advance p;
      List.rev acc
    end
    else begin
      let a = parse_typed_operand p in
      if is p Lexer.COMMA then advance p;
      args (a :: acc)
    end
  in
  args []

(* Parses the opcode and operands of one non-terminator instruction. *)
let parse_op p word =
  match binop_of_word word with
  | Some b ->
    skip_words p flag_word;
    let ty = parse_ty p in
    let x = parse_operand p ty in
    expect p Lexer.COMMA;
    let y = parse_operand p ty in
    Instr.Binop (b, ty, x, y)
  | None ->
  match fbinop_of_word word with
  | Some b ->
    skip_words p flag_word;
    let ty = parse_ty p in
    let x = parse_operand p ty in
    expect p Lexer.COMMA;
    let y = parse_operand p ty in
    Instr.Fbinop (b, ty, x, y)
  | None ->
  match cast_of_word word with
  | Some c ->
    skip_words p flag_word;
    let src = parse_typed_operand p in
    expect_word p "to";
    let ty = parse_ty p in
    Instr.Cast (c, src, ty)
  | None ->
  match word with
  | "icmp" ->
    skip_words p flag_word;
    let pred =
      match p.tok with
      | Lexer.WORD w ->
        advance p;
        icmp_of_word p w
      | _ -> error p "expected icmp predicate"
    in
    let ty = parse_ty p in
    let x = parse_operand p ty in
    expect p Lexer.COMMA;
    let y = parse_operand p ty in
    Instr.Icmp (pred, ty, x, y)
  | "fcmp" ->
    skip_words p flag_word;
    let pred =
      match p.tok with
      | Lexer.WORD w ->
        advance p;
        fcmp_of_word p w
      | _ -> error p "expected fcmp predicate"
    in
    let ty = parse_ty p in
    let x = parse_operand p ty in
    expect p Lexer.COMMA;
    let y = parse_operand p ty in
    Instr.Fcmp (pred, ty, x, y)
  | "alloca" ->
    let ty = parse_ty p in
    let ty = ref ty in
    let rec suffix () =
      match p.tok, p.tok2 with
      | Lexer.COMMA, Lexer.WORD "align" ->
        advance p;
        advance p;
        (match p.tok with
        | Lexer.INT _ -> advance p
        | _ -> error p "expected alignment");
        suffix ()
      | Lexer.COMMA, _ ->
        advance p;
        let cty = parse_ty p in
        (match parse_operand p cty with
        | Operand.Const (Constant.Int n) -> ty := Ty.Array (Int64.to_int n, !ty)
        | _ -> error p "alloca with a non-constant element count");
        suffix ()
      | _ -> ()
    in
    suffix ();
    Instr.Alloca !ty
  | "load" ->
    skip_words p flag_word;
    let ty = parse_ty p in
    expect p Lexer.COMMA;
    let pty = parse_ty p in
    if not (Ty.equal pty Ty.Ptr) then error p "load expects a pointer operand";
    let ptr = parse_operand p Ty.Ptr in
    skip_alignment p;
    Instr.Load (ty, ptr)
  | "store" ->
    skip_words p flag_word;
    let v = parse_typed_operand p in
    expect p Lexer.COMMA;
    let pty = parse_ty p in
    if not (Ty.equal pty Ty.Ptr) then error p "store expects a pointer operand";
    skip_words p param_attr_word;
    let ptr = parse_operand p Ty.Ptr in
    skip_alignment p;
    Instr.Store (v, ptr)
  | "getelementptr" ->
    skip_words p flag_word;
    let ty = parse_ty p in
    expect p Lexer.COMMA;
    let pty = parse_ty p in
    if not (Ty.equal pty Ty.Ptr) then
      error p "getelementptr expects a pointer operand";
    let base = parse_operand p Ty.Ptr in
    let rec idxs acc =
      if is p Lexer.COMMA then begin
        advance p;
        let i = parse_typed_operand p in
        idxs (i :: acc)
      end
      else List.rev acc
    in
    Instr.Gep (ty, base, idxs [])
  | "call" ->
    skip_words p flag_word;
    let ret_ty = parse_ty p in
    (* A function-typed callee spelling like [void (ptr)* @f] collapses to
       ptr; the return type we keep is the one parsed first. *)
    let ret_ty =
      match ret_ty with
      | Ty.Func (r, _, _) -> r
      | t -> t
    in
    (match p.tok with
    | Lexer.GLOBAL callee ->
      advance p;
      let args = parse_call_args p in
      skip_words p fn_attr_word;
      (match p.tok with
      | Lexer.ATTR_REF _ -> advance p
      | _ -> ());
      Instr.Call (ret_ty, callee, args)
    | _ -> error p "indirect calls are not supported")
  | "select" ->
    let cty = parse_ty p in
    if not (Ty.equal cty Ty.I1) then error p "select expects an i1 condition";
    let c = parse_operand p Ty.I1 in
    expect p Lexer.COMMA;
    let a = parse_typed_operand p in
    expect p Lexer.COMMA;
    let b = parse_typed_operand p in
    Instr.Select (c, a, b)
  | "phi" ->
    skip_words p flag_word;
    let ty = parse_ty p in
    let rec incoming acc =
      expect p Lexer.LBRACKET;
      let v = parse_operand p ty in
      expect p Lexer.COMMA;
      let l =
        match p.tok with
        | Lexer.LOCAL l ->
          advance p;
          l
        | _ -> error p "expected predecessor label in phi"
      in
      expect p Lexer.RBRACKET;
      let acc = (v, l) :: acc in
      if is p Lexer.COMMA && p.tok2 == Lexer.LBRACKET then begin
        advance p;
        incoming acc
      end
      else List.rev acc
    in
    Instr.Phi (ty, incoming [])
  | "freeze" -> Instr.Freeze (parse_typed_operand p)
  | w -> error p "unknown instruction '%s'" w

let parse_label_operand p =
  expect_word p "label";
  match p.tok with
  | Lexer.LOCAL l ->
    advance p;
    l
  | _ -> error p "expected label"

let parse_term p word =
  match word with
  | "ret" ->
    if eat_word p "void" then Instr.Ret None
    else begin
      let v = parse_typed_operand p in
      Instr.Ret (Some v)
    end
  | "br" -> (
    match p.tok with
    | Lexer.WORD "label" -> Instr.Br (parse_label_operand p)
    | _ ->
      let cty = parse_ty p in
      if not (Ty.equal cty Ty.I1) then error p "br expects an i1 condition";
      let c = parse_operand p Ty.I1 in
      expect p Lexer.COMMA;
      let t = parse_label_operand p in
      expect p Lexer.COMMA;
      let e = parse_label_operand p in
      Instr.Cond_br (c, t, e))
  | "switch" ->
    let v = parse_typed_operand p in
    expect p Lexer.COMMA;
    let d = parse_label_operand p in
    expect p Lexer.LBRACKET;
    let rec cases acc =
      if is p Lexer.RBRACKET then begin
        advance p;
        List.rev acc
      end
      else begin
        let cty = parse_ty p in
        let c = parse_const p cty in
        expect p Lexer.COMMA;
        let l = parse_label_operand p in
        cases ((c, l) :: acc)
      end
    in
    Instr.Switch (v, d, cases [])
  | "unreachable" -> Instr.Unreachable
  | _ -> error p "expected terminator, found '%s'" word

let is_terminator_word = function
  | "ret" | "br" | "switch" | "unreachable" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Function bodies                                                      *)

type partial_block = {
  mutable plabel : string;
  mutable pinstrs : Instr.t list; (* reversed *)
}

let parse_body p =
  let blocks = ref [] in
  let current = ref None in
  let block_counter = ref 0 in
  let start_block label =
    current := Some { plabel = label; pinstrs = [] }
  in
  let ensure_block () =
    match !current with
    | Some b -> b
    | None ->
      let label =
        if !block_counter = 0 && !blocks = [] then "entry"
        else Printf.sprintf "anon.%d" !block_counter
      in
      incr block_counter;
      start_block label;
      Option.get !current
  in
  let finish_block term =
    let b = ensure_block () in
    blocks := Block.mk b.plabel (List.rev b.pinstrs) term :: !blocks;
    current := None
  in
  let rec go () =
    match p.tok, p.tok2 with
    | Lexer.RBRACE, _ ->
      advance p;
      (match !current with
      | Some b ->
        error p "block %%%s has no terminator" b.plabel
      | None -> ());
      List.rev !blocks
    | Lexer.WORD w, Lexer.COLON ->
      (* label definition *)
      if Option.is_some !current then
        error p "label '%s' begins before previous block is terminated" w;
      advance p;
      advance p;
      start_block w;
      go ()
    | Lexer.INT n, Lexer.COLON ->
      if Option.is_some !current then
        error p "label '%Ld' begins before previous block is terminated" n;
      advance p;
      advance p;
      start_block (Int64.to_string n);
      go ()
    | Lexer.LOCAL id, Lexer.EQUALS ->
      advance p;
      advance p;
      let word =
        match p.tok with
        | Lexer.WORD w ->
          advance p;
          w
        | _ -> error p "expected instruction opcode"
      in
      let op = parse_op p word in
      skip_metadata_attachments p;
      let b = ensure_block () in
      b.pinstrs <- Instr.mk ~id op :: b.pinstrs;
      go ()
    | Lexer.WORD w, _ when is_terminator_word w ->
      advance p;
      let term = parse_term p w in
      skip_metadata_attachments p;
      finish_block term;
      go ()
    | Lexer.WORD ("tail" | "musttail" | "notail"), _ ->
      advance p;
      go ()
    | Lexer.WORD w, _ ->
      advance p;
      let op = parse_op p w in
      skip_metadata_attachments p;
      let b = ensure_block () in
      b.pinstrs <- Instr.mk op :: b.pinstrs;
      go ()
    | tok, _ ->
      error p "unexpected token '%s' in function body"
        (Lexer.string_of_token tok)
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Top level                                                            *)

let parse_fn_attrs p =
  (* inline quoted attributes and trailing attribute-group references on a
     declare/define line; returns (attrs, group refs) *)
  let attrs = ref [] in
  let refs = ref [] in
  let rec go () =
    match p.tok with
    | Lexer.ATTR_REF n ->
      advance p;
      refs := n :: !refs;
      go ()
    | Lexer.STRING k ->
      advance p;
      if is p Lexer.EQUALS then begin
        advance p;
        match p.tok with
        | Lexer.STRING v ->
          advance p;
          attrs := (k, v) :: !attrs;
          go ()
        | _ -> error p "expected attribute value"
      end
      else begin
        attrs := (k, "") :: !attrs;
        go ()
      end
    | Lexer.WORD w when fn_attr_word w ->
      advance p;
      (match p.tok with
      | Lexer.LPAREN -> skip_balanced_parens p
      | _ -> ());
      go ()
    | _ -> ()
  in
  go ();
  (List.rev !attrs, List.rev !refs)

let parse_params p ~with_names =
  expect p Lexer.LPAREN;
  let counter = ref 0 in
  let rec go acc =
    match p.tok with
    | Lexer.RPAREN ->
      advance p;
      List.rev acc
    | Lexer.ELLIPSIS ->
      advance p;
      expect p Lexer.RPAREN;
      List.rev acc
    | _ ->
      let pty = parse_ty p in
      skip_words p param_attr_word;
      let pname =
        match p.tok with
        | Lexer.LOCAL name ->
          advance p;
          name
        | _ ->
          if with_names then error p "expected parameter name"
          else begin
            incr counter;
            Printf.sprintf "arg%d" (!counter - 1)
          end
      in
      if is p Lexer.COMMA then advance p;
      go ({ Func.pty; pname } :: acc)
  in
  go []

let parse_function p ~is_define =
  skip_words p linkage_word;
  let ret_ty = parse_ty p in
  let name =
    match p.tok with
    | Lexer.GLOBAL g ->
      advance p;
      g
    | _ -> error p "expected function name"
  in
  let params = parse_params p ~with_names:false in
  let attrs, refs = parse_fn_attrs p in
  List.iter (fun n -> p.group_refs <- (name, n) :: p.group_refs) refs;
  if is_define then begin
    expect p Lexer.LBRACE;
    let blocks = parse_body p in
    Func.mk ~attrs name ret_ty params blocks
  end
  else Func.mk ~attrs name ret_ty params []

let parse_attr_group p =
  let n =
    match p.tok with
    | Lexer.ATTR_REF n ->
      advance p;
      n
    | _ -> error p "expected attribute group reference"
  in
  expect p Lexer.EQUALS;
  expect p Lexer.LBRACE;
  let attrs = ref [] in
  let rec go () =
    match p.tok with
    | Lexer.RBRACE -> advance p
    | Lexer.STRING k ->
      advance p;
      if is p Lexer.EQUALS then begin
        advance p;
        match p.tok with
        | Lexer.STRING v ->
          advance p;
          attrs := (k, v) :: !attrs;
          go ()
        | Lexer.INT v ->
          advance p;
          attrs := (k, Int64.to_string v) :: !attrs;
          go ()
        | _ -> error p "expected attribute value"
      end
      else begin
        attrs := (k, "") :: !attrs;
        go ()
      end
    | Lexer.WORD w ->
      advance p;
      (match p.tok with
      | Lexer.LPAREN -> skip_balanced_parens p
      | Lexer.EQUALS ->
        advance p;
        advance p
      | _ -> ());
      attrs := (w, "") :: !attrs;
      go ()
    | _ -> error p "unexpected token in attribute group"
  in
  go ();
  Hashtbl.replace p.attr_groups n (List.rev !attrs)

let skip_metadata_def p =
  (* !name = [distinct] !{ ... } or !name = !"..." *)
  expect p Lexer.EQUALS;
  let _ = eat_word p "distinct" in
  match p.tok with
  | Lexer.META _ -> (
    advance p;
    match p.tok with
    | Lexer.LBRACE ->
      advance p;
      let rec go depth =
        match p.tok with
        | Lexer.LBRACE ->
          advance p;
          go (depth + 1)
        | Lexer.RBRACE ->
          advance p;
          if depth > 0 then go (depth - 1)
        | Lexer.EOF -> error p "unterminated metadata definition"
        | _ ->
          advance p;
          go depth
      in
      go 0
    | Lexer.STRING _ -> advance p
    | _ -> ())
  | Lexer.STRING _ -> advance p
  | Lexer.INT _ -> advance p
  | _ -> error p "unexpected metadata definition"

let parse_global_def p name =
  expect p Lexer.EQUALS;
  skip_words p linkage_word;
  if eat_word p "external" then begin
    let _ = eat_word p "global" || eat_word p "constant" in
    let gty = parse_ty p in
    skip_alignment p;
    { Ir_module.gname = name; gty; ginit = None; gconst = false }
  end
  else begin
    let gconst =
      if eat_word p "constant" then true
      else begin
        expect_word p "global";
        false
      end
    in
    let gty = parse_ty p in
    let init = parse_const p gty in
    skip_alignment p;
    { Ir_module.gname = name; gty; ginit = Some init; gconst }
  end

let parse_module ?(source_name = "parsed") src =
  let p = create src in
  let funcs = ref [] in
  let globals = ref [] in
  let rec go () =
    match p.tok with
    | Lexer.EOF -> ()
    | Lexer.WORD "source_filename" ->
      advance p;
      expect p Lexer.EQUALS;
      (match p.tok with
      | Lexer.STRING _ -> advance p
      | _ -> error p "expected string after source_filename");
      go ()
    | Lexer.WORD "target" ->
      advance p;
      (match p.tok with
      | Lexer.WORD ("datalayout" | "triple") -> advance p
      | _ -> error p "expected datalayout or triple");
      expect p Lexer.EQUALS;
      (match p.tok with
      | Lexer.STRING _ -> advance p
      | _ -> error p "expected string after target directive");
      go ()
    | Lexer.WORD "declare" ->
      advance p;
      funcs := parse_function p ~is_define:false :: !funcs;
      go ()
    | Lexer.WORD "define" ->
      advance p;
      funcs := parse_function p ~is_define:true :: !funcs;
      go ()
    | Lexer.WORD "attributes" ->
      advance p;
      parse_attr_group p;
      go ()
    | Lexer.LOCAL name ->
      advance p;
      expect p Lexer.EQUALS;
      expect_word p "type";
      let ty = if eat_word p "opaque" then Ty.Struct [] else parse_ty p in
      Hashtbl.replace p.type_defs name ty;
      go ()
    | Lexer.GLOBAL name ->
      advance p;
      globals := parse_global_def p name :: !globals;
      go ()
    | Lexer.META _ ->
      advance p;
      skip_metadata_def p;
      go ()
    | tok ->
      error p "unexpected token '%s' at top level" (Lexer.string_of_token tok)
  in
  go ();
  (* Resolve attribute-group references into per-function attributes. *)
  let funcs =
    List.rev_map
      (fun (f : Func.t) ->
        let extra =
          List.concat_map
            (fun (fname, n) ->
              if String.equal fname f.Func.name then
                Option.value ~default:[] (Hashtbl.find_opt p.attr_groups n)
              else [])
            p.group_refs
        in
        { f with Func.attrs = f.Func.attrs @ extra })
      !funcs
  in
  Ir_module.mk ~source_name ~globals:(List.rev !globals) funcs

let parse_module_exn = parse_module

let parse_module_result ?source_name src =
  match parse_module ?source_name src with
  | m -> Ok m
  | exception Ir_error.Parse_error (loc, msg) ->
    Error (Format.asprintf "%a: %s" Ir_error.pp_location loc msg)
