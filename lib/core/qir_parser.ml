(* QIR -> circuit parsing by abstract interpretation of the entry
   function — exactly the algorithm the paper sketches in Ex. 3: "track
   the assignment of variables to their values to infer the respective
   qubit that is passed to a quantum instruction", with instructions
   matched by pattern.

   Supported input shapes:
   - base profile, static addressing (Ex. 6): qubit/result operands are
     [inttoptr] constants;
   - base profile, dynamic addressing (Fig. 1): runtime arrays in stack
     slots, accessed via load / get_element_ptr;
   - the adaptive pattern emitted by {!Qir_builder}: measurements read
     back with [read_result], combined into an integer, compared and
     branched on (forward branches only).

   Anything else — loops, unknown calls, classical memory traffic beyond
   pointer slots — is rejected with a diagnostic telling the user to
   lower the program first (Sec. III-B): run {!Lowering.lower} and retry.

   Clbit convention: the parsed circuit has one classical bit per QIR
   result id, in allocation order. *)

open Llvm_ir
open Qcircuit

exception Unsupported of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type avalue =
  | AQubit of int
  | AResult of int
  | AQubitArray of { base : int; size : int }
  | AResultArray of { base : int; size : int }
  | ASlot of int
  | AScalar of Interp.value (* a constant scalar, as the engines hold it *)
  | AOne (* the canonical one Result *)
  | AZero
  | ABit of int * bool (* result id, negated? *)
  | ALin of (int * int) list * int64
      (* sum of result-bits * weight + const, modulo the width *)
  | ACmp of (int * int) list * int64 (* linear combo == value *)

(* SSA names that are plain numbers below 4096 ([%0], [%17]: LLVM
   numbers every unnamed temporary) index [nums] directly, which grows
   to at most 4096 slots; any other name goes through [named]. *)
module Names_tbl = Hashtbl.Make (String)

type t = {
  m : Ir_module.t;
  mutable nums : avalue option array;
  named : avalue Names_tbl.t;
  mem : (int, avalue) Hashtbl.t;
  build : Circuit.Build.t;
  mutable next_qubit : int;
  mutable next_result : int;
  mutable next_slot : int;
  mutable max_qubit : int; (* highest qubit index seen (static or dynamic) *)
  visited : bool array; (* by the entry's {!Cfg} index *)
  mutable recorded : int list; (* result ids record_output'd, reversed *)
  args : avalue array; (* the current call's operand values *)
}

(* The most operands any known call takes. *)
let max_arity =
  List.fold_left (fun n (_, call) -> max n (Signatures.arity call)) 0 Names.symbols

(* The number below 4096 a name spells in decimal without leading
   zeros, or -1. *)
let number name =
  let len = String.length name in
  if len = 0 || len > 4 || (len > 1 && name.[0] = '0') then -1
  else begin
    let n = ref 0 and i = ref 0 in
    while !i < len && name.[!i] >= '0' && name.[!i] <= '9' do
      n := (!n * 10) + Char.code name.[!i] - 48;
      incr i
    done;
    if !i = len && !n < 4096 then !n else -1
  end

let define st id v =
  match id with
  | Some id ->
    let n = number id in
    if n < 0 then Names_tbl.replace st.named id v
    else begin
      if n >= Array.length st.nums then begin
        let grown = Array.make (min 4096 (max (n + 1) (2 * Array.length st.nums))) None in
        Array.blit st.nums 0 grown 0 (Array.length st.nums);
        st.nums <- grown
      end;
      st.nums.(n) <- Some v
    end
  | None -> ()

let lookup st name =
  let n = number name in
  let v =
    if n < 0 then Names_tbl.find_opt st.named name
    else if n < Array.length st.nums then st.nums.(n)
    else None
  in
  match v with Some v -> v | None -> fail "use of untracked value %%%s" name

(* Scalars are the engines' values: a constant is read, and an
   instruction on constants runs, by {!Interp}'s evaluator at the
   operand's type, so [add i8 255, 2] is 1 here as it is when executed. *)
let scalar f =
  match f () with
  | v -> AScalar v
  | exception Ir_error.Exec_error msg -> fail "%s" msg

let avalue_of_operand st ty (o : Operand.t) =
  match o with
  | Operand.Local name -> lookup st name
  | Operand.Const c -> (
    match c with
    | Constant.Undef -> fail "undef operand"
    | Constant.Global g -> fail "global @%s used as an operand" g
    | Constant.Str _ | Constant.Arr _ | Constant.Zeroinit ->
      fail "aggregate constant operand"
    | _ -> scalar (fun () -> Interp.eval_const Interp.no_globals ty c))

let as_int (v : avalue) =
  match v with
  | AScalar (Interp.VInt (_, n) | Interp.VPtr n) -> n
  | _ -> fail "operand is not a constant integer"

let as_address what (v : avalue) =
  let n = as_int v in
  if n < 0L then fail "negative %s address %Ld" what n;
  Int64.to_int n

let as_qubit (v : avalue) =
  match v with
  | AQubit q -> q
  | AScalar _ -> as_address "qubit" v
  | _ -> fail "operand is not a qubit"

let as_result (v : avalue) =
  match v with
  | AResult r -> r
  | AScalar _ -> as_address "result" v
  | _ -> fail "operand is not a result"

let as_float (v : avalue) =
  match v with
  | AScalar (Interp.VFloat f) -> f
  | AScalar _ -> Int64.to_float (as_int v)
  | _ -> fail "operand is not a rotation angle"

let note_qubit st q = if q > st.max_qubit then st.max_qubit <- q

(* A value derived from results as [sum of bit * weight + const]: its
   terms and constant (normalized to the value's width). *)
let lin_of v =
  match v with
  | ABit (r, false) -> ([ (r, 1) ], 0L)
  | ABit (_, true) -> fail "negated result bit in arithmetic"
  | ALin (terms, c) -> (terms, c)
  | AScalar _ -> ([], as_int v)
  | _ -> fail "operand is not a classical value derived from results"

(* Whether every weight is positive and their sum stays below [2^bits]
   (as far as an [int] reaches): the sum of result bits never wraps. *)
let sum_fits bits terms =
  let top = if bits >= 62 then max_int else (1 lsl bits) - 1 in
  List.fold_left
    (fun room (_, w) -> if w > 0 && w <= room then room - w else -1)
    top terms
  >= 0

(* ------------------------------------------------------------------ *)
(* Calls                                                                *)

(* Evaluates a call's operands in order into [st.args]. *)
let rec eval_args st i = function
  | [] -> ()
  | (a : Operand.typed) :: rest ->
    st.args.(i) <- avalue_of_operand st a.Operand.ty a.Operand.v;
    eval_args st (i + 1) rest

let exec_call st ~cond id callee call (args : Operand.typed list) =
  if List.compare_length_with args (Signatures.arity call) <> 0 then
    fail "@%s called with %d arguments" callee (List.length args);
  (* every operand is evaluated before the call's own checks *)
  eval_args st 0 args;
  let v = st.args in
  let size v what =
    let n = Int64.to_int (as_int v) in
    if n < 0 then fail "%s: negative size %d" what n;
    n
  in
  match call with
  | Names.Qubit_allocate_array ->
    let n = size v.(0) "qubit_allocate_array" in
    let base = st.next_qubit in
    st.next_qubit <- base + n;
    note_qubit st (base + n - 1);
    define st id (AQubitArray { base; size = n })
  | Names.Qubit_allocate ->
    let q = st.next_qubit in
    st.next_qubit <- q + 1;
    note_qubit st q;
    define st id (AQubit q)
  | Names.Array_create_1d ->
    let n = size v.(1) "array_create_1d" in
    let base = st.next_result in
    st.next_result <- base + n;
    define st id (AResultArray { base; size = n })
  | Names.Array_get_element_ptr_1d -> (
    let i = Int64.to_int (as_int v.(1)) in
    match v.(0) with
    | AQubitArray { base; size } ->
      if i < 0 || i >= size then fail "qubit array index %d out of range" i;
      define st id (AQubit (base + i))
    | AResultArray { base; size } ->
      if i < 0 || i >= size then fail "result array index %d out of range" i;
      define st id (AResult (base + i))
    | _ -> fail "array_get_element_ptr_1d on a non-array value")
  | Names.Result_get_one -> define st id AOne
  | Names.Result_get_zero -> define st id AZero
  | Names.Result_equal -> (
    match v.(0), v.(1) with
    | AResult r, AOne | AOne, AResult r -> define st id (ABit (r, false))
    | AResult r, AZero | AZero, AResult r -> define st id (ABit (r, true))
    | _ -> fail "result_equal: unsupported operand shape")
  | Names.Read_result -> define st id (ABit (as_result v.(0), false))
  | Names.Mz ->
    let q = as_qubit v.(0) and r = as_result v.(1) in
    note_qubit st q;
    if r >= st.next_result then st.next_result <- r + 1;
    Circuit.Build.measure ?cond st.build q r
  | Names.M ->
    let q = as_qubit v.(0) in
    note_qubit st q;
    let r = st.next_result in
    st.next_result <- r + 1;
    Circuit.Build.measure ?cond st.build q r;
    define st id (AResult r)
  | Names.Reset ->
    let q = as_qubit v.(0) in
    note_qubit st q;
    Circuit.Build.reset ?cond st.build q
  | Names.Result_record_output ->
    (* no circuit semantics, but the call order defines the program's
       output bit order — keep it for consumers that need output-
       compatible sampling (the executor's batched fast path) *)
    st.recorded <- as_result v.(0) :: st.recorded
  | Names.Array_update_reference_count | Names.Result_update_reference_count
  | Names.Qubit_release | Names.Qubit_release_array | Names.Array_record_output
  | Names.Initialize | Names.Message ->
    () (* bookkeeping calls carry no circuit semantics *)
  | Names.Gate { shape; doubles; qubits } ->
    let gate =
      if doubles = 0 then shape
      else Names.instantiate shape (List.init doubles (fun j -> as_float v.(j)))
    in
    let qubits = List.init qubits (fun j -> as_qubit v.(doubles + j)) in
    List.iter (note_qubit st) qubits;
    Circuit.Build.gate ?cond st.build gate qubits
  | Names.Array_get_size_1d | Names.Fail | Names.Unknown ->
    fail "unsupported quantum function @%s" callee

(* ------------------------------------------------------------------ *)
(* Instructions                                                         *)

let exec_instr st ~cond (i : Instr.t) =
  match i.Instr.op with
  | Instr.Call (_, callee, args) -> (
    match Names.decode callee with
    | Names.Unknown ->
      if Names.is_quantum callee then fail "call to unknown quantum function @%s" callee
      else fail "call to non-quantum function @%s (inline/lower first)" callee
    | call -> exec_call st ~cond i.Instr.id callee call args)
  | Instr.Alloca Ty.Ptr | Instr.Alloca (Ty.I1 | Ty.I8 | Ty.I32 | Ty.I64) ->
    let s = st.next_slot in
    st.next_slot <- s + 1;
    define st i.Instr.id (ASlot s)
  | Instr.Alloca ty -> fail "alloca of %s" (Ty.to_string ty)
  | Instr.Store (v, p) -> (
    match avalue_of_operand st Ty.Ptr p with
    | ASlot s ->
      Hashtbl.replace st.mem s (avalue_of_operand st v.Operand.ty v.Operand.v)
    | _ -> fail "store through a non-slot pointer")
  | Instr.Load (_, p) -> (
    match avalue_of_operand st Ty.Ptr p with
    | ASlot s -> (
      match Hashtbl.find_opt st.mem s with
      | Some v -> define st i.Instr.id v
      | None -> fail "load from an uninitialized slot")
    | _ -> fail "load through a non-slot pointer")
  | Instr.Cast (c, src, ty) -> (
    match avalue_of_operand st src.Operand.ty src.Operand.v, c with
    | AScalar v, _ ->
      define st i.Instr.id (scalar (fun () -> Interp.eval_cast c v ty))
    | ALin _, _ | ABit _, Instr.Sext ->
      fail "%s of a value computed from results (lower first)"
        (Instr.string_of_cast c)
    | v, (Instr.Zext | Instr.Sext | Instr.Inttoptr | Instr.Ptrtoint) ->
      define st i.Instr.id v
    | _ -> fail "unsupported cast %s" (Instr.string_of_cast c))
  | Instr.Binop (op, ty, x, y) -> (
    let xv = avalue_of_operand st ty x and yv = avalue_of_operand st ty y in
    match op, xv, yv with
    | _, AScalar a, AScalar b ->
      define st i.Instr.id (scalar (fun () -> Interp.eval_binop op ty a b))
    | Instr.Shl, v, AScalar _ ->
      let terms, c = lin_of v and k = Int64.to_int (as_int yv) in
      if k < 0 || k >= Ty.bit_width ty then fail "shl by %d (lower first)" k;
      define st i.Instr.id
        (ALin
           ( List.map (fun (r, w) -> (r, w lsl k)) terms,
             Interp.truncate_to_width ty (Int64.shift_left c k) ))
    | Instr.Add, a, b
    | Instr.Or, ((ABit _ | ALin (_, 0L)) as a), ((ABit _ | ALin (_, 0L)) as b) ->
      (* [or] adds disjoint bits: no constant, and a condition's result
         bits have distinct power-of-two weights *)
      let ta, ca = lin_of a and tb, cb = lin_of b in
      define st i.Instr.id
        (ALin (ta @ tb, Interp.truncate_to_width ty (Int64.add ca cb)))
    | _ -> fail "unsupported classical operation %s (lower first)" (Instr.string_of_binop op))
  | Instr.Icmp (Instr.Ieq, ty, x, y) -> (
    let xv = avalue_of_operand st ty x and yv = avalue_of_operand st ty y in
    match xv, yv with
    | (ABit _ | ALin _), AScalar _ | AScalar _, (ABit _ | ALin _) ->
      (* [trunc (sum + c) = v] is [sum = trunc (v - c)] while the sum
         cannot reach the width; the operands share the icmp's type *)
      let (terms, c), v =
        match xv with
        | AScalar _ -> (lin_of yv, as_int xv)
        | _ -> (lin_of xv, as_int yv)
      in
      if not (sum_fits (Ty.bit_width ty) terms) then
        fail "comparison of a value that may wrap at %s (lower first)"
          (Ty.to_string ty);
      define st i.Instr.id
        (ACmp (terms, Interp.truncate_to_width ty (Int64.sub v c)))
    | AScalar a, AScalar b ->
      define st i.Instr.id (scalar (fun () -> Interp.eval_icmp Instr.Ieq a b))
    | _ -> fail "unsupported comparison operands (lower first)")
  | Instr.Icmp (p, _, _, _) ->
    fail "unsupported comparison predicate %s (lower first)" (Instr.string_of_icmp p)
  | Instr.Fbinop _ | Instr.Fcmp _ ->
    fail "floating-point computation (lower first)"
  | Instr.Gep _ -> fail "getelementptr on classical memory"
  | Instr.Select _ -> fail "select instruction"
  | Instr.Phi _ -> fail "phi node (the program has non-trivial control flow; lower first)"
  | Instr.Freeze v ->
    define st i.Instr.id (avalue_of_operand st v.Operand.ty v.Operand.v)

(* ------------------------------------------------------------------ *)
(* Control flow: a forward chain with optional if-then shapes           *)

let cond_of_avalue v : Circuit.cond =
  match v with
  | ABit (r, false) -> { Circuit.cbits = [ r ]; value = 1 }
  | ABit (r, true) -> { Circuit.cbits = [ r ]; value = 0 }
  | ACmp (terms, value) ->
    (* terms must be distinct bits with power-of-two weights forming a
       contiguous register, LSB first *)
    let sorted = List.sort (fun (_, w1) (_, w2) -> compare w1 w2) terms in
    let bits =
      List.mapi
        (fun k (r, w) ->
          if w <> 1 lsl k then
            fail "condition is not a plain register comparison";
          r)
        sorted
    in
    if value < Int64.of_int min_int || value > Int64.of_int max_int then
      fail "condition compares against %Ld, past any register" value;
    { Circuit.cbits = bits; value = Int64.to_int value }
  | _ -> fail "branch condition does not derive from measurement results"

let block_index cfg i label =
  match Cfg.target cfg i label with
  | Some i -> i
  | None -> fail "branch to undefined label %%%s" label

let rec exec_block st cfg i =
  if st.visited.(i) then
    fail "the program contains a loop; lower (unroll) first";
  st.visited.(i) <- true;
  let b = Cfg.block_at cfg i in
  List.iter (exec_instr st ~cond:None) b.Block.instrs;
  match b.Block.term with
  | Instr.Ret None -> ()
  | Instr.Ret (Some _) -> fail "entry point returns a value"
  | Instr.Br next -> exec_block st cfg (block_index cfg i next)
  | Instr.Cond_br (c, then_label, else_label) ->
    let cond = cond_of_avalue (avalue_of_operand st Ty.I1 c) in
    (* shape: then-block is straight-line and rejoins at else_label *)
    let t = block_index cfg i then_label in
    let then_block = Cfg.block_at cfg t in
    (match then_block.Block.term with
    | Instr.Br join when String.equal join else_label ->
      List.iter (exec_instr st ~cond:(Some cond)) then_block.Block.instrs;
      st.visited.(t) <- true;
      exec_block st cfg (block_index cfg i else_label)
    | _ ->
      fail
        "unsupported control-flow shape (only if-then over measurement \
         results is recognized; lower first)")
  | Instr.Switch _ -> fail "switch instruction (lower first)"
  | Instr.Unreachable -> fail "unreachable terminator"

let parse_with_output_exn (m : Ir_module.t) : Circuit.t * int list =
  let entry =
    match Ir_module.entry_point m with
    | Some f when not (Func.is_declaration f) -> f
    | Some f -> fail "entry point @%s is a declaration" f.Func.name
    | None -> fail "module has no entry point"
  in
  let cfg = Cfg.of_func entry in
  let st =
    {
      m;
      nums = Array.make 64 None;
      named = Names_tbl.create 16;
      mem = Hashtbl.create 16;
      build = Circuit.Build.create ();
      next_qubit = 0;
      next_result = 0;
      next_slot = 0;
      max_qubit = -1;
      visited = Array.make (Cfg.count cfg) false;
      recorded = [];
      args = Array.make max_arity AZero;
    }
  in
  exec_block st cfg 0;
  (* honor the declared qubit count when present *)
  note_qubit st (Names.declared_qubits entry - 1);
  if st.max_qubit >= 0 then Circuit.Build.touch_qubit st.build st.max_qubit;
  if st.next_result > 0 then Circuit.Build.touch_clbit st.build (st.next_result - 1);
  let circuit =
    try Circuit.Build.finish st.build with Circuit.Invalid msg -> fail "%s" msg
  in
  (circuit, List.rev st.recorded)

let parse m = fst (parse_with_output_exn m)

let parse_result m =
  match parse m with
  | c -> Ok c
  | exception Unsupported msg -> Error msg

let parse_with_output m =
  match parse_with_output_exn m with
  | pair -> Ok pair
  | exception Unsupported msg -> Error msg

(* Renumbers clbits to recorded-output order: the parser assigns clbit =
   result id in allocation order, so a recorded result becomes the clbit
   of its position in the recorded output, and a measured but unrecorded
   one (it may still feed a condition) a clbit past them. *)
let remap_output_order (c : Circuit.t) recorded =
  let pos = Hashtbl.create 8 in
  let ok = ref true in
  List.iteri
    (fun i r -> if Hashtbl.mem pos r then ok := false else Hashtbl.add pos r i)
    recorded;
  let next = ref (List.length recorded) in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Measure (_, cl) when not (Hashtbl.mem pos cl) ->
        Hashtbl.add pos cl !next;
        incr next
      | _ -> ())
    c.Circuit.ops;
  let at cl =
    match Hashtbl.find_opt pos cl with
    | Some i -> i
    | None ->
      ok := false;
      cl
  in
  let measured = Hashtbl.create 8 in
  let ops =
    List.map
      (fun (op : Circuit.op) ->
        let cond =
          Option.map
            (fun (cd : Circuit.cond) ->
              { cd with Circuit.cbits = List.map at cd.Circuit.cbits })
            op.Circuit.cond
        in
        match op.Circuit.kind with
        | Circuit.Measure (q, cl) ->
          Hashtbl.replace measured cl ();
          { Circuit.kind = Circuit.Measure (q, at cl); cond }
        | _ -> { op with Circuit.cond })
      c.Circuit.ops
  in
  if !ok && List.for_all (Hashtbl.mem measured) recorded then
    Some { c with Circuit.ops; num_clbits = !next }
  else None

let in_recorded_order c recorded =
  if recorded = [] then c
  else
    match remap_output_order c recorded with
    | Some c' -> c'
    | None ->
      fail
        "recorded output (results %s) is not each measured result once; the \
         circuit form cannot keep it"
        (String.concat ", " (List.map string_of_int recorded))

let parse_recorded m =
  let c, recorded = parse_with_output_exn m in
  in_recorded_order c recorded

(* Parses textual QIR end to end. *)
let parse_string src = parse (Parser.parse_module src)
