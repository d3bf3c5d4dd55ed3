(* An interpreter for the IR subset — the stand-in for LLVM's [lli]
   (Sec. III-C of the paper). Quantum instructions are *not* built in:
   they arrive as calls to undefined external functions, and the caller
   provides their implementations through the [externals] table. This is
   precisely the runtime-augmentation architecture of the paper's Ex. 5.

   Memory model: a flat 64-bit address space of 8-byte cells. [alloca]
   and global initializers carve cells out of a bump allocator that starts
   at [heap_base], far above the small integers that static qubit
   addressing converts to pointers (Ex. 6), so `inttoptr (i64 1 to ptr)`
   can never alias allocated storage. *)

type value =
  | VInt of Ty.t * int64 (* integer type and two's-complement payload *)
  | VFloat of float
  | VPtr of int64
  | VVoid

let heap_base = 0x1000_0000L

type stats = {
  mutable instructions : int;
  mutable external_calls : int;
  mutable internal_calls : int;
  mutable blocks_entered : int;
}

(* Per-block execution plans, built lazily on first entry and cached for
   the lifetime of the state: the phi (pred -> value) map is computed
   once instead of remapping [incoming] with [List.assoc] on every edge,
   and branches resolve labels through a per-function table instead of
   scanning the block list. *)
type phi_plan = {
  phi_dst : string;
  phi_ty : Ty.t;
  phi_by_pred : (string, Operand.t) Hashtbl.t;
      (* duplicate predecessor entries keep the first, like List.assoc *)
}

type block_plan = { plan_phis : phi_plan array; plan_body : Instr.t list }

type func_plan = {
  labels : (string, Block.t) Hashtbl.t;
  block_plans : (string, block_plan) Hashtbl.t;
}

type t = {
  m : Ir_module.t;
  mem : (int64, value) Hashtbl.t;
  global_addrs : (string, int64) Hashtbl.t;
  externals : (string, value list -> value) Hashtbl.t;
  plans : (string, func_plan) Hashtbl.t; (* keyed by function name *)
  mutable brk : int64; (* bump allocator *)
  mutable fuel : int; (* remaining instruction budget; < 0 = unlimited *)
  deadline : (unit -> bool) option; (* returns true once expired *)
  mutable deadline_tick : int; (* instructions since last deadline poll *)
  stats : stats;
}

let error fmt = Ir_error.exec_error fmt

(* ------------------------------------------------------------------ *)
(* Value helpers                                                        *)

let truncate_to_width ty n =
  match ty with
  | Ty.I1 -> Int64.logand n 1L
  | Ty.I8 -> Int64.logand n 0xFFL
  | Ty.I16 -> Int64.logand n 0xFFFFL
  | Ty.I32 -> Int64.logand n 0xFFFF_FFFFL
  | Ty.I64 -> n
  | _ -> error "truncate_to_width: %s is not an integer type" (Ty.to_string ty)

let sign_extend ty n =
  match ty with
  | Ty.I64 -> n
  | Ty.I1 | Ty.I8 | Ty.I16 | Ty.I32 ->
    let w = Ty.bit_width ty in
    let shift = 64 - w in
    Int64.shift_right (Int64.shift_left n shift) shift
  | _ -> error "sign_extend: %s is not an integer type" (Ty.to_string ty)

let as_int = function
  | VInt (_, n) -> n
  | VPtr a -> a
  | VFloat _ -> error "expected an integer value, got a float"
  | VVoid -> error "expected an integer value, got void"

let as_signed = function
  | VInt (ty, n) -> sign_extend ty n
  | VPtr a -> a
  | VFloat _ -> error "expected an integer value, got a float"
  | VVoid -> error "expected an integer value, got void"

let as_float = function
  | VFloat f -> f
  | VInt _ -> error "expected a float value, got an integer"
  | VPtr _ -> error "expected a float value, got a pointer"
  | VVoid -> error "expected a float value, got void"

let as_ptr = function
  | VPtr a -> a
  | VInt (_, n) -> n (* integers flow into pointers via inttoptr patterns *)
  | VFloat _ -> error "expected a pointer value, got a float"
  | VVoid -> error "expected a pointer value, got void"

let as_bool v = not (Int64.equal (as_int v) 0L)

(* The value a constant operand has at type [ty]: integers are read at
   [ty]'s width (so [i8 -1] and [i8 255] are one value), and [global]
   gives a global's address, or [None] when it has no storage. *)
let eval_const global ty (c : Constant.t) =
  match c with
  | Constant.Int n -> VInt (ty, truncate_to_width ty n)
  | Constant.Bool b -> VInt (Ty.I1, if b then 1L else 0L)
  | Constant.Float f -> VFloat f
  | Constant.Null -> VPtr 0L
  | Constant.Undef -> (
    match ty with
    | Ty.Double -> VFloat 0.
    | Ty.Ptr -> VPtr 0L
    | _ -> VInt (ty, 0L))
  | Constant.Inttoptr n -> VPtr n
  | Constant.Global g -> (
    match global g with
    | Some addr -> VPtr addr
    | None -> error "no storage for global @%s" g)
  | Constant.Str _ | Constant.Arr _ | Constant.Zeroinit ->
    error "aggregate constant used as an operand"

let no_globals _ = None

(* ------------------------------------------------------------------ *)
(* State construction                                                   *)

let cell_size = 8L

let alloc st cells =
  let addr = st.brk in
  st.brk <- Int64.add st.brk (Int64.mul (Int64.of_int (max cells 1)) cell_size);
  addr

let rec store_const_into mem addr ty (c : Constant.t) =
  match c with
  | Constant.Str s ->
    String.iteri
      (fun i ch ->
        Hashtbl.replace mem
          (Int64.add addr (Int64.mul (Int64.of_int i) cell_size))
          (VInt (Ty.I8, Int64.of_int (Char.code ch))))
      s
  | Constant.Arr (ety, elems) ->
    let esize = Int64.of_int (Ty.size_in_cells ety) in
    List.iteri
      (fun i e ->
        store_const_into mem
          (Int64.add addr
             (Int64.mul (Int64.mul (Int64.of_int i) esize) cell_size))
          ety e)
      elems
  | Constant.Zeroinit ->
    for i = 0 to Ty.size_in_cells ty - 1 do
      Hashtbl.replace mem
        (Int64.add addr (Int64.mul (Int64.of_int i) cell_size))
        (VInt (Ty.I64, 0L))
    done
  | ( Constant.Int _ | Constant.Bool _ | Constant.Float _ | Constant.Null
    | Constant.Inttoptr _ ) ->
    Hashtbl.replace mem addr (eval_const no_globals ty c)
  | (Constant.Undef | Constant.Global _) -> ()

let store_const st addr ty c = store_const_into st.mem addr ty c

let create ?(fuel = -1) ?deadline ?(externals = []) (m : Ir_module.t) =
  let st =
    {
      m;
      mem = Hashtbl.create 256;
      global_addrs = Hashtbl.create 16;
      externals = Hashtbl.create 64;
      plans = Hashtbl.create 8;
      brk = heap_base;
      fuel;
      deadline;
      deadline_tick = 0;
      stats =
        { instructions = 0; external_calls = 0; internal_calls = 0;
          blocks_entered = 0 };
    }
  in
  List.iter (fun (name, fn) -> Hashtbl.replace st.externals name fn) externals;
  List.iter
    (fun (g : Ir_module.global) ->
      let cells = Ty.size_in_cells g.gty in
      let addr = alloc st cells in
      Hashtbl.replace st.global_addrs g.gname addr;
      match g.ginit with
      | Some c -> store_const st addr g.gty c
      | None -> ())
    m.Ir_module.globals;
  st

let register_external st name fn = Hashtbl.replace st.externals name fn
let stats st = st.stats

(* Every instruction (and every terminator, so empty loops cannot spin
   forever) pays one unit of fuel; the wall-clock deadline is polled
   every 128 instructions to keep the common case cheap. *)
let consume_budget st =
  st.stats.instructions <- st.stats.instructions + 1;
  (* one branch on the unlimited (-1) path *)
  if st.fuel >= 0 then begin
    if st.fuel = 0 then error "instruction budget exhausted";
    st.fuel <- st.fuel - 1
  end;
  match st.deadline with
  | None -> ()
  | Some expired ->
    st.deadline_tick <- st.deadline_tick + 1;
    if st.deadline_tick land 127 = 0 && expired () then
      Ir_error.timeout_error
        "wall-clock deadline exceeded after %d instructions"
        st.stats.instructions

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)

type frame = { env : (string, value) Hashtbl.t }

let eval_operand st frame ty (o : Operand.t) =
  match o with
  | Operand.Const c -> eval_const (Hashtbl.find_opt st.global_addrs) ty c
  | Operand.Local name -> (
    match Hashtbl.find_opt frame.env name with
    | Some v -> v
    | None -> error "undefined local %%%s" name)

(* Sign extension only happens for the three signed ops — paying for it
   on every add/xor in a hot loop shows up in both engines' profiles. *)
let eval_binop op ty x y =
  let both_div_guard y =
    if Int64.equal y 0L then error "integer division by zero"
  in
  let xv = as_int x and yv = as_int y in
  let r =
    match op with
    | Instr.Add -> Int64.add xv yv
    | Instr.Sub -> Int64.sub xv yv
    | Instr.Mul -> Int64.mul xv yv
    | Instr.Sdiv ->
      let ys = as_signed y in
      both_div_guard ys;
      Int64.div (as_signed x) ys
    | Instr.Udiv ->
      both_div_guard yv;
      Int64.unsigned_div xv yv
    | Instr.Srem ->
      let ys = as_signed y in
      both_div_guard ys;
      Int64.rem (as_signed x) ys
    | Instr.Urem ->
      both_div_guard yv;
      Int64.unsigned_rem xv yv
    | Instr.And -> Int64.logand xv yv
    | Instr.Or -> Int64.logor xv yv
    | Instr.Xor -> Int64.logxor xv yv
    | Instr.Shl -> Int64.shift_left xv (Int64.to_int yv land 63)
    | Instr.Lshr -> Int64.shift_right_logical xv (Int64.to_int yv land 63)
    | Instr.Ashr -> Int64.shift_right (as_signed x) (Int64.to_int yv land 63)
  in
  VInt (ty, truncate_to_width ty r)

let eval_fbinop op x y =
  let xv = as_float x and yv = as_float y in
  VFloat
    (match op with
    | Instr.Fadd -> xv +. yv
    | Instr.Fsub -> xv -. yv
    | Instr.Fmul -> xv *. yv
    | Instr.Fdiv -> xv /. yv
    | Instr.Frem -> Float.rem xv yv)

(* Comparison results are the two interned i1 values — icmp in a loop
   header runs once per iteration and needn't allocate. *)
let vtrue = VInt (Ty.I1, 1L)
let vfalse = VInt (Ty.I1, 0L)

let eval_icmp pred x y =
  let signed f = f (as_signed x) (as_signed y) in
  let unsigned f = f (Int64.unsigned_compare (as_int x) (as_int y)) 0 in
  let b =
    match pred with
    | Instr.Ieq -> Int64.equal (as_int x) (as_int y)
    | Instr.Ine -> not (Int64.equal (as_int x) (as_int y))
    | Instr.Islt -> signed (fun a b -> Int64.compare a b < 0)
    | Instr.Isle -> signed (fun a b -> Int64.compare a b <= 0)
    | Instr.Isgt -> signed (fun a b -> Int64.compare a b > 0)
    | Instr.Isge -> signed (fun a b -> Int64.compare a b >= 0)
    | Instr.Iult -> unsigned (fun c z -> c < z)
    | Instr.Iule -> unsigned (fun c z -> c <= z)
    | Instr.Iugt -> unsigned (fun c z -> c > z)
    | Instr.Iuge -> unsigned (fun c z -> c >= z)
  in
  if b then vtrue else vfalse

let eval_fcmp pred x y =
  let xv = as_float x and yv = as_float y in
  let b =
    match pred with
    | Instr.Foeq -> xv = yv
    | Instr.Fone -> xv < yv || xv > yv
    | Instr.Folt -> xv < yv
    | Instr.Fole -> xv <= yv
    | Instr.Fogt -> xv > yv
    | Instr.Foge -> xv >= yv
    | Instr.Ford -> not (Float.is_nan xv || Float.is_nan yv)
    | Instr.Funo -> Float.is_nan xv || Float.is_nan yv
  in
  if b then vtrue else vfalse

let eval_cast op v target_ty =
  match op with
  | Instr.Zext -> VInt (target_ty, as_int v)
  | Instr.Sext ->
    VInt (target_ty, truncate_to_width target_ty (as_signed v))
  | Instr.Trunc -> VInt (target_ty, truncate_to_width target_ty (as_int v))
  | Instr.Bitcast -> v
  | Instr.Inttoptr -> VPtr (as_int v)
  | Instr.Ptrtoint -> VInt (target_ty, truncate_to_width target_ty (as_ptr v))
  | Instr.Sitofp -> VFloat (Int64.to_float (as_signed v))
  | Instr.Fptosi ->
    VInt (target_ty, truncate_to_width target_ty (Int64.of_float (as_float v)))

(* A [switch]'s case constants read at the scrutinee's type [ty] like any
   operand, so [i8 -1] is 255 and [i1 true] is 1; a case that does not
   read as an integer never matches. *)
let switch_cases ty cases =
  Array.of_list
    (List.filter_map
       (fun (c, l) ->
         match eval_const no_globals ty c with
         | VInt (_, m) -> Some (m, l)
         | _ | (exception Ir_error.Exec_error _) -> None)
       cases)

(* The successor a [switch] on [scrut] takes: the last case equal to the
   scrutinee, else [default]. *)
let switch_target scrut default cases =
  let n = as_int scrut in
  let target = ref default in
  for k = 0 to Array.length cases - 1 do
    let m, l = Array.unsafe_get cases k in
    if Int64.equal m n then target := l
  done;
  !target

(* GEP offset computation over the cell-based layout. *)
let rec gep_offset ty idxs =
  match idxs with
  | [] -> 0
  | (i : Operand.typed) :: rest -> (
    let n =
      match i.Operand.v with
      | Operand.Const c -> (
        match c with
        | Constant.Int n -> Int64.to_int n
        | _ -> error "getelementptr with a non-integer constant index")
      | Operand.Local _ -> error "gep_offset: dynamic index must be pre-resolved"
    in
    match ty with
    | Ty.Array (_, elt) -> (n * Ty.size_in_cells elt) + gep_offset elt rest
    | Ty.Struct fields ->
      let rec field_offset k = function
        | [] -> error "getelementptr: struct index out of range"
        | f :: fs ->
          if k = 0 then (0, f)
          else
            let off, ty = field_offset (k - 1) fs in
            (off + Ty.size_in_cells f, ty)
      in
      let off, fty = field_offset n fields in
      off + gep_offset fty rest
    | _ -> (n * Ty.size_in_cells ty) + gep_offset ty rest)

(* ------------------------------------------------------------------ *)
(* Execution plans                                                      *)

let func_plan_of st (f : Func.t) =
  match Hashtbl.find_opt st.plans f.Func.name with
  | Some p -> p
  | None ->
    let p = { labels = Func.label_table f; block_plans = Hashtbl.create 16 } in
    Hashtbl.replace st.plans f.Func.name p;
    p

let block_plan_of fp (b : Block.t) =
  match Hashtbl.find_opt fp.block_plans b.Block.label with
  | Some p -> p
  | None ->
    let phis =
      List.filter_map
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi (ty, incoming) ->
            let by_pred = Hashtbl.create (max 4 (List.length incoming)) in
            List.iter
              (fun (v, l) ->
                if not (Hashtbl.mem by_pred l) then Hashtbl.add by_pred l v)
              incoming;
            Some
              {
                phi_dst = Option.get i.Instr.id;
                phi_ty = ty;
                phi_by_pred = by_pred;
              }
          | _ -> None)
        b.instrs
    in
    let p =
      { plan_phis = Array.of_list phis; plan_body = Block.non_phis b }
    in
    Hashtbl.replace fp.block_plans b.Block.label p;
    p

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

let rec exec_function st (f : Func.t) (args : value list) : value =
  if Func.is_declaration f then call_external st f.Func.name args
  else begin
    let frame = { env = Hashtbl.create 32 } in
    (try
       List.iter2
         (fun (p : Func.param) v -> Hashtbl.replace frame.env p.pname v)
         f.params args
     with Invalid_argument _ ->
       error "@%s called with %d arguments, expected %d" f.name
         (List.length args) (List.length f.params));
    exec_block st f frame ~prev:None (Func.entry f)
  end

and call_external st name args =
  match Hashtbl.find_opt st.externals name with
  | Some fn ->
    st.stats.external_calls <- st.stats.external_calls + 1;
    fn args
  | None -> error "call to external function @%s with no implementation" name

and exec_block st f frame ~prev (b : Block.t) : value =
  st.stats.blocks_entered <- st.stats.blocks_entered + 1;
  let plan = block_plan_of (func_plan_of st f) b in
  (* Phi nodes read their incoming values simultaneously. *)
  let nphis = Array.length plan.plan_phis in
  if nphis > 0 then begin
    let pred =
      match prev with
      | Some l -> l
      | None -> error "phi node in the entry block"
    in
    let vals = Array.make nphis VVoid in
    for k = 0 to nphis - 1 do
      let p = plan.plan_phis.(k) in
      match Hashtbl.find_opt p.phi_by_pred pred with
      | Some v -> vals.(k) <- eval_operand st frame p.phi_ty v
      | None -> error "phi has no entry for predecessor %%%s" pred
    done;
    for k = 0 to nphis - 1 do
      Hashtbl.replace frame.env plan.plan_phis.(k).phi_dst vals.(k)
    done
  end;
  List.iter
    (fun (i : Instr.t) -> exec_instr st frame i.Instr.id i.Instr.op)
    plan.plan_body;
  consume_budget st;
  match b.term with
  | Instr.Ret None -> VVoid
  | Instr.Ret (Some v) -> eval_operand st frame v.Operand.ty v.Operand.v
  | Instr.Br l -> branch st f frame ~prev:b.label l
  | Instr.Cond_br (c, t, e) ->
    let cond = as_bool (eval_operand st frame Ty.I1 c) in
    branch st f frame ~prev:b.label (if cond then t else e)
  | Instr.Switch (v, d, cases) ->
    let scrut = eval_operand st frame v.Operand.ty v.Operand.v in
    branch st f frame ~prev:b.label
      (switch_target scrut d (switch_cases v.Operand.ty cases))
  | Instr.Unreachable -> error "reached 'unreachable' in @%s" f.Func.name

and branch st f frame ~prev label =
  let b =
    match Hashtbl.find_opt (func_plan_of st f).labels label with
    | Some b -> b
    | None -> Func.find_block_exn f label (* raises, matching the seed *)
  in
  exec_block st f frame ~prev:(Some prev) b

and exec_instr st frame id op =
  consume_budget st;
  let set v =
    match id with
    | Some id -> Hashtbl.replace frame.env id v
    | None -> ()
  in
  match op with
  | Instr.Binop (b, ty, x, y) ->
    set
      (eval_binop b ty (eval_operand st frame ty x) (eval_operand st frame ty y))
  | Instr.Fbinop (b, _, x, y) ->
    set
      (eval_fbinop b
         (eval_operand st frame Ty.Double x)
         (eval_operand st frame Ty.Double y))
  | Instr.Icmp (pred, ty, x, y) ->
    set
      (eval_icmp pred (eval_operand st frame ty x) (eval_operand st frame ty y))
  | Instr.Fcmp (pred, _, x, y) ->
    set
      (eval_fcmp pred
         (eval_operand st frame Ty.Double x)
         (eval_operand st frame Ty.Double y))
  | Instr.Alloca ty -> set (VPtr (alloc st (Ty.size_in_cells ty)))
  | Instr.Load (_, p) -> (
    let addr = as_ptr (eval_operand st frame Ty.Ptr p) in
    match Hashtbl.find_opt st.mem addr with
    | Some v -> set v
    | None -> error "load from uninitialized address 0x%Lx" addr)
  | Instr.Store (v, p) ->
    let value = eval_operand st frame v.Operand.ty v.Operand.v in
    let addr = as_ptr (eval_operand st frame Ty.Ptr p) in
    Hashtbl.replace st.mem addr value
  | Instr.Gep (ty, base, idxs) ->
    let base_addr = as_ptr (eval_operand st frame Ty.Ptr base) in
    (* resolve dynamic indices before the static offset computation *)
    let idxs =
      List.map
        (fun (i : Operand.typed) ->
          match i.Operand.v with
          | Operand.Const _ -> i
          | Operand.Local _ ->
            let v = eval_operand st frame i.Operand.ty i.Operand.v in
            Operand.const i.Operand.ty (Constant.Int (as_signed v)))
        idxs
    in
    let off = gep_offset ty idxs in
    set (VPtr (Int64.add base_addr (Int64.mul (Int64.of_int off) cell_size)))
  | Instr.Call (ret_ty, callee, args) ->
    let argv =
      List.map
        (fun (a : Operand.typed) -> eval_operand st frame a.Operand.ty a.Operand.v)
        args
    in
    let result =
      match Ir_module.find_func st.m callee with
      | Some f when not (Func.is_declaration f) ->
        st.stats.internal_calls <- st.stats.internal_calls + 1;
        exec_function st f argv
      | Some _ | None -> call_external st callee argv
    in
    if not (Ty.equal ret_ty Ty.Void) then set result
  | Instr.Select (c, a, b) ->
    let cond = as_bool (eval_operand st frame Ty.I1 c) in
    set
      (if cond then eval_operand st frame a.Operand.ty a.Operand.v
       else eval_operand st frame b.Operand.ty b.Operand.v)
  | Instr.Cast (c, src, ty) ->
    set (eval_cast c (eval_operand st frame src.Operand.ty src.Operand.v) ty)
  | Instr.Phi _ -> () (* handled on block entry *)
  | Instr.Freeze v -> set (eval_operand st frame v.Operand.ty v.Operand.v)

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let run_function st name args =
  match Ir_module.find_func st.m name with
  | Some f -> exec_function st f args
  | None -> error "no function @%s" name

let run ?fuel ?deadline ?externals m name args =
  let st = create ?fuel ?deadline ?externals m in
  run_function st name args

let run_entry ?fuel ?deadline ?externals m =
  match Ir_module.entry_point m with
  | Some f -> run ?fuel ?deadline ?externals m f.Func.name []
  | None -> error "module has no entry point"
