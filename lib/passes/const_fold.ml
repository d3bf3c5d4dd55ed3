(* Local constant folding: instructions whose operands are all constants
   are evaluated at compile time and their uses rewritten. Runs to a
   fixed point within each function. This is one of the classical
   optimizations the paper credits the LLVM infrastructure with
   (Sec. II-B). *)

open Llvm_ir

let const_of_operand (o : Operand.t) =
  match o with
  | Operand.Const c -> Some c
  | Operand.Local _ -> None

let int_of_const (c : Constant.t) =
  match c with
  | Constant.Int n -> Some n
  | Constant.Bool b -> Some (if b then 1L else 0L)
  | Constant.Inttoptr n -> Some n
  | Constant.Null -> Some 0L
  | Constant.Float _ | Constant.Undef | Constant.Global _ | Constant.Str _
  | Constant.Arr _ | Constant.Zeroinit ->
    None

let float_of_const (c : Constant.t) =
  match c with
  | Constant.Float f -> Some f
  | Constant.Int n -> Some (Int64.to_float n)
  | _ -> None

let truncate ty n = Interp.truncate_to_width ty n
let sext ty n = Interp.sign_extend ty n

let fold_binop op ty x y =
  let open Instr in
  let sx = sext ty x and sy = sext ty y in
  let safe_div f a b = if Int64.equal b 0L then None else Some (f a b) in
  let r =
    match op with
    | Add -> Some (Int64.add x y)
    | Sub -> Some (Int64.sub x y)
    | Mul -> Some (Int64.mul x y)
    | Sdiv -> safe_div Int64.div sx sy
    | Udiv -> safe_div Int64.unsigned_div x y
    | Srem -> safe_div Int64.rem sx sy
    | Urem -> safe_div Int64.unsigned_rem x y
    | And -> Some (Int64.logand x y)
    | Or -> Some (Int64.logor x y)
    | Xor -> Some (Int64.logxor x y)
    | Shl -> Some (Int64.shift_left x (Int64.to_int y land 63))
    | Lshr -> Some (Int64.shift_right_logical x (Int64.to_int y land 63))
    | Ashr -> Some (Int64.shift_right sx (Int64.to_int y land 63))
  in
  Option.map
    (fun n ->
      let n = truncate ty n in
      if Ty.equal ty Ty.I1 then Constant.Bool (not (Int64.equal n 0L))
      else Constant.Int n)
    r

let fold_icmp pred ty x y =
  let open Instr in
  let sx = sext ty x and sy = sext ty y in
  let u = Int64.unsigned_compare x y in
  let b =
    match pred with
    | Ieq -> Int64.equal x y
    | Ine -> not (Int64.equal x y)
    | Islt -> Int64.compare sx sy < 0
    | Isle -> Int64.compare sx sy <= 0
    | Isgt -> Int64.compare sx sy > 0
    | Isge -> Int64.compare sx sy >= 0
    | Iult -> u < 0
    | Iule -> u <= 0
    | Iugt -> u > 0
    | Iuge -> u >= 0
  in
  Constant.Bool b

let fold_fbinop op x y =
  let open Instr in
  Constant.Float
    (match op with
    | Fadd -> x +. y
    | Fsub -> x -. y
    | Fmul -> x *. y
    | Fdiv -> x /. y
    | Frem -> Float.rem x y)

let fold_fcmp pred x y =
  let open Instr in
  let b =
    match pred with
    | Foeq -> x = y
    | Fone -> x < y || x > y
    | Folt -> x < y
    | Fole -> x <= y
    | Fogt -> x > y
    | Foge -> x >= y
    | Ford -> not (Float.is_nan x || Float.is_nan y)
    | Funo -> Float.is_nan x || Float.is_nan y
  in
  Constant.Bool b

let fold_cast op (src : Operand.typed) c target_ty =
  match op, c with
  | Instr.Inttoptr, _ ->
    Option.map (fun n -> Constant.Inttoptr n) (int_of_const c)
  | Instr.Ptrtoint, _ ->
    Option.map (fun n -> Constant.Int (truncate target_ty n)) (int_of_const c)
  | Instr.Zext, _ ->
    Option.map (fun n -> Constant.Int (truncate target_ty n)) (int_of_const c)
  | Instr.Sext, _ ->
    Option.map
      (fun n -> Constant.Int (truncate target_ty (sext src.Operand.ty n)))
      (int_of_const c)
  | Instr.Trunc, _ -> (
    match int_of_const c with
    | Some n ->
      let n = truncate target_ty n in
      Some
        (if Ty.equal target_ty Ty.I1 then Constant.Bool (not (Int64.equal n 0L))
         else Constant.Int n)
    | None -> None)
  | Instr.Bitcast, _ -> Some c
  | Instr.Sitofp, _ ->
    Option.map
      (fun n -> Constant.Float (Int64.to_float (sext src.Operand.ty n)))
      (int_of_const c)
  | Instr.Fptosi, _ ->
    Option.map (fun f -> Constant.Int (truncate target_ty (Int64.of_float f)))
      (float_of_const c)

let fold_op (op : Instr.op) : Constant.t option =
  match op with
  | Instr.Binop (b, ty, x, y) -> (
    match const_of_operand x, const_of_operand y with
    | Some cx, Some cy -> (
      match int_of_const cx, int_of_const cy with
      | Some nx, Some ny -> fold_binop b ty nx ny
      | _ -> None)
    | _ -> None)
  | Instr.Icmp (pred, ty, x, y) -> (
    match const_of_operand x, const_of_operand y with
    | Some cx, Some cy -> (
      match int_of_const cx, int_of_const cy with
      | Some nx, Some ny -> Some (fold_icmp pred ty nx ny)
      | _ -> None)
    | _ -> None)
  | Instr.Fbinop (b, _, x, y) -> (
    match const_of_operand x, const_of_operand y with
    | Some cx, Some cy -> (
      match float_of_const cx, float_of_const cy with
      | Some fx, Some fy -> Some (fold_fbinop b fx fy)
      | _ -> None)
    | _ -> None)
  | Instr.Fcmp (pred, _, x, y) -> (
    match const_of_operand x, const_of_operand y with
    | Some cx, Some cy -> (
      match float_of_const cx, float_of_const cy with
      | Some fx, Some fy -> Some (fold_fcmp pred fx fy)
      | _ -> None)
    | _ -> None)
  | Instr.Cast (c, src, ty) -> (
    match const_of_operand src.Operand.v with
    | Some cv -> fold_cast c src cv ty
    | None -> None)
  | Instr.Select (c, a, b) -> (
    match const_of_operand c with
    | Some cc -> (
      match int_of_const cc with
      | Some n -> (
        let chosen = if not (Int64.equal n 0L) then a else b in
        match const_of_operand chosen.Operand.v with
        | Some c -> Some c
        | None -> None)
      | None -> None)
    | None -> None)
  | Instr.Phi (_, incoming) -> (
    (* a phi whose incoming values are all the same constant *)
    match incoming with
    | (Operand.Const c, _) :: rest
      when List.for_all
             (fun (v, _) -> Operand.equal v (Operand.Const c))
             rest ->
      Some c
    | _ -> None)
  | Instr.Alloca _ | Instr.Load _ | Instr.Store _ | Instr.Gep _ | Instr.Call _
  | Instr.Freeze _ ->
    None

(* Attempts to fold one instruction to a constant. An operation whose
   type the shared evaluators refuse (a verified [icmp] on a struct
   type, say) folds to nothing. *)
let fold_instr (op : Instr.op) : Constant.t option =
  try fold_op op with Ir_error.Exec_error _ -> None

let run (_m : Ir_module.t) (f : Func.t) : Func.t * bool =
  let changed = ref false in
  let rec fixpoint f =
    let subst = ref Subst.SMap.empty in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          let instrs =
            List.filter_map
              (fun (i : Instr.t) ->
                match i.Instr.id with
                | Some id -> (
                  match fold_instr i.Instr.op with
                  | Some c ->
                    subst := Subst.SMap.add id (Operand.Const c) !subst;
                    None
                  | None -> Some i)
                | None -> Some i)
              b.Block.instrs
          in
          { b with Block.instrs })
        f.Func.blocks
    in
    if Subst.SMap.is_empty !subst then f
    else begin
      changed := true;
      fixpoint (Subst.func !subst (Func.replace_blocks f blocks))
    end
  in
  let f = fixpoint f in
  (f, !changed)

let pass = { Pass.name = "const-fold"; run }
