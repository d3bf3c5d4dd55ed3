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

(* The value [c] has as an operand of type [ty], by the engines' own
   constant evaluator. Globals (no address before execution) and [undef]
   are not folded. *)
let value_of_const ty (c : Constant.t) =
  match c with
  | Constant.Undef | Constant.Global _ -> None
  | _ -> (
    try Some (Interp.eval_const Interp.no_globals ty c)
    with Ir_error.Exec_error _ -> None)

(* Whether a constant [i1] condition holds, read as the engines read it. *)
let bool_of_const c =
  match value_of_const Ty.I1 c with
  | Some (Interp.VFloat _) | None -> None
  | Some v -> Some (Interp.as_bool v)

let const_of_value (v : Interp.value) =
  match v with
  | Interp.VInt (Ty.I1, n) -> Some (Constant.Bool (not (Int64.equal n 0L)))
  | Interp.VInt (_, n) -> Some (Constant.Int n)
  | Interp.VFloat f -> Some (Constant.Float f)
  | Interp.VPtr a -> Some (Constant.Inttoptr a)
  | Interp.VVoid -> None

(* Each scalar instruction folds by running it: its constant operands
   become values, the evaluator the engines execute computes the
   result, and that value becomes a constant again. *)
let fold_op (op : Instr.op) : Constant.t option =
  let eval2 ty (x : Operand.t) (y : Operand.t) f =
    match x, y with
    | Operand.Const cx, Operand.Const cy -> (
      match value_of_const ty cx, value_of_const ty cy with
      | Some vx, Some vy -> const_of_value (f vx vy)
      | _ -> None)
    | _ -> None
  in
  match op with
  | Instr.Binop (b, ty, x, y) -> eval2 ty x y (Interp.eval_binop b ty)
  | Instr.Icmp (pred, ty, x, y) -> eval2 ty x y (Interp.eval_icmp pred)
  | Instr.Fbinop (b, _, x, y) -> eval2 Ty.Double x y (Interp.eval_fbinop b)
  | Instr.Fcmp (pred, _, x, y) -> eval2 Ty.Double x y (Interp.eval_fcmp pred)
  | Instr.Cast (Instr.Bitcast, src, _) -> const_of_operand src.Operand.v
  | Instr.Cast (c, src, ty) -> (
    match const_of_operand src.Operand.v with
    | Some cv ->
      Option.bind (value_of_const src.Operand.ty cv) (fun v ->
          const_of_value (Interp.eval_cast c v ty))
    | None -> None)
  | Instr.Select (c, a, b) -> (
    match Option.bind (const_of_operand c) bool_of_const with
    | Some taken -> const_of_operand (if taken then a else b).Operand.v
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

(* Attempts to fold one instruction to a constant. An operation the
   evaluator refuses (a division by zero, a verified [icmp] on a struct
   type) folds to nothing. *)
let fold_instr (op : Instr.op) : Constant.t option =
  try fold_op op with Ir_error.Exec_error _ -> None

let pass =
  Pass.simplifier "const-fold" (fun op ->
      Option.map (fun c -> Operand.Const c) (fold_instr op))
