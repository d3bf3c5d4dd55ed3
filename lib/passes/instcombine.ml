(* Algebraic peephole simplifications on single instructions — the
   "instcombine" slice of classical optimization:

     x + 0, 0 + x, x - 0, x * 1, 1 * x  ->  x
     x * 0, 0 * x, x & 0, 0 & x         ->  0
     x & x, x | x, x | 0, 0 | x         ->  x (or x for or-0)
     x ^ x, x - x                       ->  0
     x ^ 0, 0 ^ x                       ->  x
     x / 1, x << 0, x >> 0              ->  x
     select c, v, v                     ->  v
     icmp eq/ne x, x                    ->  true/false  *)

open Llvm_ir

let is_zero (o : Operand.t) =
  match o with
  | Operand.Const (Constant.Int 0L) | Operand.Const (Constant.Bool false) ->
    true
  | _ -> false

let is_one (o : Operand.t) =
  match o with
  | Operand.Const (Constant.Int 1L) | Operand.Const (Constant.Bool true) ->
    true
  | _ -> false

let zero_of ty =
  if Ty.equal ty Ty.I1 then Operand.Const (Constant.Bool false)
  else Operand.Const (Constant.Int 0L)

(* [simplify op] returns the operand the instruction reduces to, if any. *)
let simplify (op : Instr.op) : Operand.t option =
  match op with
  | Instr.Binop (Instr.Add, _, x, y) ->
    if is_zero y then Some x else if is_zero x then Some y else None
  | Instr.Binop (Instr.Sub, ty, x, y) ->
    if is_zero y then Some x
    else if Operand.equal x y && not (Operand.is_const (Operand.typed ty x))
    then Some (zero_of ty)
    else None
  | Instr.Binop (Instr.Mul, ty, x, y) ->
    if is_one y then Some x
    else if is_one x then Some y
    else if is_zero x || is_zero y then Some (zero_of ty)
    else None
  | Instr.Binop ((Instr.Sdiv | Instr.Udiv), _, x, y) ->
    if is_one y then Some x else None
  | Instr.Binop (Instr.And, ty, x, y) ->
    if is_zero x || is_zero y then Some (zero_of ty)
    else if Operand.equal x y then Some x
    else None
  | Instr.Binop (Instr.Or, _, x, y) ->
    if is_zero y then Some x
    else if is_zero x then Some y
    else if Operand.equal x y then Some x
    else None
  | Instr.Binop (Instr.Xor, ty, x, y) ->
    if is_zero y then Some x
    else if is_zero x then Some y
    else if Operand.equal x y then Some (zero_of ty)
    else None
  | Instr.Binop ((Instr.Shl | Instr.Lshr | Instr.Ashr), _, x, y) ->
    if is_zero y then Some x else None
  | Instr.Select (_, a, b) when Operand.equal a.Operand.v b.Operand.v ->
    Some a.Operand.v
  | Instr.Icmp (Instr.Ieq, _, x, y) when Operand.equal x y ->
    (* undef-free in our subset: x == x holds *)
    Some (Operand.Const (Constant.Bool true))
  | Instr.Icmp (Instr.Ine, _, x, y) when Operand.equal x y ->
    Some (Operand.Const (Constant.Bool false))
  | _ -> None

let pass = Pass.simplifier "instcombine" simplify
