(* An operand is either a constant or a reference to a local SSA value.
   [typed] pairs an operand with the type it is used at, mirroring the
   LLVM textual form where every use site spells out the type. *)

type t =
  | Const of Constant.t
  | Local of string (* %name, without the sigil *)

type typed = { ty : Ty.t; v : t }

let typed ty v = { ty; v }
let const ty c = { ty; v = Const c }
let local ty name = { ty; v = Local name }
let i64 n = const Ty.I64 (Constant.Int n)
let i32 n = const Ty.I32 (Constant.Int n)
let i1 b = const Ty.I1 (Constant.Bool b)
let double f = const Ty.Double (Constant.Float f)
let null = const Ty.Ptr Constant.Null
let qubit_ptr id = if id = 0L then null else const Ty.Ptr (Constant.Inttoptr id)

let equal a b =
  match a, b with
  | Const x, Const y -> Constant.equal x y
  | Local x, Local y -> String.equal x y
  | (Const _ | Local _), _ -> false

let is_const { v; _ } =
  match v with
  | Const _ -> true
  | Local _ -> false

let pp ppf = function
  | Const c -> Constant.pp ppf c
  | Local name -> Format.fprintf ppf "%%%s" name

let pp_typed ppf { ty; v } = Format.fprintf ppf "%a %a" Ty.pp ty pp v
let to_string o = Format.asprintf "%a" pp o
