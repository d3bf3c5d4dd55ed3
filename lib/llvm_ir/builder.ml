(* Imperative construction of functions, in the style of LLVM's IRBuilder:
   a builder owns a function under construction and an insertion point
   (the current block); finished blocks accumulate in order. *)

type t = {
  fname : string;
  ret_ty : Ty.t;
  params : Func.param list;
  attrs : (string * string) list;
  mutable counter : int;
  mutable blocks : Block.t list; (* finished, reversed *)
  mutable cur_label : string;
  mutable cur_instrs : Instr.t list; (* reversed *)
  mutable finished : bool;
}

let create ?(attrs = []) ~name ~ret_ty ~params () =
  {
    fname = name;
    ret_ty;
    params = List.map (fun (pty, pname) -> { Func.pty; pname }) params;
    attrs;
    counter = 0;
    blocks = [];
    cur_label = "entry";
    cur_instrs = [];
    finished = false;
  }

let fresh b =
  let name = string_of_int b.counter in
  b.counter <- b.counter + 1;
  name

let insert b op =
  b.cur_instrs <- Instr.mk op :: b.cur_instrs

(* Inserts an instruction producing a value; returns the local operand. *)
let insert_value b op =
  let id = fresh b in
  b.cur_instrs <- Instr.mk ~id op :: b.cur_instrs;
  let ty =
    match Instr.result_ty op with
    | Some ty -> ty
    | None -> invalid_arg "Builder.insert_value: instruction has no result"
  in
  Operand.local ty id

let terminate b term =
  b.blocks <- Block.mk b.cur_label (List.rev b.cur_instrs) term :: b.blocks;
  b.cur_instrs <- []

let start_block b label =
  b.cur_label <- label;
  b.cur_instrs <- []

(* Convenience wrappers *)

let alloca b ty = insert_value b (Instr.Alloca ty)
let load b ty ptr = insert_value b (Instr.Load (ty, ptr.Operand.v))
let store b v ptr = insert b (Instr.Store (v, ptr.Operand.v))

let call b ret_ty callee args =
  if Ty.equal ret_ty Ty.Void then begin
    insert b (Instr.Call (ret_ty, callee, args));
    None
  end
  else Some (insert_value b (Instr.Call (ret_ty, callee, args)))

let binop b op ty x y = insert_value b (Instr.Binop (op, ty, x.Operand.v, y.Operand.v))
let icmp b pred ty x y = insert_value b (Instr.Icmp (pred, ty, x.Operand.v, y.Operand.v))
let phi b ty incoming =
  insert_value b (Instr.Phi (ty, List.map (fun (v, l) -> (v.Operand.v, l)) incoming))

let ret b v = terminate b (Instr.Ret v)
let br b label = terminate b (Instr.Br label)
let cond_br b c t e = terminate b (Instr.Cond_br (c.Operand.v, t, e))

let finish b =
  if b.finished then invalid_arg "Builder.finish: already finished";
  if b.cur_instrs <> [] then
    invalid_arg "Builder.finish: current block is not terminated";
  b.finished <- true;
  Func.mk ~attrs:b.attrs b.fname b.ret_ty b.params (List.rev b.blocks)
