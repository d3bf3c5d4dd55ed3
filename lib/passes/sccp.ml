(* The one constant solver: sparse conditional constant propagation
   (Wegman-Zadeck) on the {!Llvm_ir.Dataflow} engine. Each SSA name moves
   up Unknown < Cst c < Varying; Unknown is the engine's bottom, so facts
   only harden as edges become feasible. The terminator transfer drops
   successors whose branch condition folds and binds each feasible
   successor's phis on that edge, so a phi meets only executable edges.
   The pass substitutes every proved constant; {!Qir_analysis.Const_addr}
   reads the same solution for its address proofs. *)

open Llvm_ir
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type lattice = Unknown | Cst of Constant.t | Varying

let join a b =
  match a, b with
  | Unknown, x | x, Unknown -> x
  | Varying, _ | _, Varying -> Varying
  | Cst c1, Cst c2 -> if Constant.equal c1 c2 then Cst c1 else Varying

let equal a b =
  match a, b with
  | Unknown, Unknown | Varying, Varying -> true
  | Cst c1, Cst c2 -> Constant.equal c1 c2
  | (Unknown | Cst _ | Varying), _ -> false

(* bindings are only ever Cst or Varying; absent = Unknown. A block
   that defines nothing passes its in-fact on as is, so the two facts
   meeting at an if-then join are often one map: both operations answer
   that case without walking it. *)
module Fact = struct
  type t = lattice SMap.t

  let bottom = SMap.empty
  let equal a b = a == b || SMap.equal equal a b
  let join a b =
    if a == b then a else SMap.union (fun _ x y -> Some (join x y)) a b
end

module Engine = Dataflow.Forward (Fact)

let value fact id = Option.value ~default:Unknown (SMap.find_opt id fact)

let operand_lattice fact (o : Operand.t) =
  match o with
  | Operand.Const c -> Cst c
  | Operand.Local id -> value fact id

let set fact id lat =
  match lat with Unknown -> SMap.remove id fact | _ -> SMap.add id lat fact

(* The address [Bc_exec] computes: the base plus [Interp.gep_offset] cells
   of [Interp.cell_size] bytes, each local index read back as its
   sign-extended runtime value. Every operand is a [Cst] here. *)
let gep_address fact ty base idxs =
  let index (i : Operand.typed) =
    match i.Operand.v, operand_lattice fact i.Operand.v with
    | Operand.Local _, Cst c -> (
      match Const_fold.value_of_const i.Operand.ty c with
      | Some v ->
        Operand.const i.Operand.ty (Constant.Int (Interp.as_signed v))
      | None -> raise Exit)
    | _ -> i
  in
  match operand_lattice fact base with
  | Cst c -> (
    match Const_fold.value_of_const Ty.Ptr c with
    | Some (Interp.VPtr b) -> (
      match Interp.gep_offset ty (List.map index idxs) with
      | off ->
        let bytes = Int64.mul (Int64.of_int off) Interp.cell_size in
        Cst (Constant.Inttoptr (Int64.add b bytes))
      | exception (Exit | Ir_error.Exec_error _ | Invalid_argument _) ->
        Varying)
    | _ -> Varying)
  | _ -> Varying

(* Evaluate one non-phi instruction over the fact. *)
let eval fact (op : Instr.op) : lattice =
  match op with
  | Instr.Call _ | Instr.Load _ | Instr.Alloca _ | Instr.Store _ -> Varying
  | Instr.Phi _ -> assert false
  | Instr.Freeze v -> operand_lattice fact v.Operand.v
  | Instr.Select (c, a, b) -> (
    match operand_lattice fact c with
    | Cst cc -> (
      match Const_fold.bool_of_const cc with
      | Some taken -> operand_lattice fact (if taken then a else b).Operand.v
      | None -> Varying)
    | Unknown -> Unknown
    | Varying ->
      join
        (operand_lattice fact a.Operand.v)
        (operand_lattice fact b.Operand.v))
  | _ -> (
    let lats =
      List.map
        (fun (o : Operand.typed) -> operand_lattice fact o.Operand.v)
        (Instr.operands op)
    in
    if List.exists (function Unknown -> true | _ -> false) lats then Unknown
    else if List.exists (function Varying -> true | _ -> false) lats then
      Varying
    else
      match op with
      | Instr.Gep (ty, base, idxs) -> gep_address fact ty base idxs
      | _ -> (
        let subst o =
          match operand_lattice fact o with Cst c -> Operand.Const c | _ -> o
        in
        match Const_fold.fold_instr (Instr.map_operands subst op) with
        | Some c -> Cst c
        | None -> Varying))

(* Phis were bound on the incoming edge by [transfer_term]. *)
let transfer_instr _label (i : Instr.t) fact =
  match i.Instr.id, i.Instr.op with
  | None, _ | _, Instr.Phi _ -> fact
  | Some id, op -> set fact id (eval fact op)

(* Successors the terminator can take under the fact; none while the
   condition is still Unknown. *)
let feasible fact (t : Instr.term) =
  let on (v : Operand.t) read pick =
    match operand_lattice fact v with
    | Unknown -> []
    | Cst c -> (
      match read c with
      | Some n -> [ pick n ]
      | None -> Instr.successors t)
    | Varying -> Instr.successors t
  in
  match t with
  | Instr.Cond_br (c, th, el) ->
    on c Const_fold.bool_of_const (fun taken -> if taken then th else el)
  | Instr.Switch (v, d, cases) ->
    let ty = v.Operand.ty in
    on v.Operand.v (Const_fold.value_of_const ty) (fun n ->
        Interp.switch_target n d (Interp.switch_cases ty cases))
  | Instr.Ret _ | Instr.Unreachable | Instr.Br _ -> Instr.successors t

(* Each feasible edge carries the predecessor's fact with the successor's
   phis bound to their incoming values on this edge (joined, should the
   predecessor be listed twice), read as one parallel copy. *)
let transfer_term phis label t fact =
  List.map
    (fun succ ->
      let incoming_lat lat (v, l) =
        if String.equal l label then join lat (operand_lattice fact v) else lat
      in
      let bind acc (id, incoming) =
        set acc id (List.fold_left incoming_lat Unknown incoming)
      in
      let ps = Option.value ~default:[] (SMap.find_opt succ phis) in
      (succ, List.fold_left bind fact ps))
    (feasible fact t)

(* Only constants and the rare names still Unknown are kept: any other
   name is Varying. *)
type solution = {
  consts : Constant.t SMap.t;
  unknown : SSet.t;
  res : Engine.result option;
}

let record sol id = function
  | Cst c -> { sol with consts = SMap.add id c sol.consts }
  | Unknown -> { sol with unknown = SSet.add id sol.unknown }
  | Varying -> sol

let solves = Atomic.make 0

let solve ?(params = [||]) (f : Func.t) : solution =
  let none = { consts = SMap.empty; unknown = SSet.empty; res = None } in
  if Func.is_declaration f then none
  else begin
    Atomic.incr solves;
    let seed i = if i < Array.length params then params.(i) else Varying in
    let seeds =
      List.mapi (fun i (p : Func.param) -> (p.Func.pname, seed i)) f.Func.params
    in
    let init =
      List.fold_left (fun fact (id, lat) -> set fact id lat) Fact.bottom seeds
    in
    let phi (i : Instr.t) =
      match i.Instr.id, i.Instr.op with
      | Some id, Instr.Phi (_, incoming) -> Some (id, incoming)
      | _ -> None
    in
    let phis =
      List.fold_left
        (fun acc (b : Block.t) ->
          SMap.add b.Block.label (List.filter_map phi b.Block.instrs) acc)
        SMap.empty f.Func.blocks
    in
    (* a block's last visit sees its final in-fact, so the value each
       definition had at its last evaluation is its solution *)
    let latest = Hashtbl.create 64 in
    let instr label (i : Instr.t) fact =
      let fact = transfer_instr label i fact in
      Option.iter
        (fun id -> Hashtbl.replace latest id (value fact id))
        i.Instr.id;
      fact
    in
    let tf = { Engine.instr; term = transfer_term phis } in
    let res = Engine.solve ~init (Cfg.of_func f) tf in
    let sol = List.fold_left (fun sol (id, l) -> record sol id l) none seeds in
    let sol = Hashtbl.fold (fun id l sol -> record sol id l) latest sol in
    { sol with res = Some res }
  end

let lattice_of (sol : solution) (o : Operand.t) =
  match o with
  | Operand.Const c -> Cst c
  | Operand.Local id -> (
    match SMap.find_opt id sol.consts with
    | Some c -> Cst c
    | None -> if SSet.mem id sol.unknown then Unknown else Varying)

let const_of (sol : solution) id = SMap.find_opt id sol.consts
let reached (sol : solution) label =
  match sol.res with Some res -> Engine.reached res label | None -> false

(* The pass: substitute constants, drop folded instructions, fold
   branches whose condition is now constant. *)
let run (_m : Ir_module.t) (f : Func.t) : Func.t * bool =
  let const_ids = SMap.map (fun c -> Operand.Const c) (solve f).consts in
  if SMap.is_empty const_ids then (f, false)
  else begin
    let resolve (o : Operand.t) =
      match o with
      | Operand.Local id -> (
        match SMap.find_opt id const_ids with
        | Some v -> v
        | None -> o)
      | Operand.Const _ -> o
    in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          let instrs =
            List.filter_map
              (fun (i : Instr.t) ->
                match i.Instr.id with
                | Some id
                  when SMap.mem id const_ids
                       && not (Instr.has_side_effect i.Instr.op) ->
                  None
                | _ ->
                  Some
                    { i with Instr.op = Instr.map_operands resolve i.Instr.op })
              b.Block.instrs
          in
          let term = Instr.map_term_operands resolve b.Block.term in
          Block.mk b.Block.label instrs term)
        f.Func.blocks
    in
    (Func.replace_blocks f blocks, true)
  end

let pass = { Pass.name = "sccp"; run }
