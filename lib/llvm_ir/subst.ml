(* Substitution of SSA values: replace uses of named locals by operands
   throughout a function or a set of blocks. The workhorse behind constant
   propagation, mem2reg renaming and the inliner. *)

module SMap = Map.Make (String)

let operand map (v : Operand.t) =
  match v with
  | Operand.Local name -> (
    match SMap.find_opt name map with
    | Some replacement -> replacement
    | None -> v)
  | Operand.Const _ -> v

let instr map (i : Instr.t) =
  { i with Instr.op = Instr.map_operands (operand map) i.Instr.op }

let term map t = Instr.map_term_operands (operand map) t

let block map (b : Block.t) =
  {
    b with
    Block.instrs = List.map (instr map) b.Block.instrs;
    Block.term = term map b.Block.term;
  }

let func map (f : Func.t) =
  if SMap.is_empty map then f
  else Func.replace_blocks f (List.map (block map) f.Func.blocks)

(* Rewrites phi-incoming labels: [rename old new] applied to every block.
   Used when blocks are merged or cloned. *)
let rename_phi_labels rename (b : Block.t) =
  let fix (i : Instr.t) =
    match i.Instr.op with
    | Instr.Phi (ty, incoming) ->
      { i with Instr.op = Instr.Phi (ty, List.map (fun (v, l) -> (v, rename l)) incoming) }
    | _ -> i
  in
  { b with Block.instrs = List.map fix b.Block.instrs }
