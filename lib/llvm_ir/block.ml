(* A basic block: a label, a straight-line list of instructions and a
   single terminator. Phi nodes, when present, must be the leading
   instructions of the block (checked by {!Verifier}). *)

type t = { label : string; instrs : Instr.t list; term : Instr.term }

let mk label instrs term = { label; instrs; term }

let non_phis block =
  List.filter
    (fun i ->
      match i.Instr.op with
      | Instr.Phi _ -> false
      | _ -> true)
    block.instrs

let successors block = Instr.successors block.term
