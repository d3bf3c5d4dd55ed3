(** Substitution of SSA values — replace uses of named locals by operands
    throughout blocks or functions; the workhorse behind constant
    propagation, mem2reg renaming and the inliner. *)

module SMap : Map.S with type key = string

val operand : Operand.t SMap.t -> Operand.t -> Operand.t
val instr : Operand.t SMap.t -> Instr.t -> Instr.t
val term : Operand.t SMap.t -> Instr.term -> Instr.term
val block : Operand.t SMap.t -> Block.t -> Block.t
val func : Operand.t SMap.t -> Func.t -> Func.t

val rename_phi_labels : (string -> string) -> Block.t -> Block.t
(** Rewrites the incoming-edge labels of the block's phi nodes. *)
