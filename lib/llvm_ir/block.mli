(** A basic block: a label, straight-line instructions and a single
    terminator. Phi nodes, when present, must lead the block (checked by
    {!Verifier}). *)

type t = { label : string; instrs : Instr.t list; term : Instr.term }

val mk : string -> Instr.t list -> Instr.term -> t
val non_phis : t -> Instr.t list
val successors : t -> string list
