(** Algebraic peephole simplifications (the "instcombine" slice of
    classical optimization): identities like x+0, x*1, x*0, x^x,
    x/1, shifts by zero, trivial selects and reflexive comparisons. *)

open Llvm_ir

val simplify : Instr.op -> Operand.t option
(** The operand the instruction reduces to, when an identity applies. *)

val pass : Pass.func_pass
