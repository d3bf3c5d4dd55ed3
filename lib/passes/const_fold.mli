(** Local constant folding: instructions with all-constant operands are
    evaluated at compile time and their uses rewritten; iterated to a
    fixed point per function. One of the classical optimizations the
    paper credits LLVM with (Sec. II-B). Every scalar instruction folds
    through the evaluator the engines execute ({!Interp.eval_binop} and
    its siblings), so a folded program computes what it computed before.
    Trapping divisions by a zero constant are never folded away. *)

open Llvm_ir

val value_of_const : Ty.t -> Constant.t -> Interp.value option
(** The value a constant has as an operand of that type, by
    {!Interp.eval_const}; [None] for [undef], a global (no address
    before execution) and what the evaluator refuses. *)

val bool_of_const : Constant.t -> bool option
(** Whether a constant [i1] condition holds: {!value_of_const} at [i1],
    so [i1 2] is false as it is when executed. *)

val fold_instr : Instr.op -> Constant.t option
(** The single-instruction folder (also reused by SCCP). *)

val pass : Pass.func_pass
