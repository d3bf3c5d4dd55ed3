(** Preset pass pipelines. *)

open Llvm_ir

val standard : Pass.module_pass list
(** SSA construction plus the classical scalar optimizations the paper
    names in Sec. II-B (mem2reg, SCCP, CFG simplification, DCE). *)

val lowering : Pass.module_pass list
(** The adaptive-to-base flattening pipeline (Sec. III-B / Ex. 4):
    inline, mem2reg, SCCP, full unrolling, folding, DCE, CFG cleanup. *)

val optimize : ?max_rounds:int -> Ir_module.t -> Ir_module.t
val lower : ?max_rounds:int -> Ir_module.t -> Ir_module.t
