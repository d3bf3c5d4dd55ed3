(** The pass framework: a pass transforms one function (or module) and
    reports whether it changed anything. *)

open Llvm_ir

type func_pass = {
  name : string;
  run : Ir_module.t -> Func.t -> Func.t * bool;
      (** receives the module for context (e.g. callee lookup) *)
}

type module_pass = { mname : string; mrun : Ir_module.t -> Ir_module.t * bool }

val simplifier : string -> (Instr.op -> Operand.t option) -> func_pass
(** [simplifier name simplify]: the pass that drops every instruction
    [simplify] reduces to an operand and substitutes that operand for its
    uses, round after round until nothing reduces. *)

val of_func_pass : func_pass -> module_pass
(** Applies the pass to every defined function. *)

val run_until_fixpoint :
  ?max_rounds:int -> module_pass list -> Ir_module.t -> Ir_module.t
(** Repeats the whole sequence until a round changes nothing (or
    [max_rounds], default 8). *)

val run_once : module_pass list -> Ir_module.t -> Ir_module.t
