(** Textual LLVM assembly output (modern opaque-pointer syntax).
    [parse_module (module_to_string m)] reproduces [m] up to formatting:
    print-parse-print is a fixed point (tested). *)

val pp_instr : Format.formatter -> Instr.t -> unit
val pp_term : Format.formatter -> Instr.term -> unit
val pp_block : Format.formatter -> Block.t -> unit
val pp_module : Format.formatter -> Ir_module.t -> unit
val instr_to_string : Instr.t -> string
val module_to_string : Ir_module.t -> string
