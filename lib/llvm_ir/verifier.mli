(** Structural well-formedness checks: unique labels and definitions,
    defined uses dominated by their definitions (a phi's incoming value
    at the end of its predecessor; uses in unreachable blocks exempt),
    valid branch targets, phi/predecessor agreement, call
    arities against declarations, entry block without predecessors,
    integer types on integer arithmetic, compares, width casts and
    switches. *)

type violation = { where : string; what : string }

val pp_violation : Format.formatter -> violation -> unit

val check_func : Ir_module.t -> Func.t -> violation list
val check_module : Ir_module.t -> violation list

val verify_exn : Ir_module.t -> unit
(** Raises {!Ir_error.Verify_error} on the first violation. *)
