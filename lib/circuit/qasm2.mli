(** OpenQASM 2.0 front- and back-end (the paper's Sec. II-A, Fig. 1 left).

    The parser supports the full language: register declarations, the
    built-in [U]/[CX] gates, the qelib1 standard library (implemented
    natively), user [gate] definitions (expanded as macros with parameter
    substitution), [opaque] declarations, whole-register broadcasting,
    [measure]/[reset], [barrier] and [if (creg == n)] conditions. *)

exception Error of int * string
(** Parse error with its source line. *)

exception Unsupported of string
(** A circuit OpenQASM 2 cannot express. *)

val builtin : string -> float list -> Gate.t option
(** [builtin name params] resolves a built-in / qelib1 gate name applied
    to evaluated parameters. Exposed for reuse by the OpenQASM 3 subset
    parser. *)

val parse : string -> Circuit.t
(** Parses an OpenQASM 2.0 program. Raises {!Error}. *)

val parse_result : string -> (Circuit.t, string) result

val to_string : Circuit.t -> string
(** Prints a circuit as OpenQASM 2.0. Gates outside qelib1 get a
    definition in the prologue. OpenQASM 2 conditions read a whole
    register, so a condition on consecutive bits of one register (a
    single bit, say) splits that register into pieces declared in
    order, which keeps every bit's flat index. Raises {!Unsupported}
    when a condition's bits are not such a run, or when two runs
    overlap without coinciding. *)

(**/**)

(* Shared with the OpenQASM 3 printer. *)
val ref_in : Circuit.register list -> int -> string
val creg_covering : Circuit.register list -> int list -> Circuit.register option
val pp_angle : Format.formatter -> float -> unit
