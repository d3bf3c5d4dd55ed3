(** Lowering across profiles (Sec. III-B / Ex. 4): flattening a QIR
    program that uses the full expressiveness of LLVM IR (helper
    functions, loops, classical computation) towards the base profile via
    the classical pass pipeline — inlining, mem2reg, constant
    propagation, full loop unrolling, DCE and CFG simplification. *)

type error =
  | Violations of Profile_check.violation list
      (** lowered, but still violating the target profile (e.g.
          measurement feedback can never reach the base profile) *)
  | Unsupported of string  (** circuit extraction failed *)

val pp_error : Format.formatter -> error -> unit

val lower_module : ?max_rounds:int -> Llvm_ir.Ir_module.t -> Llvm_ir.Ir_module.t
(** Runs the lowering pipeline; purely structural, always succeeds (it
    just may not reach the base profile). *)

val lower_to_profile :
  ?max_rounds:int ->
  Profile.t ->
  Llvm_ir.Ir_module.t ->
  (Llvm_ir.Ir_module.t, error) result

val lower_to_circuit :
  ?max_rounds:int ->
  Llvm_ir.Ir_module.t ->
  (Qcircuit.Circuit.t, error) result
(** Lower, then parse with {!Qir_parser.parse_recorded}: the circuit's
    clbits read the recorded output. *)

val lower_to_base :
  ?max_rounds:int ->
  Llvm_ir.Ir_module.t ->
  (Llvm_ir.Ir_module.t, error) result
(** All the way to a base-profile module with static addresses (via the
    circuit IR). *)
