(** Circuit -> QIR generation, in the two addressing styles of the paper:

    - [`Static]: qubits and results are constant [inttoptr] addresses
      (Ex. 6) — the form the base profile requires;
    - [`Dynamic]: qubits live in runtime-allocated arrays accessed through
      [__quantum__rt__*] calls, reproducing Fig. 1 (right).

    Circuits without classical conditions produce a single straight-line
    entry function (base profile); conditioned operations produce
    read_result / icmp / br control flow (adaptive profile). The entry
    point carries the [entry_point], [qir_profiles],
    [required_num_qubits] and [required_num_results] attributes.

    Results are allocated one per measurement operation, in program
    order; a condition reads the latest result measured into each of its
    classical bits. *)

type addressing = [ `Dynamic | `Static ]

exception Unsupported of string
(** Raised by {!build} for a circuit with no QIR form here: a condition
    that reads a classical bit before any measurement has written it. *)

val profile_name : Qcircuit.Circuit.t -> string
(** ["base_profile"] or ["adaptive_profile"], by presence of conditions. *)

val build :
  ?addressing:addressing ->
  ?record_output:bool ->
  ?entry_name:string ->
  Qcircuit.Circuit.t ->
  Llvm_ir.Ir_module.t
(** Builds a verifier-clean module (gates are legalized first). Defaults:
    static addressing, output recording on, entry point [@main]. *)

val to_string :
  ?addressing:addressing ->
  ?record_output:bool ->
  ?entry_name:string ->
  Qcircuit.Circuit.t ->
  string
(** [build] followed by printing. *)
