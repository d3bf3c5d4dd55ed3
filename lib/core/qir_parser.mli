(** QIR -> circuit parsing by abstract interpretation of the entry
    function — the algorithm of the paper's Ex. 3: track variable
    assignments to infer the qubit passed to each quantum instruction,
    matching instructions by pattern.

    Supported shapes: base profile with static (Ex. 6) or dynamic
    (Fig. 1) addressing, and the adaptive read_result / compare / branch
    pattern emitted by {!Qir_builder} (forward branches only). Anything
    else — loops, unknown calls, general classical memory traffic — is
    rejected with a diagnostic suggesting {!Lowering} first.

    Clbit convention: the parsed circuit has one classical bit per QIR
    result id, in allocation order. *)

exception Unsupported of string

val parse : Llvm_ir.Ir_module.t -> Qcircuit.Circuit.t
(** Raises {!Unsupported}. *)

val parse_result : Llvm_ir.Ir_module.t -> (Qcircuit.Circuit.t, string) result

val parse_with_output :
  Llvm_ir.Ir_module.t -> (Qcircuit.Circuit.t * int list, string) result
(** Like {!parse_result}, additionally returning the result ids passed
    to [__quantum__rt__result_record_output], in call order (empty when
    the program records nothing). The program's output bitstring reads
    those results in that order, which need not match result-id order. *)

val remap_output_order :
  Qcircuit.Circuit.t -> int list -> Qcircuit.Circuit.t option
(** [remap_output_order c recorded] renumbers [c]'s clbits so the
    results [recorded] names ({!parse_with_output}'s list) are clbits
    [0 ..] in record order, the measured but unrecorded ones after
    them; [None] when a result is recorded twice or never measured. *)

val in_recorded_order : Qcircuit.Circuit.t -> int list -> Qcircuit.Circuit.t
(** [in_recorded_order c recorded]: [c] renumbered by
    {!remap_output_order}, so its clbits read what the program records;
    [c] itself when [recorded] is empty. Raises {!Unsupported} when the
    circuit form cannot keep that output. *)

val parse_recorded : Llvm_ir.Ir_module.t -> Qcircuit.Circuit.t
(** {!parse_with_output} then {!in_recorded_order}: the circuit whose
    clbits read the program's recorded output. What printers of the
    circuit form (OpenQASM, the circuit text) print. Raises
    {!Unsupported}. *)

val parse_string : string -> Qcircuit.Circuit.t
(** Parses textual QIR end to end (LLVM text -> module -> circuit). *)
