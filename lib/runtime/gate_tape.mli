(** The gate-tape fast path: when {!Passes.Sccp},
    {!Qir_analysis.Lifetime} and call-graph reachability prove the entry
    point is straight-line quantum code on constant addresses — no
    classical control flow, no dynamic allocation, no classical
    feedback — the gate sequence is extracted once and replayed per shot
    directly against the backend, skipping instruction dispatch.

    [extract] returns [Some tape] only when replay performs exactly the
    backend call sequence (ensure/apply/measure/reset order included)
    that per-shot interpretation would, so histograms are bit-identical
    for the same seeds. Everything else returns [None] and falls back to
    interpretation. *)

type op =
  | Gate of Qcircuit.Gate.t * int array
  | Measure of int * int64  (** qubit, result address *)
  | Reset of int
  | Record of int64  (** result address, appended to the output key *)

type t = { ops : op array; records : int }

val length : t -> int

val qubits : t -> int
(** One past the highest qubit index the tape touches — the exact
    register requirement of the proved-static program, used by the
    service tier's admission control to size statevector footprints. *)

val extract : Llvm_ir.Ir_module.t -> t option

val replay : t -> Qsim.Backend.instance -> string
(** Runs one shot against a fresh backend instance and returns the shot
    key: the recorded output when the tape records, else all measured
    results in address order — exactly {!Executor.shot_key}'s shape. *)
