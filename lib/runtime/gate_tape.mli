(** The gate-tape fast path: when {!Passes.Sccp}, {!Qir_analysis.Value_track},
    {!Qir_analysis.Lifetime} and call-graph reachability prove the entry
    point is straight-line quantum code whose every qubit and result
    operand resolves — a constant address, or a qubit or array element
    the runtime's allocator hands out at a point the walk replays — the
    gate sequence is extracted once and replayed per shot directly
    against the backend, skipping instruction dispatch. Dynamically
    addressed entries run as written: the walk numbers a fresh qubit at
    the register's current size, as {!Runtime} does.

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
  | Grow of int  (** an allocation: the register grows to this size *)

type t = { ops : op array; records : int; qubits : int }

val length : t -> int

val qubits : t -> int
(** The register size at the end of a shot, allocated qubits no gate
    touches included — the exact register requirement, used by the
    service tier's admission control to size statevector footprints. *)

val extract : Qir_analysis.Analyses.t -> t option
(** The tape of the record's module, reading its solves; a caller that
    also certifies the module ({!Qir_analysis.Resource.certify}) passes
    the same record so both share one set of solves. *)

val replay : t -> Qsim.Backend.instance -> string
(** Runs one shot against a fresh backend instance of
    {!Runtime.initial_qubits} qubits and returns the shot
    key: the recorded output when the tape records, else all measured
    results in address order — exactly {!Executor.shot_key}'s shape. *)
