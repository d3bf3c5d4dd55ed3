(** The QIR symbol vocabulary: quantum instruction set (QIS) and runtime
    (RT) function names, as defined by the QIR specification, and the one
    table that decodes a callee name into the operation it performs.
    {!Signatures}, the runtime's externals and every analysis read that
    table, so emitting and decoding cannot disagree. *)

val qis : string -> string
(** [qis "h"] is ["__quantum__qis__h__body"]. *)

val qis_adj : string -> string
(** [qis_adj "s"] is ["__quantum__qis__s__adj"]. *)

(** {1 Names the emitters spell out}

    Consumers never compare a callee against these: they match on
    {!decode}. *)

val rt_qubit_allocate : string
val rt_qubit_allocate_array : string
val rt_qubit_release_array : string
val rt_array_create_1d : string
val rt_array_get_element_ptr_1d : string
val rt_result_record_output : string
val rt_array_record_output : string

val rt_read_result : string
(** The adaptive profile's result read, spelled as a QIS function
    ([__quantum__qis__read_result__body]). *)

val qis_mz : string
val qis_reset : string

(** {1 Classification} *)

val is_qis : string -> bool
val is_rt : string -> bool
val is_quantum : string -> bool

(** {1 Decoded calls} *)

type call =
  | Gate of { shape : Qcircuit.Gate.t; doubles : int; qubits : int }
      (** a unitary: [shape] carries 0.0 for its angle, the call passes
          [doubles] angles first and then [qubits] qubits *)
  | Mz
  | M
  | Reset
  | Read_result
  | Qubit_allocate
  | Qubit_allocate_array
  | Qubit_release
  | Qubit_release_array
  | Array_create_1d
  | Array_get_element_ptr_1d
  | Array_get_size_1d
  | Array_update_reference_count
  | Result_get_one
  | Result_get_zero
  | Result_equal
  | Result_update_reference_count
  | Result_record_output
  | Array_record_output
  | Initialize
  | Message
  | Fail
  | Unknown  (** any other name, quantum-prefixed or not *)

val symbols : (string * call) list
(** Every known QIS/RT function and its decoding, in declaration order. *)

val decode : string -> call
(** One table lookup; exactly the names in {!symbols} decode to something
    other than [Unknown]. *)

val instantiate : Qcircuit.Gate.t -> float list -> Qcircuit.Gate.t
(** [instantiate shape angles] fills a gate shape's angles; raises
    [Invalid_argument] when their number does not match. *)

val split_gate_args : int -> 'a list -> 'a list * 'a list
(** [split_gate_args doubles args] is a gate call's arguments split into
    its angles and its qubits. *)

(** {1 Gate emission} *)

val qis_of_gate : Qcircuit.Gate.t -> (string * float list) option
(** The QIS symbol and leading double parameters for a gate in the QIR
    base gate set, read from {!symbols}; [None] for gates that
    {!Qir_gateset.legalize} must decompose first (and for [I], which
    emits nothing). *)

(** {1 Address map}

    How the runtime reads a qubit pointer: addresses below
    {!dynamic_base} are static qubits (qubit index = address); dynamic
    allocations are numbered from {!dynamic_base} up. *)

val dynamic_base : int64

val max_static_qubit : int
(** The static qubit indices a gate tape may commit a simulator to:
    [0 .. max_static_qubit - 1]. *)

val declared_qubits : Llvm_ir.Func.t -> int
(** The function's ["required_num_qubits"] attribute, trimmed; 0 when it
    is absent, malformed or negative. The one reader of the attribute:
    the runtime's initial register, admission, the resource certificate
    and the circuit parser all size from it. *)
