(** The QIR runtime (the paper's Ex. 5): implementations of the
    [__quantum__qis__*] / [__quantum__rt__*] functions over a simulator
    backend, packaged as an external-call table for
    {!Llvm_ir.Interp} — the Catalyst/Lightning architecture with the
    interpreter standing in for [lli].

    Address model: static qubit/result addresses are small integers
    (Ex. 6) and map to simulator qubits 1:1, growing the register on
    demand (the Sec. IV-A "allocate on the fly" strategy); dynamically
    allocated qubits (from {!Names.dynamic_base} up) and runtime arrays
    live in dedicated high address ranges. *)

exception Runtime_error of string

type stats = {
  mutable gate_calls : int;
  mutable measurements : int;
  mutable resets : int;
  mutable rt_calls : int;
}

type t = private {
  ops : backend_ops;
  qubit_of_addr : (int64, int) Hashtbl.t;
  arrays : (int64, array_info) Hashtbl.t;
  results : (int64, bool) Hashtbl.t;  (** measured outcome per result *)
  output : Buffer.t;
  mutable next_dynamic : int64;
  mutable next_array : int64;
  stats : stats;
}

and backend_ops = {
  backend_name : string;
  apply : Qcircuit.Gate.t -> int list -> unit;
  bmeasure : int -> bool;
  breset : int -> unit;
  ensure : int -> unit;
  bnum_qubits : unit -> int;
}

and array_info = {
  elem_base : int64;
  count : int;
  qubit_base : int option;  (** [Some base] for qubit arrays *)
}

val create : Qsim.Backend.instance -> t
val stats : t -> stats

val recorded_output : t -> string
(** The bitstring accumulated by [__quantum__rt__result_record_output]. *)

val externals :
  t -> (string * (Llvm_ir.Interp.value list -> Llvm_ir.Interp.value)) list
(** The full QIS/RT external-function table, ready for
    {!Llvm_ir.Interp.create}. *)

(** {1 Allocator arithmetic} *)

val array_base : int64
(** The handle of the first runtime array. *)

val array_elem : int64 -> int -> int64
(** [array_elem handle i]: the address of element [i] of the array at
    [handle]; the array allocated next starts at [array_elem handle count]. *)

val addressing : Llvm_ir.Ir_module.t -> bool * bool
(** [(dynamic, static)]: does some defined function allocate qubits, and
    does some quantum call name a qubit by a constant address? *)

val initial_qubits : Llvm_ir.Ir_module.t -> int
(** The register a shot starts from: 0 when the program allocates its
    qubits at run time and names none by a constant address (the
    allocations build the register), else the entry point's
    {!Names.declared_qubits}. *)
