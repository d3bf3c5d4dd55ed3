(* The QIR symbol vocabulary: quantum instruction set (QIS) functions and
   runtime (RT) functions, as named by the QIR specification. *)

open Qcircuit

let qis_prefix = "__quantum__qis__"
let rt_prefix = "__quantum__rt__"

let qis name = qis_prefix ^ name ^ "__body"
let qis_adj name = qis_prefix ^ name ^ "__adj"

(* Runtime functions used by this toolchain. *)
let rt_qubit_allocate = rt_prefix ^ "qubit_allocate"
let rt_qubit_allocate_array = rt_prefix ^ "qubit_allocate_array"
let rt_qubit_release = rt_prefix ^ "qubit_release"
let rt_qubit_release_array = rt_prefix ^ "qubit_release_array"
let rt_array_create_1d = rt_prefix ^ "array_create_1d"
let rt_array_get_element_ptr_1d = rt_prefix ^ "array_get_element_ptr_1d"
let rt_array_get_size_1d = rt_prefix ^ "array_get_size_1d"
let rt_array_update_reference_count = rt_prefix ^ "array_update_reference_count"
let rt_result_get_one = rt_prefix ^ "result_get_one"
let rt_result_get_zero = rt_prefix ^ "result_get_zero"
let rt_result_equal = rt_prefix ^ "result_equal"
let rt_result_update_reference_count = rt_prefix ^ "result_update_reference_count"
let rt_read_result = qis_prefix ^ "read_result__body"
(* the adaptive profile reads results through a qis function *)

let rt_result_record_output = rt_prefix ^ "result_record_output"
let rt_array_record_output = rt_prefix ^ "array_record_output"
let rt_initialize = rt_prefix ^ "initialize"
let rt_message = rt_prefix ^ "message"
let rt_fail = rt_prefix ^ "fail"

let qis_mz = qis "mz"
let qis_m = qis "m"
let qis_reset = qis "reset"

let is_qis name =
  String.length name > String.length qis_prefix && String.starts_with ~prefix:qis_prefix name

let is_rt name =
  String.length name > String.length rt_prefix && String.starts_with ~prefix:rt_prefix name
let is_quantum name = is_qis name || is_rt name

(* ------------------------------------------------------------------ *)
(* Gate <-> QIS name                                                    *)

(* The gates the QIR base gate set supports directly; everything else is
   legalized by {!Qir_gateset} first. [qis_of_gate] returns the symbol and
   the double parameters that precede the qubit arguments. *)
let qis_of_gate (g : Gate.t) : (string * float list) option =
  match g with
  | Gate.I -> None (* emitted as nothing *)
  | Gate.H -> Some (qis "h", [])
  | Gate.X -> Some (qis "x", [])
  | Gate.Y -> Some (qis "y", [])
  | Gate.Z -> Some (qis "z", [])
  | Gate.S -> Some (qis "s", [])
  | Gate.Sdg -> Some (qis_adj "s", [])
  | Gate.T -> Some (qis "t", [])
  | Gate.Tdg -> Some (qis_adj "t", [])
  | Gate.Rx t -> Some (qis "rx", [ t ])
  | Gate.Ry t -> Some (qis "ry", [ t ])
  | Gate.Rz t -> Some (qis "rz", [ t ])
  | Gate.Cx -> Some (qis "cnot", [])
  | Gate.Cz -> Some (qis "cz", [])
  | Gate.Swap -> Some (qis "swap", [])
  | Gate.Ccx -> Some (qis "ccx", [])
  | Gate.Sx | Gate.Sxdg | Gate.P _ | Gate.U _ | Gate.Cy | Gate.Ch | Gate.Crx _
  | Gate.Cry _ | Gate.Crz _ | Gate.Cp _ | Gate.Cu _ | Gate.Cswap ->
    None

(* Inverse mapping for the parser; accepts both our spellings and common
   alternates (cnot/cx, ccx/ccnot/toffoli). *)
let gate_of_qis name (params : float list) : Gate.t option =
  let base =
    if is_qis name then
      let rest = String.sub name 16 (String.length name - 16) in
      match String.rindex_opt rest '_' with
      | Some _ when Filename.check_suffix rest "__body" ->
        Some (String.sub rest 0 (String.length rest - 6), false)
      | Some _ when Filename.check_suffix rest "__adj" ->
        Some (String.sub rest 0 (String.length rest - 5), true)
      | _ -> None
    else None
  in
  match base with
  | None -> None
  | Some (op, adj) -> (
    let g =
      match op, params with
      | "h", [] -> Some Gate.H
      | "x", [] -> Some Gate.X
      | "y", [] -> Some Gate.Y
      | "z", [] -> Some Gate.Z
      | "s", [] -> Some Gate.S
      | "t", [] -> Some Gate.T
      | "sx", [] -> Some Gate.Sx
      | "rx", [ t ] -> Some (Gate.Rx t)
      | "ry", [ t ] -> Some (Gate.Ry t)
      | "rz", [ t ] -> Some (Gate.Rz t)
      | ("cnot" | "cx"), [] -> Some Gate.Cx
      | "cy", [] -> Some Gate.Cy
      | "cz", [] -> Some Gate.Cz
      | "swap", [] -> Some Gate.Swap
      | ("ccx" | "ccnot" | "toffoli"), [] -> Some Gate.Ccx
      | _ -> None
    in
    match g with
    | Some g when adj -> Some (Gate.inverse g)
    | g -> g)
