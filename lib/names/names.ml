(* The QIR symbol vocabulary: quantum instruction set (QIS) functions and
   runtime (RT) functions, as named by the QIR specification, and the one
   table that decodes a callee name into the operation it performs. *)

open Qcircuit

let qis_prefix = "__quantum__qis__"
let rt_prefix = "__quantum__rt__"

let qis name = qis_prefix ^ name ^ "__body"
let qis_adj name = qis_prefix ^ name ^ "__adj"
let rt name = rt_prefix ^ name

(* The names the emitters spell out; {!symbols} lists every one. *)
let rt_qubit_allocate = rt "qubit_allocate"
let rt_qubit_allocate_array = rt "qubit_allocate_array"
let rt_qubit_release_array = rt "qubit_release_array"
let rt_array_create_1d = rt "array_create_1d"
let rt_array_get_element_ptr_1d = rt "array_get_element_ptr_1d"
let rt_result_record_output = rt "result_record_output"
let rt_array_record_output = rt "array_record_output"
let rt_read_result = qis "read_result"
(* the adaptive profile reads results through a qis function *)

let qis_mz = qis "mz"
let qis_reset = qis "reset"

let is_qis name =
  String.length name > String.length qis_prefix && String.starts_with ~prefix:qis_prefix name

let is_rt name =
  String.length name > String.length rt_prefix && String.starts_with ~prefix:rt_prefix name
let is_quantum name = is_qis name || is_rt name

(* ------------------------------------------------------------------ *)
(* The decoded call table                                               *)

type call =
  | Gate of { shape : Gate.t; doubles : int; qubits : int }
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
  | Unknown

let gate shape =
  Gate
    { shape; doubles = List.length (Gate.params shape); qubits = Gate.num_qubits shape }

(* Every known function, in declaration order. Rotation shapes carry 0.0
   for their angle; {!instantiate} fills it in. *)
let symbols =
  [
    (qis "h", gate Gate.H);
    (qis "x", gate Gate.X);
    (qis "y", gate Gate.Y);
    (qis "z", gate Gate.Z);
    (qis "s", gate Gate.S);
    (qis_adj "s", gate Gate.Sdg);
    (qis "t", gate Gate.T);
    (qis_adj "t", gate Gate.Tdg);
    (qis "sx", gate Gate.Sx);
    (qis "rx", gate (Gate.Rx 0.0));
    (qis "ry", gate (Gate.Ry 0.0));
    (qis "rz", gate (Gate.Rz 0.0));
    (qis "cnot", gate Gate.Cx);
    (qis "cz", gate Gate.Cz);
    (qis "cy", gate Gate.Cy);
    (qis "swap", gate Gate.Swap);
    (qis "ccx", gate Gate.Ccx);
    (qis_mz, Mz);
    (qis "m", M);
    (qis_reset, Reset);
    (rt_read_result, Read_result);
    (rt_qubit_allocate, Qubit_allocate);
    (rt_qubit_allocate_array, Qubit_allocate_array);
    (rt "qubit_release", Qubit_release);
    (rt_qubit_release_array, Qubit_release_array);
    (rt_array_create_1d, Array_create_1d);
    (rt_array_get_element_ptr_1d, Array_get_element_ptr_1d);
    (rt "array_get_size_1d", Array_get_size_1d);
    (rt "array_update_reference_count", Array_update_reference_count);
    (rt "result_get_one", Result_get_one);
    (rt "result_get_zero", Result_get_zero);
    (rt "result_equal", Result_equal);
    (rt "result_update_reference_count", Result_update_reference_count);
    (rt_result_record_output, Result_record_output);
    (rt_array_record_output, Array_record_output);
    (rt "initialize", Initialize);
    (rt "message", Message);
    (rt "fail", Fail);
  ]

(* Built once and read only afterwards, so lookups from several domains
   share it. *)
let table : (string, call) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, call) -> Hashtbl.replace tbl name call) symbols;
  tbl

let decode name =
  match Hashtbl.find_opt table name with Some call -> call | None -> Unknown

let instantiate (shape : Gate.t) angles =
  match shape, angles with
  | Gate.Rx _, [ t ] -> Gate.Rx t
  | Gate.Ry _, [ t ] -> Gate.Ry t
  | Gate.Rz _, [ t ] -> Gate.Rz t
  | g, [] -> g
  | _ -> invalid_arg ("Names.instantiate: " ^ Gate.name shape)

let split_gate_args doubles args =
  if doubles = 0 then ([], args)
  else (List.filteri (fun k _ -> k < doubles) args, List.filteri (fun k _ -> k >= doubles) args)

(* Emission reads the same table backwards, keyed by the gate's name. *)
let symbol_of_gate : (string, string) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (function
      | name, Gate { shape; _ } -> Hashtbl.replace tbl (Gate.name shape) name
      | _ -> ())
    symbols;
  tbl

let qis_of_gate (g : Gate.t) : (string * float list) option =
  match g with
  | Gate.Sx | Gate.Cy -> None (* decoded, but legalized before emission *)
  | g ->
    Option.map (fun name -> (name, Gate.params g))
      (Hashtbl.find_opt symbol_of_gate (Gate.name g))

let dynamic_base = 0x2000_0000L
let max_static_qubit = 4096

let declared_qubits (f : Llvm_ir.Func.t) =
  match Llvm_ir.Func.attr f "required_num_qubits" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> n
    | _ -> 0)
  | None -> 0
