(* The QIR runtime (the paper's Ex. 5): implementations of the
   [__quantum__qis__*] and [__quantum__rt__*] functions that mutate a
   simulator state, installed into the interpreter's external-call table.
   Each function "modifies the internal state of the simulator to reflect
   the application of the respective gate" — the Catalyst/Lightning
   architecture, with the interpreter standing in for [lli].

   Address model (matching {!Llvm_ir.Interp}'s value model):
   - static qubit/result addresses are small integers (Ex. 6);
   - dynamically allocated qubits get addresses from
     [Names.dynamic_base] up;
   - runtime arrays get handle and element addresses from [array_base] up;
   - the canonical one/zero Result constants live at dedicated addresses.

   Static addresses map to simulator qubits 1:1 and the register grows on
   demand — the "allocate qubits on the fly when it encounters a new
   qubit address" strategy discussed in Sec. IV-A. *)

open Llvm_ir
open Qcircuit

let array_base = 0x3000_0000L
let one_result_addr = 0x4000_0001L
let zero_result_addr = 0x4000_0002L

(* An array of [count] 8-byte cells at [handle]: element [i] lives at
   [array_elem handle i], and the next array starts at
   [array_elem handle count]. *)
let array_elem handle i = Int64.add handle (Int64.of_int (8 * (i + 1)))

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type backend_ops = {
  backend_name : string;
  apply : Gate.t -> int list -> unit;
  bmeasure : int -> bool;
  breset : int -> unit;
  ensure : int -> unit;
  bnum_qubits : unit -> int;
}

let ops_of_instance (inst : Qsim.Backend.instance) = {
  backend_name = Qsim.Backend.instance_name inst;
  apply = Qsim.Backend.instance_apply inst;
  bmeasure = Qsim.Backend.instance_measure inst;
  breset = Qsim.Backend.instance_reset inst;
  ensure = Qsim.Backend.instance_ensure inst;
  bnum_qubits = (fun () -> Qsim.Backend.instance_num_qubits inst);
}

type array_info = {
  elem_base : int64; (* first element address *)
  count : int;
  qubit_base : int option; (* Some base for qubit arrays *)
}

type stats = {
  mutable gate_calls : int;
  mutable measurements : int;
  mutable resets : int;
  mutable rt_calls : int;
}

type t = {
  ops : backend_ops;
  (* explicit dynamic-qubit map: address -> simulator index *)
  qubit_of_addr : (int64, int) Hashtbl.t;
  arrays : (int64, array_info) Hashtbl.t;
  results : (int64, bool) Hashtbl.t;
  output : Buffer.t;
  mutable next_dynamic : int64;
  mutable next_array : int64;
  stats : stats;
}

let create (inst : Qsim.Backend.instance) =
  {
    ops = ops_of_instance inst;
    qubit_of_addr = Hashtbl.create 32;
    arrays = Hashtbl.create 8;
    results = Hashtbl.create 32;
    output = Buffer.create 64;
    next_dynamic = Names.dynamic_base;
    next_array = array_base;
    stats = { gate_calls = 0; measurements = 0; resets = 0; rt_calls = 0 };
  }

let stats rt = rt.stats
let recorded_output rt = Buffer.contents rt.output

(* ------------------------------------------------------------------ *)
(* Address resolution                                                   *)

let fresh_sim_qubit rt =
  let n = rt.ops.bnum_qubits () in
  rt.ops.ensure (n + 1);
  n

(* Does [addr] fall in a qubit array's element range? *)
let qubit_array_lookup rt addr =
  Hashtbl.fold
    (fun _handle info acc ->
      match acc, info.qubit_base with
      | Some _, _ | _, None -> acc
      | None, Some qbase ->
        let off = Int64.sub addr info.elem_base in
        if off >= 0L && Int64.to_int off / 8 < info.count
           && Int64.rem off 8L = 0L
        then Some (qbase + (Int64.to_int off / 8))
        else None)
    rt.arrays None

let qubit_of_address rt addr =
  match Hashtbl.find_opt rt.qubit_of_addr addr with
  | Some q -> q
  | None -> (
    match qubit_array_lookup rt addr with
    | Some q -> q
    | None ->
      if Int64.unsigned_compare addr Names.dynamic_base < 0 then begin
        (* static address: qubit index = address, growing on demand *)
        let q = Int64.to_int addr in
        rt.ops.ensure (q + 1);
        q
      end
      else fail "unknown qubit address 0x%Lx" addr)

let result_addr_of_value (v : Interp.value) =
  match v with
  | Interp.VPtr a -> a
  | Interp.VInt (_, a) -> a
  | Interp.VFloat _ | Interp.VVoid -> fail "expected a result pointer"

let qubit_arg rt (v : Interp.value) =
  match v with
  | Interp.VPtr a | Interp.VInt (_, a) -> qubit_of_address rt a
  | Interp.VFloat _ | Interp.VVoid -> fail "expected a qubit pointer"

let double_arg (v : Interp.value) =
  match v with
  | Interp.VFloat f -> f
  | Interp.VInt (_, n) -> Int64.to_float n
  | Interp.VPtr _ | Interp.VVoid -> fail "expected a double"

let int_arg (v : Interp.value) =
  match v with
  | Interp.VInt (_, n) -> n
  | Interp.VPtr a -> a
  | Interp.VFloat _ | Interp.VVoid -> fail "expected an integer"

(* ------------------------------------------------------------------ *)
(* The external-function table                                          *)

let unit_value = Interp.VVoid

let gate_fn rt g ~doubles ~qubits args =
  let dargs, qargs = Names.split_gate_args doubles args in
  if List.compare_length_with dargs doubles < 0 then
    fail "%s: not enough arguments" (Gate.name g);
  if List.length qargs <> qubits then
    fail "%s: expected %d qubit arguments" (Gate.name g) qubits;
  let g = Names.instantiate g (List.map double_arg dargs) in
  let qs = List.map (qubit_arg rt) qargs in
  rt.stats.gate_calls <- rt.stats.gate_calls + 1;
  rt.ops.apply g qs;
  unit_value

(* The implementation of one decoded call. Runtime functions count in
   [rt_calls]; gates, measurements, resets and result reads do not. *)
let implement rt (call : Names.call) : Interp.value list -> Interp.value =
  let rt_fn f args =
    rt.stats.rt_calls <- rt.stats.rt_calls + 1;
    f args
  in
  match call with
  | Names.Gate { shape; doubles; qubits } -> gate_fn rt shape ~doubles ~qubits
  | Names.Reset -> (
    function
    | [ q ] ->
      rt.stats.resets <- rt.stats.resets + 1;
      rt.ops.breset (qubit_arg rt q);
      unit_value
    | _ -> fail "reset: bad arguments")
  | Names.Mz -> (
    function
    | [ q; r ] ->
      rt.stats.measurements <- rt.stats.measurements + 1;
      let outcome = rt.ops.bmeasure (qubit_arg rt q) in
      Hashtbl.replace rt.results (result_addr_of_value r) outcome;
      unit_value
    | _ -> fail "mz: bad arguments")
  | Names.M -> (
    function
    | [ q ] ->
      rt.stats.measurements <- rt.stats.measurements + 1;
      let outcome = rt.ops.bmeasure (qubit_arg rt q) in
      (* a fresh result cell in the array address space *)
      let addr = rt.next_array in
      rt.next_array <- Int64.add rt.next_array 8L;
      Hashtbl.replace rt.results addr outcome;
      Interp.VPtr addr
    | _ -> fail "m: bad arguments")
  | Names.Read_result -> (
    function
    | [ r ] -> (
      let addr = result_addr_of_value r in
      match Hashtbl.find_opt rt.results addr with
      | Some b -> Interp.VInt (Ty.I1, if b then 1L else 0L)
      | None -> fail "read_result before measurement (0x%Lx)" addr)
    | _ -> fail "read_result: bad arguments")
  | Names.Qubit_allocate ->
    rt_fn (function
      | [] ->
        let q = fresh_sim_qubit rt in
        let addr = rt.next_dynamic in
        rt.next_dynamic <- Int64.add rt.next_dynamic 8L;
        Hashtbl.replace rt.qubit_of_addr addr q;
        Interp.VPtr addr
      | _ -> fail "qubit_allocate: bad arguments")
  | Names.Qubit_allocate_array ->
    rt_fn (function
      | [ n ] ->
        let count = Int64.to_int (int_arg n) in
        if count < 0 then fail "qubit_allocate_array: negative size";
        let qubit_base = rt.ops.bnum_qubits () in
        rt.ops.ensure (qubit_base + count);
        let handle = rt.next_array in
        let elem_base = array_elem handle 0 in
        rt.next_array <- array_elem handle count;
        Hashtbl.replace rt.arrays handle
          { elem_base; count; qubit_base = Some qubit_base };
        Interp.VPtr handle
      | _ -> fail "qubit_allocate_array: bad arguments")
  | Names.Array_create_1d ->
    rt_fn (function
      | [ _elem_size; n ] ->
        let count = Int64.to_int (int_arg n) in
        if count < 0 then fail "array_create_1d: negative size";
        let handle = rt.next_array in
        let elem_base = array_elem handle 0 in
        rt.next_array <- array_elem handle count;
        Hashtbl.replace rt.arrays handle
          { elem_base; count; qubit_base = None };
        Interp.VPtr handle
      | _ -> fail "array_create_1d: bad arguments")
  | Names.Array_get_element_ptr_1d ->
    rt_fn (function
      | [ h; i ] -> (
        let handle = result_addr_of_value h in
        let idx = Int64.to_int (int_arg i) in
        match Hashtbl.find_opt rt.arrays handle with
        | Some info ->
          if idx < 0 || idx >= info.count then
            fail "array index %d out of range [0, %d)" idx info.count;
          Interp.VPtr (Int64.add info.elem_base (Int64.of_int (8 * idx)))
        | None -> fail "array_get_element_ptr_1d: unknown array 0x%Lx" handle)
      | _ -> fail "array_get_element_ptr_1d: bad arguments")
  | Names.Array_get_size_1d ->
    rt_fn (function
      | [ h ] -> (
        match Hashtbl.find_opt rt.arrays (result_addr_of_value h) with
        | Some info -> Interp.VInt (Ty.I64, Int64.of_int info.count)
        | None -> fail "array_get_size_1d: unknown array")
      | _ -> fail "array_get_size_1d: bad arguments")
  | Names.Qubit_release | Names.Qubit_release_array
  | Names.Array_update_reference_count | Names.Result_update_reference_count
  | Names.Initialize | Names.Message ->
    rt_fn (fun _ -> unit_value)
  | Names.Result_get_one -> rt_fn (fun _ -> Interp.VPtr one_result_addr)
  | Names.Result_get_zero -> rt_fn (fun _ -> Interp.VPtr zero_result_addr)
  | Names.Result_equal ->
    rt_fn (function
      | [ a; b ] ->
        let interpret v =
          let addr = result_addr_of_value v in
          if Int64.equal addr one_result_addr then true
          else if Int64.equal addr zero_result_addr then false
          else
            match Hashtbl.find_opt rt.results addr with
            | Some b -> b
            | None -> fail "result_equal before measurement"
        in
        Interp.VInt (Ty.I1, if interpret a = interpret b then 1L else 0L)
      | _ -> fail "result_equal: bad arguments")
  | Names.Result_record_output ->
    rt_fn (function
      | [ r; _label ] -> (
        let addr = result_addr_of_value r in
        match Hashtbl.find_opt rt.results addr with
        | Some b ->
          Buffer.add_string rt.output (if b then "1" else "0");
          unit_value
        | None -> fail "result_record_output before measurement")
      | _ -> fail "result_record_output: bad arguments")
  | Names.Array_record_output ->
    rt_fn (function
      | [ _n; _label ] -> unit_value
      | _ -> fail "array_record_output: bad arguments")
  | Names.Fail -> rt_fn (fun _ -> fail "program called __quantum__rt__fail")
  | Names.Unknown -> invalid_arg "Runtime.implement: unknown function"

(* Every function of {!Names.symbols}, bound to its implementation. *)
let externals rt : (string * (Interp.value list -> Interp.value)) list =
  List.map (fun (name, call) -> (name, implement rt call)) Names.symbols

(* ------------------------------------------------------------------ *)
(* Program shape                                                        *)

(* How the program names its qubits: [(dynamic, static)] — does some
   function call qubit_allocate(_array), and does some quantum call pass
   a constant qubit address? *)
let addressing (m : Ir_module.t) =
  let dynamic = ref false and static = ref false in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, callee, args) -> (
            match Names.decode callee with
            | Names.Qubit_allocate | Names.Qubit_allocate_array ->
              dynamic := true
            | _ when !static -> ()
            | _ ->
              List.iter
                (fun (a : Operand.typed) ->
                  match a.Operand.v with
                  | Operand.Const _ -> static := true
                  | Operand.Local _ -> ())
                (Signatures.args_of_kind Signatures.Qubit callee args))
          | _ -> ()))
    (Ir_module.defined_funcs m);
  (!dynamic, !static)

(* A program that allocates its qubits at run time starts from an empty
   register: preallocating the declared count as well would simulate
   twice the qubits. Static addresses index the register directly, so a
   program naming any keeps the declared prefix reserved. *)
let initial_qubits (m : Ir_module.t) =
  match addressing m with
  | true, false -> 0
  | _ -> (
    match Ir_module.entry_point m with
    | Some f -> Names.declared_qubits f
    | None -> 0)
