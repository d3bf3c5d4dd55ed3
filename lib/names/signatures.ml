(* Type signatures of the QIS/RT functions, used to emit declarations and
   to know which call operands are qubits, results or classical values. *)

open Llvm_ir

type arg_kind = Qubit | Result | Double_arg | Int_arg of Ty.t | Ptr_arg

type signature = { ret : Ty.t; args : arg_kind list }

let ty_of_kind = function
  | Qubit | Result | Ptr_arg -> Ty.Ptr
  | Double_arg -> Ty.Double
  | Int_arg ty -> ty

(* Gate functions: doubles first, then qubits. *)
let gate_sig ~doubles ~qubits =
  {
    ret = Ty.Void;
    args =
      List.init doubles (fun _ -> Double_arg)
      @ List.init qubits (fun _ -> Qubit);
  }

(* Every known function's signature, keyed by name: built once and read
   only afterwards, so lookups from several domains share it. *)
let table : (string, signature) Hashtbl.t =
  let open Names in
  let tbl = Hashtbl.create 64 in
  let add names s = List.iter (fun n -> Hashtbl.replace tbl n s) names in
  add
    [ qis "h"; qis "x"; qis "y"; qis "z"; qis "s"; qis "t"; qis_adj "s"; qis_adj "t";
      qis "sx"; qis "reset" ]
    (gate_sig ~doubles:0 ~qubits:1);
  add [ qis "rx"; qis "ry"; qis "rz" ] (gate_sig ~doubles:1 ~qubits:1);
  add [ qis "cnot"; qis "cz"; qis "cy"; qis "swap" ] (gate_sig ~doubles:0 ~qubits:2);
  add [ qis "ccx" ] (gate_sig ~doubles:0 ~qubits:3);
  add [ qis_mz ] { ret = Ty.Void; args = [ Qubit; Result ] };
  add [ qis_m ] { ret = Ty.Ptr; args = [ Qubit ] };
  add [ rt_read_result ] { ret = Ty.I1; args = [ Result ] };
  add [ rt_qubit_allocate ] { ret = Ty.Ptr; args = [] };
  add [ rt_qubit_allocate_array ] { ret = Ty.Ptr; args = [ Int_arg Ty.I64 ] };
  add [ rt_qubit_release ] { ret = Ty.Void; args = [ Qubit ] };
  add [ rt_qubit_release_array ] { ret = Ty.Void; args = [ Ptr_arg ] };
  add [ rt_array_create_1d ] { ret = Ty.Ptr; args = [ Int_arg Ty.I32; Int_arg Ty.I64 ] };
  add [ rt_array_get_element_ptr_1d ] { ret = Ty.Ptr; args = [ Ptr_arg; Int_arg Ty.I64 ] };
  add [ rt_array_get_size_1d ] { ret = Ty.I64; args = [ Ptr_arg ] };
  add
    [ rt_array_update_reference_count; rt_result_update_reference_count ]
    { ret = Ty.Void; args = [ Ptr_arg; Int_arg Ty.I32 ] };
  add [ rt_result_get_one; rt_result_get_zero ] { ret = Ty.Ptr; args = [] };
  add [ rt_result_equal ] { ret = Ty.I1; args = [ Result; Result ] };
  add [ rt_result_record_output ] { ret = Ty.Void; args = [ Result; Ptr_arg ] };
  add [ rt_array_record_output ] { ret = Ty.Void; args = [ Int_arg Ty.I64; Ptr_arg ] };
  add [ rt_initialize; rt_message; rt_fail ] { ret = Ty.Void; args = [ Ptr_arg ] };
  tbl

let find name : signature option = Hashtbl.find_opt table name

let declaration name =
  match find name with
  | Some s -> Func.declare name s.ret (List.map ty_of_kind s.args)
  | None -> invalid_arg ("Signatures.declaration: unknown QIR function " ^ name)

(* Declarations for every QIR function called in [m] but not yet present. *)
let add_missing_declarations (m : Ir_module.t) =
  let called = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, callee, _) when Names.is_quantum callee ->
            Hashtbl.replace called callee ()
          | _ -> ()))
    m.Ir_module.funcs;
  Hashtbl.fold
    (fun name () m ->
      match Ir_module.find_func m name with
      | Some _ -> m
      | None -> (
        match find name with
        | Some _ ->
          { m with Ir_module.funcs = declaration name :: m.Ir_module.funcs }
        | None -> m))
    called m
