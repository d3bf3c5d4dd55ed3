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

let of_call : Names.call -> signature = function
  | Names.Gate { doubles; qubits; _ } -> gate_sig ~doubles ~qubits
  | Names.Reset -> gate_sig ~doubles:0 ~qubits:1
  | Names.Mz -> { ret = Ty.Void; args = [ Qubit; Result ] }
  | Names.M -> { ret = Ty.Ptr; args = [ Qubit ] }
  | Names.Read_result -> { ret = Ty.I1; args = [ Result ] }
  | Names.Qubit_allocate | Names.Result_get_one | Names.Result_get_zero ->
    { ret = Ty.Ptr; args = [] }
  | Names.Qubit_allocate_array -> { ret = Ty.Ptr; args = [ Int_arg Ty.I64 ] }
  | Names.Qubit_release -> { ret = Ty.Void; args = [ Qubit ] }
  | Names.Qubit_release_array | Names.Initialize | Names.Message | Names.Fail ->
    { ret = Ty.Void; args = [ Ptr_arg ] }
  | Names.Array_create_1d -> { ret = Ty.Ptr; args = [ Int_arg Ty.I32; Int_arg Ty.I64 ] }
  | Names.Array_get_element_ptr_1d -> { ret = Ty.Ptr; args = [ Ptr_arg; Int_arg Ty.I64 ] }
  | Names.Array_get_size_1d -> { ret = Ty.I64; args = [ Ptr_arg ] }
  | Names.Array_update_reference_count | Names.Result_update_reference_count ->
    { ret = Ty.Void; args = [ Ptr_arg; Int_arg Ty.I32 ] }
  | Names.Result_equal -> { ret = Ty.I1; args = [ Result; Result ] }
  | Names.Result_record_output -> { ret = Ty.Void; args = [ Result; Ptr_arg ] }
  | Names.Array_record_output -> { ret = Ty.Void; args = [ Int_arg Ty.I64; Ptr_arg ] }
  | Names.Unknown -> invalid_arg "Signatures.of_call: unknown function"

(* Every known function's signature, keyed by name and derived from
   {!Names.symbols}: built once and read only afterwards, so lookups from
   several domains share it. *)
let table : (string, signature) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, call) -> Hashtbl.replace tbl name (of_call call)) Names.symbols;
  tbl

let find name : signature option = Hashtbl.find_opt table name

let arity = function
  | Names.Gate { doubles; qubits; _ } -> doubles + qubits
  | call -> List.length (of_call call).args

let arg_kinds name args =
  match find name with
  | Some s when List.compare_lengths s.args args = 0 -> Some s.args
  | _ -> None

let args_of_kind kind name args =
  match arg_kinds name args with
  | Some kinds ->
    List.combine kinds args
    |> List.filter_map (fun (k, a) -> if k = kind then Some a else None)
  | None -> []

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
