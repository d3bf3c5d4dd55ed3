(* Static vs. dynamic qubit addressing (Sec. IV-A). Detection scans the
   module's *reachable* instructions — a qubit_allocate sitting in dead
   code must not classify the program as dynamic — and can additionally
   consult the constant-address dataflow analysis to upgrade operands it
   proves constant. Conversion goes through the circuit IR: parse with
   the Ex. 3 machinery, then re-emit in the requested style; when the
   syntactic parser rejects the module (phi-resolved addresses), the
   proved-constant rewrite plus classical cleanup gives it a second
   chance. The conversion to static addresses is the "register
   allocation" step the paper draws the analogy to — the identity
   assignment here; {!Qmapping.Allocator} implements the
   live-range-packing version. *)

open Llvm_ir
module Const_addr = Qir_analysis.Const_addr

type style = Static | Dynamic | Mixed | No_qubits

let pp_style ppf s =
  Format.pp_print_string ppf
    (match s with
    | Static -> "static"
    | Dynamic -> "dynamic"
    | Mixed -> "mixed"
    | No_qubits -> "no-qubits")

let classify_flags ~static ~dynamic =
  match static, dynamic with
  | true, true -> Mixed
  | true, false -> Static
  | false, true -> Dynamic
  | false, false -> No_qubits

(* One scan serving both views. [syntactic] counts a constant pointer as
   static and anything else (allocations, locally-computed addresses) as
   dynamic; [proved] additionally counts operands the dataflow analysis
   resolves to a constant as static, leaving allocations dynamic only
   when some qubit still reaches a gate through an unproved address. *)
type report = {
  syntactic : style;
  proved : style;
  upgraded_args : int;  (* dynamically shaped operands proved constant *)
}

let scan (m : Ir_module.t) : report =
  let syn_static = ref false and syn_dynamic = ref false in
  let proved_args = ref 0 and unproved_args = ref 0 in
  (* interprocedural constant propagation: an address that is constant
     at every call site counts as proved inside the callee too *)
  let mf = Qir_analysis.(Analyses.const_facts (Analyses.of_module m)) in
  List.iter
    (fun (f : Func.t) ->
      if not (Func.is_declaration f) then begin
        let facts = Const_addr.func_facts mf f.Func.name in
        List.iter
          (fun (b : Block.t) ->
            if Passes.Sccp.reached facts b.Block.label then
              List.iter
                (fun (i : Instr.t) ->
                  match i.Instr.op with
                  | Instr.Call (_, callee, args) -> (
                    (match Names.decode callee with
                    | Names.Qubit_allocate | Names.Qubit_allocate_array ->
                      syn_dynamic := true
                    | _ -> ());
                    match Signatures.arg_kinds callee args with
                    | Some kinds ->
                      List.iter2
                        (fun kind (a : Operand.typed) ->
                          match kind with
                          | Signatures.Qubit -> (
                            match a.Operand.v with
                            | Operand.Const (Constant.Inttoptr _)
                            | Operand.Const Constant.Null ->
                              syn_static := true
                            | o -> (
                              syn_dynamic := true;
                              match Const_addr.proved_address facts o with
                              | Some _ -> incr proved_args
                              | None -> incr unproved_args))
                          | Signatures.Result
                          | Signatures.Double_arg | Signatures.Int_arg _
                          | Signatures.Ptr_arg ->
                            ())
                        kinds args
                    | None -> ())
                  | _ -> ())
                b.Block.instrs)
          f.Func.blocks
      end)
    m.Ir_module.funcs;
  let syntactic =
    classify_flags ~static:!syn_static ~dynamic:!syn_dynamic
  in
  let proved =
    classify_flags
      ~static:(!syn_static || !proved_args > 0)
      ~dynamic:(!unproved_args > 0)
  in
  { syntactic; proved; upgraded_args = !proved_args }

let detect (m : Ir_module.t) : style = (scan m).syntactic
let detect_proved = scan

(* Conversions (semantic route: QIR -> circuit -> QIR). When the
   syntactic parser rejects the module, rewrite proved-constant
   addresses into their literal spelling, let DCE and CFG cleanup sweep
   the now-dead address computation (phi chains, branches over folded
   conditions), and retry — the path that converts the programs the
   seed refused. Returns the circuit and the recorded result order. *)
let parse_with_upgrade (m : Ir_module.t) =
  let parse m =
    match Qir_parser.parse_with_output m with
    | Ok parsed -> parsed
    | Error msg -> raise (Qir_parser.Unsupported msg)
  in
  try parse m
  with Qir_parser.Unsupported _ as first -> (
    (* a multi-function module first gets flattened: inlining turns a
       constant address threaded through a call into a local constant
       the rewrite below can spell out *)
    let m =
      match Ir_module.defined_funcs m with
      | _ :: _ :: _ -> Passes.Pipeline.lower m
      | _ -> m
    in
    try parse m
    with Qir_parser.Unsupported _ -> (
      let m', upgraded =
        Const_addr.rewrite
          Qir_analysis.(Analyses.const_facts (Analyses.of_module m))
          m
      in
      if upgraded = 0 then raise first
      else
        let m' = Passes.Pipeline.optimize m' in
        try parse m' with Qir_parser.Unsupported _ -> raise first))

(* The builder records every measured clbit once, in clbit order: the
   recorded order is carried by renumbering the clbits to it, and a
   program that records a result twice, or leaves a measured one out,
   is refused rather than re-emitted with a different output. *)
let convert ~addressing ?(record_output = true) (m : Ir_module.t) =
  let circuit, output = parse_with_upgrade m in
  let output = if record_output then output else [] in
  let circuit = Qir_parser.in_recorded_order circuit output in
  if output <> [] && circuit.Qcircuit.Circuit.num_clbits <> List.length output
  then
    raise
      (Qir_parser.Unsupported
         "the recorded output leaves a measured result out; the circuit \
          form cannot keep it");
  Qir_builder.build ~addressing ~record_output circuit

let to_static ?record_output m = convert ~addressing:`Static ?record_output m
let to_dynamic ?record_output m = convert ~addressing:`Dynamic ?record_output m
