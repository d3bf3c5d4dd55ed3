(* Lowering across profiles (Sec. III-B / Ex. 4): a QIR program using the
   full expressiveness of LLVM IR (functions, loops, classical
   computation) is flattened towards the base profile by the classical
   pass pipeline — inlining, mem2reg, constant propagation, full loop
   unrolling, dead-code elimination and CFG simplification. *)

open Llvm_ir

type error =
  | Violations of Profile_check.violation list
      (* the program still violates the target profile after lowering *)
  | Unsupported of string (* circuit extraction failed *)

let pp_error ppf = function
  | Violations vs ->
    Format.fprintf ppf "lowered module still violates the profile:@\n%a"
      (Format.pp_print_list Profile_check.pp_violation)
      vs
  | Unsupported msg -> Format.fprintf ppf "unsupported construct: %s" msg

(* Runs the classical lowering pipeline; purely structural, always
   succeeds (it just may not reach the base profile). *)
let lower_module ?max_rounds (m : Ir_module.t) : Ir_module.t =
  Passes.Pipeline.lower ?max_rounds m

(* Full route to a circuit: lower, then parse. Accepts anything the
   pipeline can flatten into the supported control-flow shapes. *)
let lower_to_circuit ?max_rounds (m : Ir_module.t) :
    (Qcircuit.Circuit.t, error) result =
  let m' = lower_module ?max_rounds m in
  match Qir_parser.parse_recorded m' with
  | c -> Ok c
  | exception Qir_parser.Unsupported msg -> Error (Unsupported msg)

(* Lowers a dynamic/adaptive module all the way to a base-profile module
   with static addresses, via the circuit IR. Conditions in the circuit
   (measurement feedback) cannot be represented in the base profile and
   are reported as violations. *)
let lower_to_base ?max_rounds (m : Ir_module.t) : (Ir_module.t, error) result =
  match lower_to_circuit ?max_rounds m with
  | Error e -> Error e
  | Ok circuit ->
    let m' = Qir_builder.build ~addressing:`Static circuit in
    (match Profile_check.check Profile.Base m' with
    | [] -> Ok m'
    | vs -> Error (Violations vs))
