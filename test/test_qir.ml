(* Tests for the QIR core: builder output shape (Fig. 1 / Ex. 6), the
   Ex. 3 parser over static, dynamic and adaptive inputs, profile
   conformance checking, addressing conversion and lowering. *)

open Llvm_ir
open Qcircuit
open Qir

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let count_calls_to m callee =
  List.fold_left
    (fun acc (f : Func.t) ->
      Func.fold_instrs f acc (fun acc (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, c, _) when String.equal c callee -> acc + 1
          | _ -> acc))
    0 m.Ir_module.funcs

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)

let test_build_static_matches_ex6 () =
  let m = Qir_builder.build ~addressing:`Static ~record_output:false (Generate.bell ()) in
  let main = Ir_module.find_func_exn m "main" in
  check int_t "single block" 1 (List.length main.Func.blocks);
  let calls =
    List.filter_map
      (fun (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Call (_, callee, args) -> Some (callee, args)
        | _ -> None)
      (Func.entry main).Block.instrs
  in
  (match calls with
  | [ (h, [ q0 ]); (cnot, [ a; b ]); (mz0, _); (mz1, [ q1'; r1 ]) ] ->
    check Alcotest.string "h" (Names.qis "h") h;
    check Alcotest.string "cnot" (Names.qis "cnot") cnot;
    check Alcotest.string "mz" Names.qis_mz mz0;
    check Alcotest.string "mz" Names.qis_mz mz1;
    (* Ex. 6: qubit 0 is null, qubit 1 is inttoptr (i64 1 to ptr) *)
    check bool_t "q0 is null" true
      (Operand.equal q0.Operand.v (Operand.Const Constant.Null));
    check bool_t "cnot control null" true
      (Operand.equal a.Operand.v (Operand.Const Constant.Null));
    check bool_t "cnot target inttoptr 1" true
      (Operand.equal b.Operand.v (Operand.Const (Constant.Inttoptr 1L)));
    check bool_t "mz1 qubit inttoptr 1" true
      (Operand.equal q1'.Operand.v (Operand.Const (Constant.Inttoptr 1L)));
    check bool_t "mz1 result inttoptr 1" true
      (Operand.equal r1.Operand.v (Operand.Const (Constant.Inttoptr 1L)))
  | _ -> Alcotest.fail "unexpected instruction sequence");
  check
    (Alcotest.option Alcotest.string)
    "required_num_qubits" (Some "2")
    (Func.attr main "required_num_qubits");
  check
    (Alcotest.option Alcotest.string)
    "profile attr" (Some "base_profile")
    (Func.attr main "qir_profiles");
  (* verifier-clean *)
  check int_t "verifier" 0 (List.length (Verifier.check_module m))

let test_build_dynamic_matches_fig1 () =
  let m = Qir_builder.build ~addressing:`Dynamic ~record_output:false (Generate.bell ()) in
  check int_t "one qubit array allocation" 1
    (count_calls_to m Names.rt_qubit_allocate_array);
  check int_t "one result array" 1 (count_calls_to m Names.rt_array_create_1d);
  check bool_t "uses element pointers" true
    (count_calls_to m Names.rt_array_get_element_ptr_1d > 0);
  check int_t "released at the end" 1
    (count_calls_to m Names.rt_qubit_release_array);
  check int_t "verifier" 0 (List.length (Verifier.check_module m))

let test_build_legalizes_gates () =
  (* a circuit with gates outside the QIR set is decomposed *)
  let b = Circuit.Build.create ~num_qubits:2 () in
  Circuit.Build.gate b (Gate.Cp 0.5) [ 0; 1 ];
  Circuit.Build.gate b Gate.Sx [ 0 ];
  let m = Qir_builder.build (Circuit.Build.finish b) in
  check int_t "no unknown calls" 0 (count_calls_to m (Names.qis "cp"));
  check bool_t "rz appears" true (count_calls_to m (Names.qis "rz") > 0);
  check int_t "verifier" 0 (List.length (Verifier.check_module m))

let test_build_adaptive_feedback () =
  let m = Qir_builder.build (Generate.feedback_rounds ~rounds:2 2) in
  let main = Ir_module.find_func_exn m "main" in
  check
    (Alcotest.option Alcotest.string)
    "profile attr" (Some "adaptive_profile")
    (Func.attr main "qir_profiles");
  check bool_t "reads results" true (count_calls_to m Names.rt_read_result > 0);
  check bool_t "has branches" true (List.length main.Func.blocks > 1);
  check int_t "verifier" 0 (List.length (Verifier.check_module m))

(* ------------------------------------------------------------------ *)
(* Parser (Ex. 3)                                                       *)

let test_parse_paper_fig1 () =
  (* the exact Fig. 1 dynamic-addressing program *)
  let c = Qir_parser.parse_string (List.assoc "bell" Test_llvm_ir.fixtures) in
  check int_t "2 qubits" 2 c.Circuit.num_qubits;
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c.Circuit.ops with
  | [ Circuit.Gate (Gate.H, [ 0 ]); Circuit.Gate (Gate.Cx, [ 0; 1 ]);
      Circuit.Measure (0, 0) ] ->
    ()
  | _ -> Alcotest.failf "unexpected circuit:@\n%a" Circuit.pp c

let test_parse_paper_ex6 () =
  let c = Qir_parser.parse_string (List.assoc "static" Test_llvm_ir.fixtures) in
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c.Circuit.ops with
  | [ Circuit.Gate (Gate.H, [ 0 ]); Circuit.Gate (Gate.Cx, [ 0; 1 ]);
      Circuit.Measure (0, 0); Circuit.Measure (1, 1) ] ->
    ()
  | _ -> Alcotest.failf "unexpected circuit:@\n%a" Circuit.pp c

let test_parse_rejects_loop () =
  match Qir_parser.parse_string (List.assoc "forloop" Test_llvm_ir.fixtures) with
  | exception Qir_parser.Unsupported msg ->
    check bool_t "mentions lowering" true
      (Astring.String.is_infix ~affix:"lower" msg)
  | _ -> Alcotest.fail "expected Unsupported"

let test_parse_respects_declared_qubits () =
  let src =
    {|
declare void @__quantum__qis__h__body(ptr)
define void @main() "entry_point" "required_num_qubits"="5" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
|}
  in
  let c = Qir_parser.parse_string src in
  check int_t "declared size wins" 5 c.Circuit.num_qubits

(* ------------------------------------------------------------------ *)
(* Round-trips                                                          *)

let roundtrip_static c =
  Qir_parser.parse (Qir_builder.build ~addressing:`Static c)

let roundtrip_dynamic c =
  Qir_parser.parse (Qir_builder.build ~addressing:`Dynamic c)

let test_roundtrip_ghz () =
  let c = Qir_gateset.legalize (Generate.ghz 5) in
  check bool_t "static" true (Circuit.equal c (roundtrip_static c));
  check bool_t "dynamic" true (Circuit.equal c (roundtrip_dynamic c))

let test_roundtrip_feedback () =
  let c = Qir_gateset.legalize (Generate.feedback_rounds ~rounds:3 3) in
  check bool_t "static adaptive" true (Circuit.equal c (roundtrip_static c));
  check bool_t "dynamic adaptive" true (Circuit.equal c (roundtrip_dynamic c))

(* The parser keys small numbered values ([%0], [%17]) apart from every
   other name: renaming the numbered values of a dynamically addressed
   feedback program to large numbers, words or zero-padded digits must
   parse to the same circuit. *)
let test_roundtrip_ssa_names () =
  let c = Qir_gateset.legalize (Generate.feedback_rounds ~rounds:3 3) in
  let text = Qir_builder.to_string ~addressing:`Dynamic c in
  let rename f =
    let b = Buffer.create (String.length text) in
    let n = String.length text in
    let i = ref 0 in
    while !i < n do
      let is_digit k = k < n && text.[k] >= '0' && text.[k] <= '9' in
      if text.[!i] = '%' && is_digit (!i + 1) then begin
        let j = ref (!i + 1) in
        while is_digit !j do incr j done;
        Buffer.add_string b ("%" ^ f (int_of_string (String.sub text (!i + 1) (!j - !i - 1))));
        i := !j
      end
      else begin
        Buffer.add_char b text.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  List.iter
    (fun (what, f) ->
      let c' = Qir_parser.parse_string (rename f) in
      check bool_t what true (Circuit.equal c c'))
    [
      ("numbered", string_of_int);
      ("past the direct slots", fun k -> string_of_int (4096 + k));
      ("words", Printf.sprintf "v%d");
      ("zero-padded", Printf.sprintf "0%d");
    ]

let prop_roundtrip_random =
  QCheck2.Test.make ~count:50 ~name:"build/parse round-trip (random circuits)"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 6))
    (fun (seed, n) ->
      let c = Qir_gateset.legalize (Generate.random ~seed ~gates:40 n) in
      Circuit.equal c (roundtrip_static c)
      && Circuit.equal c (roundtrip_dynamic c))

(* ------------------------------------------------------------------ *)
(* Profiles                                                             *)

let test_profile_base_conforms () =
  let m = Qir_builder.build ~addressing:`Static (Generate.bell ()) in
  check bool_t "conforms base" true (Profile_check.conforms Profile.Base m);
  check bool_t "classified base" true (Profile_check.classify m = Profile.Base)

let test_profile_dynamic_violates_base () =
  let m = Qir_builder.build ~addressing:`Dynamic (Generate.bell ()) in
  let vs = Profile_check.check Profile.Base m in
  check bool_t "violations found" true (vs <> []);
  let rules = List.map (fun v -> v.Profile_check.rule) vs in
  check bool_t "flags allocation" true (List.mem "base:no-allocation" rules);
  check bool_t "flags memory" true (List.mem "base:no-memory" rules)

let test_profile_adaptive () =
  let m = Qir_builder.build (Generate.feedback_rounds ~rounds:2 2) in
  check bool_t "violates base" true (not (Profile_check.conforms Profile.Base m));
  check bool_t "conforms adaptive" true
    (Profile_check.conforms Profile.Adaptive m);
  check bool_t "classified adaptive" true
    (Profile_check.classify m = Profile.Adaptive)

let test_profile_forloop_is_full () =
  let m = Parser.parse_module (List.assoc "forloop" Test_llvm_ir.fixtures) in
  check bool_t "loop violates adaptive" true
    (not (Profile_check.conforms Profile.Adaptive m));
  check bool_t "classified full" true (Profile_check.classify m = Profile.Full)

let test_profile_missing_entry_point () =
  let m = Parser.parse_module "define void @f() {\nentry:\n  ret void\n}" in
  (* @main fallback is absent, and no attribute *)
  let vs = Profile_check.check Profile.Base m in
  check bool_t "entry point violation" true
    (List.exists (fun v -> v.Profile_check.rule = "entry-point") vs)

(* ------------------------------------------------------------------ *)
(* Addressing (Sec. IV-A)                                               *)

let test_addressing_detect () =
  let st = Qir_builder.build ~addressing:`Static (Generate.bell ()) in
  let dy = Qir_builder.build ~addressing:`Dynamic (Generate.bell ()) in
  check bool_t "static detected" true (Addressing.detect st = Addressing.Static);
  check bool_t "dynamic detected" true
    (Addressing.detect dy = Addressing.Dynamic)

let test_addressing_convert () =
  let dy = Qir_builder.build ~addressing:`Dynamic ~record_output:false (Generate.bell ()) in
  let st = Addressing.to_static ~record_output:false dy in
  check bool_t "now static" true (Addressing.detect st = Addressing.Static);
  check bool_t "conforms base" true (Profile_check.conforms Profile.Base st);
  (* and the circuit content is unchanged *)
  check bool_t "same circuit" true
    (Circuit.equal (Qir_parser.parse dy) (Qir_parser.parse st));
  (* back again *)
  let dy2 = Addressing.to_dynamic ~record_output:false st in
  check bool_t "dynamic again" true (Addressing.detect dy2 = Addressing.Dynamic)

(* ------------------------------------------------------------------ *)
(* Lowering (Sec. III-B / Ex. 4)                                        *)

let test_lowering_ex4 () =
  let m = Parser.parse_module (List.assoc "forloop" Test_llvm_ir.fixtures) in
  match Lowering.lower_to_base m with
  | Error e -> Alcotest.failf "lowering failed: %a" Lowering.pp_error e
  | Ok m' ->
    check bool_t "conforms base" true (Profile_check.conforms Profile.Base m');
    let c = Qir_parser.parse m' in
    check int_t "ten H gates" 10 (Circuit.gate_count ~name:"h" c);
    check bool_t "equals h_layer" true (Circuit.equal c (Generate.h_layer 10))

let test_lowering_multifunction () =
  let src =
    {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)

define void @bell_pair(i64 %a, i64 %b) {
entry:
  %pa = inttoptr i64 %a to ptr
  %pb = inttoptr i64 %b to ptr
  call void @__quantum__qis__h__body(ptr %pa)
  call void @__quantum__qis__cnot__body(ptr %pa, ptr %pb)
  ret void
}

define void @main() "entry_point" {
entry:
  call void @bell_pair(i64 0, i64 1)
  call void @bell_pair(i64 2, i64 3)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  match Lowering.lower_to_circuit m with
  | Error e -> Alcotest.failf "lowering failed: %a" Lowering.pp_error e
  | Ok c ->
    check int_t "2 h gates" 2 (Circuit.gate_count ~name:"h" c);
    check int_t "2 cx gates" 2 (Circuit.gate_count ~name:"cx" c)

let test_lowering_reports_feedback () =
  (* measurement feedback cannot reach the base profile: lower_to_base
     must report violations rather than silently dropping conditions *)
  let m = Qir_builder.build (Generate.feedback_rounds ~rounds:2 2) in
  match Lowering.lower_to_base m with
  | Error (Lowering.Violations _) -> ()
  | Error (Lowering.Unsupported _) -> ()
  | Ok m' ->
    (* acceptable only if the conditions survived into the adaptive output
       — which would contradict base conformance *)
    Alcotest.failf "expected failure, got:@\n%s" (Printer.module_to_string m')

let props = List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random ]

let suite =
  [
    Alcotest.test_case "builder: Ex.6 static form" `Quick
      test_build_static_matches_ex6;
    Alcotest.test_case "builder: Fig.1 dynamic form" `Quick
      test_build_dynamic_matches_fig1;
    Alcotest.test_case "builder: gate legalization" `Quick
      test_build_legalizes_gates;
    Alcotest.test_case "builder: adaptive feedback" `Quick
      test_build_adaptive_feedback;
    Alcotest.test_case "parser: paper Fig.1" `Quick test_parse_paper_fig1;
    Alcotest.test_case "parser: paper Ex.6" `Quick test_parse_paper_ex6;
    Alcotest.test_case "parser: rejects loops" `Quick test_parse_rejects_loop;
    Alcotest.test_case "parser: declared qubit count" `Quick
      test_parse_respects_declared_qubits;
    Alcotest.test_case "roundtrip: GHZ" `Quick test_roundtrip_ghz;
    Alcotest.test_case "roundtrip: feedback" `Quick test_roundtrip_feedback;
    Alcotest.test_case "roundtrip: SSA names of every form" `Quick
      test_roundtrip_ssa_names;
    Alcotest.test_case "profile: base conformance" `Quick
      test_profile_base_conforms;
    Alcotest.test_case "profile: dynamic violates base" `Quick
      test_profile_dynamic_violates_base;
    Alcotest.test_case "profile: adaptive" `Quick test_profile_adaptive;
    Alcotest.test_case "profile: loops are full" `Quick
      test_profile_forloop_is_full;
    Alcotest.test_case "profile: missing entry point" `Quick
      test_profile_missing_entry_point;
    Alcotest.test_case "addressing: detection" `Quick test_addressing_detect;
    Alcotest.test_case "addressing: conversion" `Quick test_addressing_convert;
    Alcotest.test_case "lowering: Ex.4 to base" `Quick test_lowering_ex4;
    Alcotest.test_case "lowering: multi-function" `Quick
      test_lowering_multifunction;
    Alcotest.test_case "lowering: feedback reported" `Quick
      test_lowering_reports_feedback;
  ]
  @ props

(* ------------------------------------------------------------------ *)
(* MLIR outlook (paper conclusion)                                     *)

let test_mlir_bell () =
  let text = Mlir_emit.emit (Generate.bell ()) in
  List.iter
    (fun needle ->
      check bool_t ("contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle text))
    [
      "func.func @main";
      "qir.entry_point";
      {|quantum.custom "h"|};
      {|quantum.custom "cx"|};
      "quantum.measure";
      "quantum.alloc";
      "quantum.dealloc";
    ]

let test_mlir_feedback_uses_scf_if () =
  let text = Mlir_emit.emit (Generate.feedback_rounds ~rounds:2 2) in
  check bool_t "scf.if present" true
    (Astring.String.is_infix ~affix:"scf.if" text)

let test_mlir_ssa_single_assignment () =
  (* every %name on the left of '=' is defined exactly once *)
  let text = Mlir_emit.emit (Generate.qft 4) in
  let defs = Hashtbl.create 64 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.index_opt line '=' with
         | Some eq ->
           let lhs = String.trim (String.sub line 0 eq) in
           String.split_on_char ',' lhs
           |> List.iter (fun name ->
                  let name = String.trim name in
                  if String.length name > 0 && name.[0] = '%' then begin
                    if Hashtbl.mem defs name then
                      Alcotest.failf "%s defined twice" name;
                    Hashtbl.replace defs name ()
                  end)
         | None -> ());
  check bool_t "definitions found" true (Hashtbl.length defs > 10)

let test_mlir_from_qir_module () =
  let m = Qir_builder.build ~addressing:`Dynamic (Generate.ghz 3) in
  let text = Mlir_emit.emit_module m in
  check bool_t "has measures" true
    (Astring.String.is_infix ~affix:"quantum.measure" text)

(* ------------------------------------------------------------------ *)
(* The decoded call table                                               *)

(* Every gate constructor, parametric ones at a non-zero angle. *)
let all_gates =
  Gate.
    [
      I; H; X; Y; Z; S; Sdg; T; Tdg; Sx; Sxdg; Rx 0.3; Ry 0.3; Rz 0.3; P 0.3;
      U (0.1, 0.2, 0.3); Cx; Cy; Cz; Ch; Swap; Crx 0.3; Cry 0.3; Crz 0.3;
      Cp 0.3; Cu (0.1, 0.2, 0.3); Ccx; Cswap;
    ]

(* A one-call entry point on constant operands: [doubles] angles of 0.3,
   then qubits 0, 1, 2, ... *)
let one_call_module name ~doubles ~qubits =
  let params =
    List.init doubles (fun _ -> "double") @ List.init qubits (fun _ -> "ptr")
  in
  let args =
    List.init doubles (fun _ -> "double 0.3")
    @ List.init qubits (fun q ->
          if q = 0 then "ptr null"
          else Printf.sprintf "ptr inttoptr (i64 %d to ptr)" q)
  in
  Parser.parse_module
    (Printf.sprintf
       "declare void @%s(%s)

        define void @main() #0 {
        entry:
       \  call void @%s(%s)
       \  ret void
        }

        attributes #0 = { \"entry_point\" }\n"
       name (String.concat ", " params) name (String.concat ", " args))

let test_emitted_gates_decode_back () =
  List.iter
    (fun g ->
      match Names.qis_of_gate g with
      | None -> ()
      | Some (name, angles) -> (
        match Names.decode name with
        | Names.Gate { shape; doubles; qubits } ->
          check bool_t (name ^ " instantiates back") true
            (Gate.equal g (Names.instantiate shape angles));
          check int_t (name ^ " doubles") (List.length angles) doubles;
          check int_t (name ^ " qubits") (Gate.num_qubits g) qubits;
          let s = Option.get (Signatures.find name) in
          check bool_t (name ^ " signature arity") true
            (s.Signatures.args
            = List.init doubles (fun _ -> Signatures.Double_arg)
              @ List.init qubits (fun _ -> Signatures.Qubit))
        | _ -> Alcotest.failf "%s does not decode to a gate" name))
    all_gates;
  check int_t "gates the base set emits" 15
    (List.length (List.filter_map Names.qis_of_gate all_gates))

let test_decoded_gates_are_bound_and_taped () =
  let rt = Qruntime.Runtime.create (Qsim.Backend.create_instance ~seed:1 `Statevector 0) in
  let externals = Qruntime.Runtime.externals rt in
  check int_t "one external per symbol" (List.length Names.symbols)
    (List.length externals);
  List.iter
    (fun (name, call) ->
      check bool_t (name ^ " has a signature") true (Signatures.find name <> None);
      check bool_t (name ^ " bound by the runtime") true
        (List.mem_assoc name externals);
      match call with
      | Names.Gate { shape; doubles; qubits } -> (
        let m = one_call_module name ~doubles ~qubits in
        let expected =
          Names.instantiate shape (List.init doubles (fun _ -> 0.3))
        in
        match Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) with
        | Some { Qruntime.Gate_tape.ops = [| Qruntime.Gate_tape.Gate (g, qs) |]; _ } ->
          check bool_t (name ^ " taped as its gate") true (Gate.equal g expected);
          check bool_t (name ^ " taped operands") true
            (qs = Array.init qubits Fun.id)
        | _ -> Alcotest.failf "%s: the tape refused a one-gate program" name)
      | _ -> ())
    Names.symbols

let test_alternate_spellings_are_unknown () =
  List.iter
    (fun name ->
      check bool_t (name ^ " is not decoded") true (Names.decode name = Names.Unknown))
    [
      "__quantum__qis__cx__body"; "__quantum__qis__ccnot__body";
      "__quantum__qis__toffoli__body"; "__quantum__qis__h__adj";
      "__quantum__qis__x__adj"; "h"; "";
    ];
  let m = one_call_module "__quantum__qis__cx__body" ~doubles:0 ~qubits:2 in
  match Qir_parser.parse_result m with
  | Error msg ->
    check Alcotest.string "rejected as unknown"
      "call to unknown quantum function @__quantum__qis__cx__body" msg
  | Ok _ -> Alcotest.fail "cx spelling accepted"

(* Malformed programs the verifier may or may not catch: the parser
   answers [Error] and never raises. *)
let test_parser_never_raises () =
  let program body =
    Parser.parse_module
      (Printf.sprintf
         "declare ptr @__quantum__rt__qubit_allocate_array(i64)
          declare ptr @__quantum__rt__qubit_allocate()
          declare ptr @__quantum__rt__array_create_1d(i32, i64)
          declare void @__quantum__qis__h__body(ptr)
          declare void @__quantum__qis__cnot__body(ptr, ptr)

          define void @main() #0 {
          entry:
          %s
          }

          attributes #0 = { \"entry_point\" }\n"
         body)
  in
  List.iter
    (fun (what, body, expected) ->
      match Qir_parser.parse_with_output (program body) with
      | Error msg -> check Alcotest.string what expected msg
      | Ok _ -> Alcotest.failf "%s: parsed" what
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ( "negative qubit array",
        "  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 -3)
        \  %q = call ptr @__quantum__rt__qubit_allocate()
        \  call void @__quantum__qis__h__body(ptr %q)
        \  ret void",
        "qubit_allocate_array: negative size -3" );
      ( "negative result array",
        "  %a = call ptr @__quantum__rt__array_create_1d(i32 1, i64 -2)
        \  ret void",
        "array_create_1d: negative size -2" );
      ( "missing block",
        "  call void @__quantum__qis__h__body(ptr null)
  br label %nowhere",
        "branch to undefined label %nowhere" );
      ( "duplicate operands",
        "  call void @__quantum__qis__cnot__body(ptr null, ptr null)
  ret void",
        "op 0: duplicate qubit operands" );
    ]

let names_suite =
  [
    Alcotest.test_case "names: emitted gates decode back" `Quick
      test_emitted_gates_decode_back;
    Alcotest.test_case "names: decoded gates are bound and taped" `Quick
      test_decoded_gates_are_bound_and_taped;
    Alcotest.test_case "names: alternate spellings are unknown" `Quick
      test_alternate_spellings_are_unknown;
    Alcotest.test_case "parser: malformed programs are errors" `Quick
      test_parser_never_raises;
  ]

let mlir_suite =
  [
    Alcotest.test_case "mlir: Bell shape" `Quick test_mlir_bell;
    Alcotest.test_case "mlir: feedback uses scf.if" `Quick
      test_mlir_feedback_uses_scf_if;
    Alcotest.test_case "mlir: SSA single assignment" `Quick
      test_mlir_ssa_single_assignment;
    Alcotest.test_case "mlir: from QIR module" `Quick
      test_mlir_from_qir_module;
  ]

let suite = suite @ names_suite @ mlir_suite
