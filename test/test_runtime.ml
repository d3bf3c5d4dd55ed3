(* Tests for the QIR runtime and executor: end-to-end execution of QIR
   programs over both simulator backends (the paper's Ex. 5). *)

open Qcircuit
open Qir
open Qruntime

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let total hist = List.fold_left (fun acc (_, n) -> acc + n) 0 hist
let count key hist = Option.value ~default:0 (List.assoc_opt key hist)

let test_bell_static () =
  let m = Qir_builder.build ~addressing:`Static (Generate.bell ()) in
  let hist = (Executor.run_shots_resilient ~shots:200 m).histogram in
  check int_t "all shots accounted" 200 (total hist);
  check int_t "only 00 and 11" 0
    (total (List.filter (fun (k, _) -> k <> "00" && k <> "11") hist));
  check bool_t "both outcomes occur" true
    (count "00" hist > 40 && count "11" hist > 40)

let test_bell_dynamic () =
  let m = Qir_builder.build ~addressing:`Dynamic (Generate.bell ()) in
  let hist = (Executor.run_shots_resilient ~shots:200 m).histogram in
  check int_t "only 00 and 11" 0
    (total (List.filter (fun (k, _) -> k <> "00" && k <> "11") hist));
  check bool_t "both outcomes occur" true
    (count "00" hist > 40 && count "11" hist > 40)

(* A dynamically addressed program builds its register from its own
   allocations: examples/bell_dynamic.ll (required_num_qubits = 2,
   qubit_allocate_array(2)) simulates 2 qubits, not 4, on every tier
   and on the oracle. *)
let test_bell_dynamic_grows () =
  let ch = open_in_bin "../examples/bell_dynamic.ll" in
  let text = really_input_string ch (in_channel_length ch) in
  close_in ch;
  let m = Llvm_ir.Parser.parse_module text in
  check int_t "initial register" 0 (Runtime.initial_qubits m);
  check int_t "bytecode engine: 2 qubits" 2 (Executor.run ~seed:5 m).Executor.qubits;
  check int_t "oracle: 2 qubits" 2 (Executor.Reference.run ~seed:5 m).Executor.qubits;
  let faulty =
    match Qsim.Faulty.spec_of_string "gate=0.2,seed=3" with
    | Ok spec -> `Faulty spec
    | Error e -> Alcotest.fail e
  in
  let policy = { Resilience.default with Resilience.max_retries = 50; sleep = false } in
  match Executor.run_resilient ~policy ~seed:5 ~backend:faulty m with
  | Ok r -> check int_t "faulty backend: 2 qubits" 2 r.Executor.qubits
  | Error e -> Alcotest.fail (Qir_error.to_string e)

let test_paper_fig1_text () =
  (* the paper's own Fig. 1 program, executed end to end *)
  let m = Llvm_ir.Parser.parse_module (List.assoc "bell" Test_llvm_ir.fixtures) in
  let r = Executor.run ~seed:3 m in
  check int_t "one measurement" 1 r.Executor.runtime_stats.Runtime.measurements;
  check int_t "two gates" 2 r.Executor.runtime_stats.Runtime.gate_calls

let test_paper_ex4_loop_executes () =
  (* the for-loop QIR runs directly on the interpreter: no unrolling is
     needed for execution, only for transformation *)
  let m = Llvm_ir.Parser.parse_module (List.assoc "forloop" Test_llvm_ir.fixtures) in
  let r = Executor.run m in
  check int_t "ten H gates applied" 10
    r.Executor.runtime_stats.Runtime.gate_calls

let test_ghz_via_qir () =
  let hist =
    (Executor.run_shots_resilient ~seed:5 ~shots:100
       (Qir.Qir_builder.build (Generate.ghz 5)))
      .histogram
  in
  check int_t "only extreme outcomes" 0
    (total (List.filter (fun (k, _) -> k <> "00000" && k <> "11111") hist));
  check bool_t "both occur" true
    (count "00000" hist > 10 && count "11111" hist > 10)

let test_feedback_correction () =
  (* X q0; mz q0 -> c0; if (c0 == 1) X q1; mz q1 -> c1  ==> output "11" *)
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:2 () in
  Circuit.Build.gate b Gate.X [ 0 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0 ]; value = 1 } Gate.X [ 1 ];
  Circuit.Build.measure b 1 1;
  let m = Qir_builder.build (Circuit.Build.finish b) in
  let hist = (Executor.run_shots_resilient ~shots:20 m).histogram in
  check int_t "always 11" 20 (count "11" hist)

let test_feedback_not_taken () =
  (* no X: condition is false, correction skipped -> "00" *)
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:2 () in
  Circuit.Build.measure b 0 0;
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0 ]; value = 1 } Gate.X [ 1 ];
  Circuit.Build.measure b 1 1;
  let m = Qir_builder.build (Circuit.Build.finish b) in
  let hist = (Executor.run_shots_resilient ~shots:20 m).histogram in
  check int_t "always 00" 20 (count "00" hist)

let test_stabilizer_backend () =
  let m = Qir_builder.build (Generate.ghz 4) in
  let hist =
    (Executor.run_shots_resilient ~backend:`Stabilizer ~shots:100 m).histogram
  in
  check int_t "only extreme outcomes" 0
    (total (List.filter (fun (k, _) -> k <> "0000" && k <> "1111") hist));
  check bool_t "both occur" true
    (count "0000" hist > 10 && count "1111" hist > 10)

let test_backends_agree_on_distribution () =
  let m = Qir_builder.build (Generate.bell ()) in
  let sv =
    (Executor.run_shots_resilient ~seed:11 ~backend:`Statevector ~shots:300 m)
      .histogram
  in
  let sb =
    (Executor.run_shots_resilient ~seed:23 ~backend:`Stabilizer ~shots:300 m)
      .histogram
  in
  let frac hist key = float_of_int (count key hist) /. 300.0 in
  check bool_t "p(00) close" true
    (Float.abs (frac sv "00" -. frac sb "00") < 0.15)

let test_on_the_fly_allocation () =
  (* a static program touching qubit 5 with no declared register size:
     the runtime grows the register on demand (Sec. IV-A) *)
  let src =
    {|
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)

define void @main() "entry_point" {
entry:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 5 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 5 to ptr), ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
|}
  in
  let m = Llvm_ir.Parser.parse_module src in
  let r = Executor.run m in
  check Alcotest.string "measured one" "1" r.Executor.output

let test_read_result_before_measure_fails () =
  let src =
    {|
declare i1 @__quantum__qis__read_result__body(ptr)

define void @main() "entry_point" {
entry:
  %b = call i1 @__quantum__qis__read_result__body(ptr null)
  ret void
}
|}
  in
  let m = Llvm_ir.Parser.parse_module src in
  match Executor.run m with
  | exception Runtime.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected Runtime_error"

let test_rotation_angles_flow () =
  (* rx(pi) acts as X up to phase: deterministic 1 outcome *)
  let b = Circuit.Build.create ~num_qubits:1 ~num_clbits:1 () in
  Circuit.Build.gate b (Gate.Rx Float.pi) [ 0 ];
  Circuit.Build.measure b 0 0;
  let m = Qir_builder.build (Circuit.Build.finish b) in
  let hist = (Executor.run_shots_resilient ~shots:20 m).histogram in
  check int_t "always 1" 20 (count "1" hist)

let test_hybrid_program_with_classical_code () =
  (* a genuinely hybrid program: a classical loop computes the rotation
     count, gates execute conditionally on classical values *)
  let src =
    {|
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)

define void @main() "entry_point" {
entry:
  %n = alloca i64
  store i64 0, ptr %n
  br label %header
header:
  %i = load i64, ptr %n
  %c = icmp slt i64 %i, 3
  br i1 %c, label %body, label %after
body:
  call void @__quantum__qis__x__body(ptr null)
  %i2 = add i64 %i, 1
  store i64 %i2, ptr %n
  br label %header
after:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
|}
  in
  let m = Llvm_ir.Parser.parse_module src in
  let r = Executor.run m in
  (* three X gates leave the qubit in |1> *)
  check Alcotest.string "odd number of flips" "1" r.Executor.output;
  check int_t "three gates" 3 r.Executor.runtime_stats.Runtime.gate_calls

(* Property: for random measurement-free circuits, executing through the
   full QIR path applies exactly the same number of gates as the circuit
   has (after legalization). *)
let prop_gate_counts_match =
  QCheck2.Test.make ~count:30 ~name:"QIR execution applies every gate"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 2 5))
    (fun (seed, n) ->
      let c = Qir_gateset.legalize (Generate.random ~seed ~gates:30 n) in
      let m = Qir_builder.build ~addressing:`Static c in
      let r = Executor.run m in
      r.Executor.runtime_stats.Runtime.gate_calls = Circuit.gate_count c)

let props = List.map QCheck_alcotest.to_alcotest [ prop_gate_counts_match ]

let suite =
  [
    Alcotest.test_case "bell via static QIR" `Quick test_bell_static;
    Alcotest.test_case "bell via dynamic QIR" `Quick test_bell_dynamic;
    Alcotest.test_case "dynamic bell runs on a 2-qubit register" `Quick
      test_bell_dynamic_grows;
    Alcotest.test_case "paper Fig.1 executes" `Quick test_paper_fig1_text;
    Alcotest.test_case "paper Ex.4 loop executes" `Quick
      test_paper_ex4_loop_executes;
    Alcotest.test_case "GHZ via QIR" `Quick test_ghz_via_qir;
    Alcotest.test_case "feedback: correction taken" `Quick
      test_feedback_correction;
    Alcotest.test_case "feedback: correction skipped" `Quick
      test_feedback_not_taken;
    Alcotest.test_case "stabilizer backend" `Quick test_stabilizer_backend;
    Alcotest.test_case "backends agree" `Quick
      test_backends_agree_on_distribution;
    Alcotest.test_case "on-the-fly allocation (IV-A)" `Quick
      test_on_the_fly_allocation;
    Alcotest.test_case "read_result before measure" `Quick
      test_read_result_before_measure_fails;
    Alcotest.test_case "rotation angles" `Quick test_rotation_angles_flow;
    Alcotest.test_case "hybrid classical+quantum program" `Quick
      test_hybrid_program_with_classical_code;
  ]
  @ props

(* extra: the interpreter fuel limit propagates through the executor *)
let test_executor_fuel () =
  let src =
    "define void @main() \"entry_point\" {\nentry:\n  br label %l\nl:\n  br label %l\n}"
  in
  let m = Llvm_ir.Parser.parse_module src in
  match Executor.run ~fuel:500 m with
  | exception Llvm_ir.Ir_error.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* extra: an entry point with parameters is flagged by the profile check *)
let test_profile_entry_params () =
  let src =
    "define void @main(i64 %x) \"entry_point\" {\nentry:\n  ret void\n}"
  in
  let m = Llvm_ir.Parser.parse_module src in
  let vs = Qir.Profile_check.check Qir.Profile.Base m in
  check bool_t "parameters flagged" true
    (List.exists
       (fun v ->
         Astring.String.is_infix ~affix:"no parameters" v.Qir.Profile_check.what)
       vs)

let suite =
  suite
  @ [
      Alcotest.test_case "executor: fuel limit" `Quick test_executor_fuel;
      Alcotest.test_case "profile: entry params flagged" `Quick
        test_profile_entry_params;
    ]
