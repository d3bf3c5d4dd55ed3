(* End-to-end integration tests: textbook algorithms with exact known
   outcomes, executed through the complete QIR path (circuit -> QIR ->
   interpreter + runtime -> histogram). *)

open Qcircuit

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Runs through QIR and asserts the register (clbits as a bitstring,
   LSB first in position 0) always equals [expected]. *)
let assert_deterministic ?(shots = 30) circuit expected_bits =
  let m = Qir.Qir_builder.build circuit in
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:5 ~shots m).histogram
  in
  match hist with
  | [ (key, n) ] ->
    check int_t "all shots" shots n;
    check Alcotest.string "outcome" expected_bits key
  | _ ->
    Alcotest.failf "non-deterministic outcome: %s"
      (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) hist))

let bits_of_int ~width v =
  String.init width (fun i -> if v land (1 lsl i) <> 0 then '1' else '0')

let test_bernstein_vazirani () =
  List.iter
    (fun secret ->
      let expected =
        String.concat ""
          (List.map (fun b -> if b then "1" else "0") secret)
      in
      assert_deterministic (Algorithms.bernstein_vazirani secret) expected)
    [
      [ true; false; true ];
      [ false; false; false; true ];
      [ true; true; true; true; true ];
    ]

let test_deutsch_jozsa_constant () =
  assert_deterministic (Algorithms.deutsch_jozsa ~n:4 (`Constant false)) "0000";
  assert_deterministic (Algorithms.deutsch_jozsa ~n:4 (`Constant true)) "0000"

let test_deutsch_jozsa_balanced () =
  (* balanced oracles never measure all-zeros *)
  List.iter
    (fun mask ->
      let m = Qir.Qir_builder.build (Algorithms.deutsch_jozsa ~n:4 (`Balanced mask)) in
      let hist =
        (Qruntime.Executor.run_shots_resilient ~seed:5 ~shots:30 m).histogram
      in
      check bool_t "no all-zeros outcome" false
        (List.mem_assoc "0000" hist))
    [ 1; 6; 15 ]

let test_grover () =
  for marked = 0 to 3 do
    assert_deterministic (Algorithms.grover_2q ~marked)
      (bits_of_int ~width:2 marked)
  done

let test_phase_estimation () =
  List.iter
    (fun (bits, k) ->
      assert_deterministic (Algorithms.phase_estimation ~bits ~k)
        (bits_of_int ~width:bits k))
    [ (1, 1); (2, 3); (3, 5); (4, 11) ]

let test_qpe_via_stabilizer_rejected () =
  (* QPE uses non-Clifford phases: the stabilizer backend must refuse *)
  let m = Qir.Qir_builder.build (Algorithms.phase_estimation ~bits:3 ~k:5) in
  match Qruntime.Executor.run ~backend:`Stabilizer m with
  | exception Qsim.Stabilizer.Not_clifford _ -> ()
  | _ -> Alcotest.fail "expected Not_clifford"

(* The algorithms also survive a round-trip through textual QIR. *)
let test_bv_textual_roundtrip () =
  let c = Algorithms.bernstein_vazirani [ true; false; true ] in
  let text = Qir.Qir_builder.to_string c in
  let m = Llvm_ir.Parser.parse_module text in
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:5 ~shots:20 m).histogram
  in
  check bool_t "recovers secret" true (List.mem_assoc "101" hist);
  check int_t "deterministic" 1 (List.length hist)

(* And through hardware mapping: routing onto a line preserves the
   (deterministic) outcome. *)
let test_bv_routed () =
  let c = Algorithms.bernstein_vazirani [ true; true; false ] in
  let hw = Qmapping.Hardware.linear 4 in
  let routed, _report = Qmapping.Mapper.map ~allocate:false hw c in
  let m = Qir.Qir_builder.build routed in
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:9 ~shots:20 m).histogram
  in
  match hist with
  | [ (key, 20) ] -> check Alcotest.string "outcome" "110" key
  | _ -> Alcotest.fail "routing broke determinism"

let suite =
  [
    Alcotest.test_case "Bernstein-Vazirani" `Quick test_bernstein_vazirani;
    Alcotest.test_case "Deutsch-Jozsa constant" `Quick
      test_deutsch_jozsa_constant;
    Alcotest.test_case "Deutsch-Jozsa balanced" `Quick
      test_deutsch_jozsa_balanced;
    Alcotest.test_case "Grover 2-qubit" `Quick test_grover;
    Alcotest.test_case "phase estimation" `Quick test_phase_estimation;
    Alcotest.test_case "QPE rejected by stabilizer" `Quick
      test_qpe_via_stabilizer_rejected;
    Alcotest.test_case "BV textual round-trip" `Quick test_bv_textual_roundtrip;
    Alcotest.test_case "BV routed on hardware" `Quick test_bv_routed;
  ]
