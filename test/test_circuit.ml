(* Tests for the circuit IR, the OpenQASM front end and the peephole
   optimizer. *)

open Qcircuit

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* The paper's Fig. 1 (top left). *)
let bell_qasm2 =
  {|OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q -> c;
|}

let test_parse_bell () =
  let c = Qasm.parse bell_qasm2 in
  check int_t "qubits" 2 c.Circuit.num_qubits;
  check int_t "clbits" 2 c.Circuit.num_clbits;
  check bool_t "equals generated Bell" true
    (Circuit.equal c (Generate.bell ()))

let test_parse_gate_macro () =
  let src =
    {|OPENQASM 2.0;
include "qelib1.inc";
gate majority a, b, c {
  cx c, b;
  cx c, a;
  ccx a, b, c;
}
qreg q[3];
majority q[0], q[1], q[2];
|}
  in
  let c = Qasm.parse src in
  check int_t "three ops" 3 (Circuit.size c);
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c.Circuit.ops with
  | [ Circuit.Gate (Gate.Cx, [ 2; 1 ]); Circuit.Gate (Gate.Cx, [ 2; 0 ]);
      Circuit.Gate (Gate.Ccx, [ 0; 1; 2 ]) ] ->
    ()
  | _ -> Alcotest.fail "unexpected expansion"

let test_parse_parametric_macro () =
  let src =
    {|OPENQASM 2.0;
include "qelib1.inc";
gate foo(t) a { rz(t/2) a; rz(t/2) a; }
qreg q[1];
foo(pi) q[0];
|}
  in
  let c = Qasm.parse src in
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c.Circuit.ops with
  | [ Circuit.Gate (Gate.Rz a, [ 0 ]); Circuit.Gate (Gate.Rz b, [ 0 ]) ] ->
    check (Alcotest.float 1e-12) "half pi" (Float.pi /. 2.0) a;
    check (Alcotest.float 1e-12) "half pi" (Float.pi /. 2.0) b
  | _ -> Alcotest.fail "unexpected expansion"

let test_parse_broadcast () =
  let src =
    {|OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q;
cx q[0], q;
|}
  in
  (* broadcasting cx q[0], q would alias q[0] with itself: error *)
  match Qasm.parse src with
  | exception Qasm.Error _ -> ()
  | _ -> Alcotest.fail "expected aliasing error"

let test_parse_broadcast_h () =
  let src =
    {|OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q;
measure q -> c;
|}
  in
  let c = Qasm.parse src in
  check int_t "4 h + 4 measure" 8 (Circuit.size c);
  check int_t "h count" 4 (Circuit.gate_count ~name:"h" c)

let test_parse_condition () =
  let src =
    {|OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
measure q[0] -> c[0];
if (c == 1) x q[1];
|}
  in
  let c = Qasm.parse src in
  match List.rev c.Circuit.ops with
  | { Circuit.kind = Circuit.Gate (Gate.X, [ 1 ]); cond = Some cond } :: _ ->
    check (Alcotest.list int_t) "condition bits" [ 0; 1 ] cond.Circuit.cbits;
    check int_t "condition value" 1 cond.Circuit.value
  | _ -> Alcotest.fail "expected conditioned x"

let test_parse_two_registers () =
  let src =
    {|OPENQASM 2.0;
include "qelib1.inc";
qreg a[2];
qreg b[3];
creg c[2];
h a[1];
x b[2];
|}
  in
  let c = Qasm.parse src in
  check int_t "5 qubits" 5 c.Circuit.num_qubits;
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c.Circuit.ops with
  | [ Circuit.Gate (Gate.H, [ 1 ]); Circuit.Gate (Gate.X, [ 4 ]) ] -> ()
  | _ -> Alcotest.fail "flat indices wrong"

let test_parse_errors () =
  let cases =
    [
      "no header", "qreg q[1];";
      "unknown gate", "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];";
      "out of range", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nh q[3];";
      "bad include", "OPENQASM 2.0;\ninclude \"other.inc\";";
      ( "opaque applied",
        "OPENQASM 2.0;\nopaque magic a;\nqreg q[1];\nmagic q[0];" );
    ]
  in
  List.iter
    (fun (name, src) ->
      match Qasm.parse src with
      | exception Qasm.Error _ -> ()
      | _ -> Alcotest.failf "%s: expected parse error" name)
    cases

let test_qasm2_roundtrip_bell () =
  let c = Generate.bell () in
  let printed = Qasm.to_string ~version:`V2 c in
  let c' = Qasm.parse printed in
  check bool_t "roundtrip" true (Circuit.equal c c')

let test_qasm2_roundtrip_generated () =
  List.iter
    (fun c ->
      let printed = Qasm.to_string ~version:`V2 c in
      let c' =
        try Qasm.parse printed
        with Qasm.Error (l, m) ->
          Alcotest.failf "line %d: %s in\n%s" l m printed
      in
      check int_t "same op count" (Circuit.size c) (Circuit.size c');
      check int_t "same qubits" c.Circuit.num_qubits c'.Circuit.num_qubits)
    [
      Generate.ghz 5;
      Generate.qft 4;
      Generate.random ~seed:7 ~gates:50 4;
      Generate.sequential_workers ~workers:3 ~span:4 2;
    ]

let test_qasm2_splits_bit_condition () =
  (* OpenQASM 2 compares whole registers only: each single-bit
     condition reads a 1-bit register of its own, and the pieces keep
     every bit's flat index, so the program reads back unchanged *)
  let c = Generate.feedback_rounds ~rounds:3 3 in
  let c' = Qasm.parse (Qasm.to_string ~version:`V2 c) in
  check int_t "three 1-bit registers" 3 (List.length c'.Circuit.cregs);
  check bool_t "same ops" true (c.Circuit.ops = c'.Circuit.ops);
  List.iter
    (fun seed ->
      let _, bits = Qsim.Statevector.run_circuit ~seed c in
      let _, bits' = Qsim.Statevector.run_circuit ~seed c' in
      check (Alcotest.array bool_t) "clbits" bits bits')
    [ 1; 2; 3; 4; 5 ]

let test_qasm2_rejects_scattered_condition () =
  (* bits that are no run of one register, and runs that overlap
     without coinciding, have no OpenQASM 2 spelling *)
  let cond cbits = Circuit.gate ~cond:{ Circuit.cbits; value = 1 } Gate.X [ 0 ] in
  List.iter
    (fun conds ->
      let c =
        Circuit.create ~num_qubits:1 ~num_clbits:3
          (List.init 3 (fun cl -> Circuit.measure 0 cl) @ List.map cond conds)
      in
      match Qasm.to_string ~version:`V2 c with
      | exception Qasm.Unsupported _ -> ()
      | _ -> Alcotest.fail "expected Qasm.Unsupported")
    [ [ [ 0; 2 ] ]; [ [ 1; 0 ] ]; [ [ 0; 1 ]; [ 1; 2 ] ] ]

let test_qasm3_accepts_bit_condition () =
  let c = Generate.feedback_rounds ~rounds:3 3 in
  let c' = Qasm.parse (Qasm.to_string ~version:`V3 c) in
  check int_t "same op count" (Circuit.size c) (Circuit.size c')

(* ------------------------------------------------------------------ *)
(* OpenQASM 3                                                           *)

let bell_qasm3 =
  {|OPENQASM 3;
include "stdgates.inc";
qubit[2] q;
bit[2] c;
h q[0];
cx q[0], q[1];
c[0] = measure q[0];
c[1] = measure q[1];
|}

let test_qasm3_bell () =
  let c = Qasm.parse bell_qasm3 in
  check bool_t "equals generated Bell" true (Circuit.equal c (Generate.bell ()))

let test_qasm3_for_loop () =
  (* the paper's Ex. 4 workload, written in OpenQASM 3 *)
  let src =
    {|OPENQASM 3;
include "stdgates.inc";
qubit[10] q;
for uint i in [0:9] { h q[i]; }
|}
  in
  let c = Qasm.parse src in
  check int_t "ten h gates" 10 (Circuit.gate_count ~name:"h" c);
  check bool_t "equals h_layer" true (Circuit.equal c (Generate.h_layer 10))

let test_qasm3_for_step_and_nesting () =
  let src =
    {|OPENQASM 3;
include "stdgates.inc";
qubit[8] q;
for uint i in [0:2:6] {
  for uint j in [0:1] {
    x q[i + j];
  }
}
|}
  in
  let c = Qasm.parse src in
  check int_t "8 x gates" 8 (Circuit.gate_count ~name:"x" c)

let test_qasm3_if () =
  let src =
    {|OPENQASM 3;
include "stdgates.inc";
qubit[2] q;
bit[1] c;
h q[0];
c[0] = measure q[0];
if (c[0] == 1) { x q[1]; }
|}
  in
  let c = Qasm.parse src in
  match List.rev c.Circuit.ops with
  | { Circuit.kind = Circuit.Gate (Gate.X, [ 1 ]); cond = Some cond } :: _ ->
    check int_t "value" 1 cond.Circuit.value
  | _ -> Alcotest.fail "expected conditioned x"

let test_qasm3_roundtrip () =
  List.iter
    (fun c ->
      let printed = Qasm.to_string ~version:`V3 c in
      let c' =
        try Qasm.parse printed
        with Qasm.Error (l, m) ->
          Alcotest.failf "line %d: %s in\n%s" l m printed
      in
      check int_t "same op count" (Circuit.size c) (Circuit.size c'))
    [ Generate.bell (); Generate.ghz 4; Generate.qft 3 ]

(* ------------------------------------------------------------------ *)
(* Circuit metrics                                                      *)

let test_depth () =
  let c = Generate.ghz 4 in
  (* h, cx, cx, cx chain + measurements: depth 4 + 1 *)
  check int_t "ghz depth" 5 (Circuit.depth c);
  check int_t "h_layer depth" 1 (Circuit.depth (Generate.h_layer 8))

let test_validate_rejects () =
  let bad () =
    Circuit.validate
      (Circuit.create ~num_qubits:1 ~num_clbits:0
         [ Circuit.gate Gate.Cx [ 0; 0 ] ])
  in
  match bad () with
  | exception Circuit.Invalid _ -> ()
  | _ -> Alcotest.fail "expected Invalid"

let test_inverse () =
  let c = Generate.qft 3 in
  let ci = Circuit.inverse c in
  check int_t "same size" (Circuit.size c) (Circuit.size ci);
  (* applying qft then its inverse is the identity on |0..0> *)
  let st, _ = Qsim.Statevector.run_circuit (Circuit.append c ci) in
  check (Alcotest.float 1e-9) "back to |000>" 1.0
    (Qsim.Statevector.probability st 0)

(* ------------------------------------------------------------------ *)
(* Peephole optimizer                                                   *)

let test_opt_cancels_hh () =
  let b = Circuit.Build.create ~num_qubits:1 () in
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.gate b Gate.H [ 0 ];
  let c, stats = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "empty" 0 (Circuit.size c);
  check int_t "one cancellation" 1 stats.Commute_opt.cancelled

let test_opt_cancels_cx_pair () =
  let b = Circuit.Build.create ~num_qubits:2 () in
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  let c, _ = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "empty" 0 (Circuit.size c)

let test_opt_does_not_cancel_reversed_cx () =
  let b = Circuit.Build.create ~num_qubits:2 () in
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.gate b Gate.Cx [ 1; 0 ];
  let c, _ = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "both kept" 2 (Circuit.size c)

let test_opt_merges_rotations () =
  let b = Circuit.Build.create ~num_qubits:1 () in
  Circuit.Build.gate b (Gate.Rz 0.3) [ 0 ];
  Circuit.Build.gate b (Gate.Rz 0.4) [ 0 ];
  let c, stats = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "merged to one" 1 (Circuit.size c);
  check int_t "one merge" 1 stats.Commute_opt.merged;
  match (List.hd c.Circuit.ops).Circuit.kind with
  | Circuit.Gate (Gate.Rz t, _) -> check (Alcotest.float 1e-12) "sum" 0.7 t
  | _ -> Alcotest.fail "expected rz"

let test_opt_t_t_becomes_s () =
  let b = Circuit.Build.create ~num_qubits:1 () in
  Circuit.Build.gate b Gate.T [ 0 ];
  Circuit.Build.gate b Gate.T [ 0 ];
  let c, _ = Commute_opt.optimize (Circuit.Build.finish b) in
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c.Circuit.ops with
  | [ Circuit.Gate (Gate.S, [ 0 ]) ] -> ()
  | _ -> Alcotest.fail "expected a single s gate"

let test_opt_blocked_by_intervening_op () =
  let b = Circuit.Build.create ~num_qubits:2 () in
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.gate b Gate.H [ 0 ];
  let c, _ = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "nothing cancelled" 3 (Circuit.size c)

let test_opt_blocked_by_measure () =
  let b = Circuit.Build.create ~num_qubits:1 ~num_clbits:1 () in
  Circuit.Build.gate b Gate.X [ 0 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.gate b Gate.X [ 0 ];
  let c, _ = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "nothing cancelled" 3 (Circuit.size c)

let test_opt_conditions_block () =
  let b = Circuit.Build.create ~num_qubits:1 ~num_clbits:1 () in
  let cond = { Circuit.cbits = [ 0 ]; value = 1 } in
  Circuit.Build.gate b Gate.X [ 0 ];
  Circuit.Build.gate b ~cond Gate.X [ 0 ];
  let c, _ = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "conditioned op not cancelled" 2 (Circuit.size c)

let test_opt_removes_identity_rotation () =
  let b = Circuit.Build.create ~num_qubits:1 () in
  Circuit.Build.gate b (Gate.Rz 0.0) [ 0 ];
  Circuit.Build.gate b Gate.X [ 0 ];
  let c, stats = Commute_opt.optimize (Circuit.Build.finish b) in
  check int_t "one left" 1 (Circuit.size c);
  check int_t "identity removed" 1 stats.Commute_opt.removed_identities

(* Property: peephole optimization preserves the state (up to global
   phase, hence fidelity) on measurement-free random circuits. *)
let prop_opt_preserves_state =
  QCheck2.Test.make ~count:50 ~name:"peephole optimization preserves the state"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 2 5))
    (fun (seed, n) ->
      let c = Generate.random ~seed ~gates:60 n in
      let c', _ = Commute_opt.optimize_fixpoint c in
      let st, _ = Qsim.Statevector.run_circuit c in
      let st', _ = Qsim.Statevector.run_circuit c' in
      Float.abs (Qsim.Statevector.fidelity st st' -. 1.0) < 1e-9)

(* Property: QASM2 round-trip preserves the circuit semantics. *)
let prop_qasm2_roundtrip =
  QCheck2.Test.make ~count:50 ~name:"qasm2 round-trip preserves the state"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 2 5))
    (fun (seed, n) ->
      let c = Generate.random ~seed ~gates:40 n in
      let c' = Qasm.parse (Qasm.to_string ~version:`V2 c) in
      let st, _ = Qsim.Statevector.run_circuit c in
      let st', _ = Qsim.Statevector.run_circuit c' in
      Float.abs (Qsim.Statevector.fidelity st st' -. 1.0) < 1e-9)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_opt_preserves_state; prop_qasm2_roundtrip ]

let suite =
  [
    Alcotest.test_case "qasm2: Fig.1 Bell" `Quick test_parse_bell;
    Alcotest.test_case "qasm2: gate macros" `Quick test_parse_gate_macro;
    Alcotest.test_case "qasm2: parametric macros" `Quick
      test_parse_parametric_macro;
    Alcotest.test_case "qasm2: aliasing broadcast rejected" `Quick
      test_parse_broadcast;
    Alcotest.test_case "qasm2: whole-register broadcast" `Quick
      test_parse_broadcast_h;
    Alcotest.test_case "qasm2: if condition" `Quick test_parse_condition;
    Alcotest.test_case "qasm2: multiple registers" `Quick
      test_parse_two_registers;
    Alcotest.test_case "qasm2: error cases" `Quick test_parse_errors;
    Alcotest.test_case "qasm2: Bell round-trip" `Quick
      test_qasm2_roundtrip_bell;
    Alcotest.test_case "qasm2: generated round-trips" `Quick
      test_qasm2_roundtrip_generated;
    Alcotest.test_case "qasm2: bit condition splits register" `Quick
      test_qasm2_splits_bit_condition;
    Alcotest.test_case "qasm2: scattered condition rejected" `Quick
      test_qasm2_rejects_scattered_condition;
    Alcotest.test_case "qasm3: bit condition round-trips" `Quick
      test_qasm3_accepts_bit_condition;
    Alcotest.test_case "qasm3: Bell" `Quick test_qasm3_bell;
    Alcotest.test_case "qasm3: Ex.4 for-loop" `Quick test_qasm3_for_loop;
    Alcotest.test_case "qasm3: stepped and nested loops" `Quick
      test_qasm3_for_step_and_nesting;
    Alcotest.test_case "qasm3: if condition" `Quick test_qasm3_if;
    Alcotest.test_case "qasm3: round-trips" `Quick test_qasm3_roundtrip;
    Alcotest.test_case "circuit: depth" `Quick test_depth;
    Alcotest.test_case "circuit: validation" `Quick test_validate_rejects;
    Alcotest.test_case "circuit: inverse undoes qft" `Quick test_inverse;
    Alcotest.test_case "opt: H H cancels" `Quick test_opt_cancels_hh;
    Alcotest.test_case "opt: CX CX cancels" `Quick test_opt_cancels_cx_pair;
    Alcotest.test_case "opt: reversed CX kept" `Quick
      test_opt_does_not_cancel_reversed_cx;
    Alcotest.test_case "opt: rotations merge" `Quick test_opt_merges_rotations;
    Alcotest.test_case "opt: T T -> S" `Quick test_opt_t_t_becomes_s;
    Alcotest.test_case "opt: intervening op blocks" `Quick
      test_opt_blocked_by_intervening_op;
    Alcotest.test_case "opt: measure blocks" `Quick test_opt_blocked_by_measure;
    Alcotest.test_case "opt: conditions block" `Quick test_opt_conditions_block;
    Alcotest.test_case "opt: identity rotation removed" `Quick
      test_opt_removes_identity_rotation;
  ]
  @ props
