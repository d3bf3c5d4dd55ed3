(* Tests for the simulator backends: statevector correctness against known
   states, stabilizer correctness, and agreement between the two on
   Clifford circuits. *)

open Qcircuit
open Qsim

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-9

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* ------------------------------------------------------------------ *)
(* Statevector                                                          *)

let test_bell_amplitudes () =
  let st = Statevector.create 2 in
  Statevector.apply st Gate.H [ 0 ];
  Statevector.apply st Gate.Cx [ 0; 1 ];
  (* (|00> + |11>) / sqrt 2 *)
  check float_t "p(|00>)" 0.5 (Statevector.probability st 0);
  check float_t "p(|01>)" 0.0 (Statevector.probability st 1);
  check float_t "p(|10>)" 0.0 (Statevector.probability st 2);
  check float_t "p(|11>)" 0.5 (Statevector.probability st 3)

let test_h_amplitudes () =
  let st = Statevector.create 1 in
  Statevector.apply st Gate.H [ 0 ];
  check float_t "re(0)" inv_sqrt2 (Statevector.amplitude st 0).Complex.re;
  check float_t "re(1)" inv_sqrt2 (Statevector.amplitude st 1).Complex.re

let test_x_flips () =
  let st = Statevector.create 3 in
  Statevector.apply st Gate.X [ 1 ];
  (* state |010> = index 2 *)
  check float_t "p(2)" 1.0 (Statevector.probability st 2)

let test_cx_control_order () =
  (* control qubit 1, target qubit 0: |10> (q1=1) -> |11> *)
  let st = Statevector.create 2 in
  Statevector.apply st Gate.X [ 1 ];
  Statevector.apply st Gate.Cx [ 1; 0 ];
  check float_t "p(|q1 q0> = 11)" 1.0 (Statevector.probability st 3)

let test_ccx_truth_table () =
  (* all 8 basis inputs: target flips iff both controls are 1 *)
  for input = 0 to 7 do
    let st = Statevector.create 3 in
    if input land 1 <> 0 then Statevector.apply st Gate.X [ 0 ];
    if input land 2 <> 0 then Statevector.apply st Gate.X [ 1 ];
    if input land 4 <> 0 then Statevector.apply st Gate.X [ 2 ];
    Statevector.apply st Gate.Ccx [ 0; 1; 2 ];
    let expected =
      if input land 1 <> 0 && input land 2 <> 0 then input lxor 4 else input
    in
    check float_t
      (Printf.sprintf "ccx input %d" input)
      1.0
      (Statevector.probability st expected)
  done

let test_swap () =
  let st = Statevector.create 2 in
  Statevector.apply st Gate.X [ 0 ];
  Statevector.apply st Gate.Swap [ 0; 1 ];
  check float_t "p(|q1=1,q0=0>)" 1.0 (Statevector.probability st 2)

let test_measure_collapses () =
  let st = Statevector.create ~seed:7 2 in
  Statevector.apply st Gate.H [ 0 ];
  Statevector.apply st Gate.Cx [ 0; 1 ];
  let m0 = Statevector.measure st 0 in
  let m1 = Statevector.measure st 1 in
  check bool_t "correlated" true (m0 = m1);
  (* state is now a basis state *)
  let idx = (if m0 then 1 else 0) lor if m1 then 2 else 0 in
  check float_t "collapsed" 1.0 (Statevector.probability st idx)

let test_measure_statistics () =
  (* H|0> measured 1000 times lands near 50/50 *)
  let ones = ref 0 in
  for seed = 1 to 1000 do
    let st = Statevector.create ~seed 1 in
    Statevector.apply st Gate.H [ 0 ];
    if Statevector.measure st 0 then incr ones
  done;
  check bool_t "roughly half ones" true (!ones > 400 && !ones < 600)

let test_reset () =
  let st = Statevector.create ~seed:3 1 in
  Statevector.apply st Gate.X [ 0 ];
  Statevector.reset st 0;
  check float_t "back to |0>" 1.0 (Statevector.probability st 0)

let test_add_qubit () =
  let st = Statevector.create 1 in
  Statevector.apply st Gate.H [ 0 ];
  Statevector.add_qubit st;
  check int_t "two qubits" 2 (Statevector.num_qubits st);
  (* new qubit in |0>, old state preserved *)
  check float_t "p(|00>)" 0.5 (Statevector.probability st 0);
  check float_t "p(|01>)" 0.5 (Statevector.probability st 1);
  check float_t "p(1 on new)" 0.0 (Statevector.prob_one st 1);
  (* the new qubit is usable *)
  Statevector.apply st Gate.Cx [ 0; 1 ];
  check float_t "entangled" 0.5 (Statevector.probability st 3)

let test_expectation_z () =
  let st = Statevector.create 1 in
  check float_t "<Z> of |0>" 1.0 (Statevector.expectation_z st 0);
  Statevector.apply st Gate.X [ 0 ];
  check float_t "<Z> of |1>" (-1.0) (Statevector.expectation_z st 0);
  Statevector.apply st Gate.H [ 0 ];
  check float_t "<Z> of |->" 0.0 (Statevector.expectation_z st 0)

let test_run_circuit_with_condition () =
  (* teleport-style correction: measure then conditionally flip *)
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:1 () in
  Circuit.Build.gate b Gate.X [ 0 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0 ]; value = 1 } Gate.X [ 1 ];
  let st, clbits = Statevector.run_circuit (Circuit.Build.finish b) in
  check bool_t "measured one" true clbits.(0);
  check float_t "correction applied" 1.0 (Statevector.prob_one st 1)

(* ------------------------------------------------------------------ *)
(* Gate-matrix properties                                               *)

let mat_mul_adjoint (u : Complex.t array array) =
  let n = Array.length u in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref Complex.zero in
          for k = 0 to n - 1 do
            acc := Complex.add !acc (Complex.mul u.(i).(k) (Complex.conj u.(j).(k)))
          done;
          !acc))

let is_unitary u =
  let p = mat_mul_adjoint u in
  let n = Array.length u in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let expected = if i = j then Complex.one else Complex.zero in
      if Complex.norm (Complex.sub p.(i).(j) expected) > 1e-9 then ok := false
    done
  done;
  !ok

let gen_gate_1q =
  let open QCheck2.Gen in
  let* theta = float_range (-10.0) 10.0 in
  let* phi = float_range (-10.0) 10.0 in
  let* lam = float_range (-10.0) 10.0 in
  oneofl
    [
      Gate.H; Gate.X; Gate.Y; Gate.Z; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
      Gate.Sx; Gate.Sxdg; Gate.Rx theta; Gate.Ry theta; Gate.Rz theta;
      Gate.P lam; Gate.U (theta, phi, lam);
    ]

let prop_1q_matrices_unitary =
  QCheck2.Test.make ~count:100 ~name:"1q gate matrices are unitary" gen_gate_1q
    (fun g -> is_unitary (Gate.matrix g))

let prop_2q_matrices_unitary =
  let gen =
    let open QCheck2.Gen in
    let* t = float_range (-10.0) 10.0 in
    oneofl
      [
        Gate.Cx; Gate.Cy; Gate.Cz; Gate.Ch; Gate.Swap; Gate.Crx t; Gate.Cry t;
        Gate.Crz t; Gate.Cp t; Gate.Cu (t, t /. 2.0, t /. 3.0);
      ]
  in
  QCheck2.Test.make ~count:100 ~name:"2q gate matrices are unitary" gen
    (fun g -> is_unitary (Gate.matrix g))

let prop_gate_inverse_is_inverse =
  QCheck2.Test.make ~count:100 ~name:"g . inverse g = identity on the state"
    QCheck2.Gen.(pair gen_gate_1q (int_range 0 1000))
    (fun (g, seed) ->
      let st = Statevector.create ~seed 2 in
      (* arbitrary state via a couple of gates *)
      Statevector.apply st (Gate.Ry 0.7) [ 0 ];
      Statevector.apply st Gate.Cx [ 0; 1 ];
      let reference = Statevector.create ~seed 2 in
      Statevector.apply reference (Gate.Ry 0.7) [ 0 ];
      Statevector.apply reference Gate.Cx [ 0; 1 ];
      Statevector.apply st g [ 0 ];
      Statevector.apply st (Gate.inverse g) [ 0 ];
      Float.abs (Statevector.fidelity st reference -. 1.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Stabilizer                                                           *)

let test_stab_bell () =
  let st = Stabilizer.create ~seed:5 2 in
  Stabilizer.apply st Gate.H [ 0 ];
  Stabilizer.apply st Gate.Cx [ 0; 1 ];
  check float_t "random outcome" 0.5 (Stabilizer.prob_one st 0);
  let m0 = Stabilizer.measure st 0 in
  let m1 = Stabilizer.measure st 1 in
  check bool_t "correlated" true (m0 = m1)

let test_stab_deterministic () =
  let st = Stabilizer.create 1 in
  check float_t "fresh |0>" 0.0 (Stabilizer.prob_one st 0);
  Stabilizer.apply st Gate.X [ 0 ];
  check float_t "after X" 1.0 (Stabilizer.prob_one st 0);
  check bool_t "measures one" true (Stabilizer.measure st 0);
  (* measurement of a deterministic state does not disturb it *)
  check bool_t "measures one again" true (Stabilizer.measure st 0)

let test_stab_rejects_t () =
  let st = Stabilizer.create 1 in
  match Stabilizer.apply st Gate.T [ 0 ] with
  | exception Stabilizer.Not_clifford _ -> ()
  | _ -> Alcotest.fail "expected Not_clifford"

let test_stab_add_qubit () =
  let st = Stabilizer.create ~seed:3 1 in
  Stabilizer.apply st Gate.X [ 0 ];
  Stabilizer.add_qubit st;
  check int_t "two qubits" 2 (Stabilizer.num_qubits st);
  check float_t "old qubit still 1" 1.0 (Stabilizer.prob_one st 0);
  check float_t "new qubit is 0" 0.0 (Stabilizer.prob_one st 1);
  Stabilizer.apply st Gate.Cx [ 0; 1 ];
  check float_t "cx onto new qubit" 1.0 (Stabilizer.prob_one st 1)

(* Agreement: on random Clifford circuits, the two backends assign the
   same single-qubit outcome probabilities. *)
let prop_backends_agree =
  QCheck2.Test.make ~count:40 ~name:"stabilizer agrees with statevector"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, n) ->
      let c = Generate.random_clifford ~seed ~gates:40 n in
      let sv = Statevector.create n in
      let sb = Stabilizer.create n in
      List.iter
        (fun (op : Circuit.op) ->
          match op.Circuit.kind with
          | Circuit.Gate (g, qs) ->
            Statevector.apply sv g qs;
            Stabilizer.apply sb g qs
          | _ -> ())
        c.Circuit.ops;
      let ok = ref true in
      for q = 0 to n - 1 do
        let p_sv = Statevector.prob_one sv q in
        let p_sb = Stabilizer.prob_one sb q in
        if Float.abs (p_sv -. p_sb) > 1e-9 then ok := false
      done;
      !ok)

(* Sampled measurement outcomes also agree in distribution on GHZ. *)
let test_stab_ghz_statistics () =
  let all_equal = ref 0 in
  for seed = 1 to 200 do
    let st = Stabilizer.create ~seed 4 in
    Stabilizer.apply st Gate.H [ 0 ];
    for i = 0 to 2 do
      Stabilizer.apply st Gate.Cx [ i; i + 1 ]
    done;
    let bits = List.init 4 (fun q -> Stabilizer.measure st q) in
    match bits with
    | b :: rest when List.for_all (Bool.equal b) rest -> incr all_equal
    | _ -> ()
  done;
  check int_t "GHZ outcomes all-0 or all-1" 200 !all_equal

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_1q_matrices_unitary;
      prop_2q_matrices_unitary;
      prop_gate_inverse_is_inverse;
      prop_backends_agree;
    ]

let suite =
  [
    Alcotest.test_case "sv: Bell amplitudes" `Quick test_bell_amplitudes;
    Alcotest.test_case "sv: H amplitudes" `Quick test_h_amplitudes;
    Alcotest.test_case "sv: X on middle qubit" `Quick test_x_flips;
    Alcotest.test_case "sv: CX operand order" `Quick test_cx_control_order;
    Alcotest.test_case "sv: CCX truth table" `Quick test_ccx_truth_table;
    Alcotest.test_case "sv: SWAP" `Quick test_swap;
    Alcotest.test_case "sv: measurement collapses" `Quick
      test_measure_collapses;
    Alcotest.test_case "sv: measurement statistics" `Quick
      test_measure_statistics;
    Alcotest.test_case "sv: reset" `Quick test_reset;
    Alcotest.test_case "sv: dynamic qubit growth" `Quick test_add_qubit;
    Alcotest.test_case "sv: Z expectation" `Quick test_expectation_z;
    Alcotest.test_case "sv: conditioned execution" `Quick
      test_run_circuit_with_condition;
    Alcotest.test_case "stab: Bell" `Quick test_stab_bell;
    Alcotest.test_case "stab: deterministic measurement" `Quick
      test_stab_deterministic;
    Alcotest.test_case "stab: rejects T" `Quick test_stab_rejects_t;
    Alcotest.test_case "stab: dynamic qubit growth" `Quick test_stab_add_qubit;
    Alcotest.test_case "stab: GHZ statistics" `Quick test_stab_ghz_statistics;
  ]
  @ props
