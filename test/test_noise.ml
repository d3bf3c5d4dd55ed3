(* Tests for the depolarizing noise model and its interaction with
   circuit optimization (fewer gates -> higher fidelity). *)

open Qcircuit
open Qsim

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-9

let test_noiseless_is_ideal () =
  let c = Generate.qft 4 in
  let f =
    Noise.average_fidelity ~seed:3 ~params:Noise.noiseless ~trials:3 c
  in
  check float_t "fidelity 1" 1.0 f

let test_noise_reduces_fidelity () =
  let c = Generate.random ~seed:5 ~gates:120 4 in
  let f =
    Noise.average_fidelity ~seed:3
      ~params:{ Noise.default with Noise.p1 = 0.02; p2 = 0.05 }
      ~trials:30 c
  in
  check bool_t "below 0.9" true (f < 0.9);
  check bool_t "above 0" true (f > 0.0)

let test_more_gates_lower_fidelity () =
  let params = { Noise.default with Noise.p1 = 0.01; p2 = 0.03 } in
  let fid gates =
    Noise.average_fidelity ~seed:11 ~params ~trials:40
      (Generate.random ~seed:5 ~gates 4)
  in
  let f_short = fid 20 and f_long = fid 200 in
  check bool_t
    (Printf.sprintf "20 gates (%.3f) beats 200 gates (%.3f)" f_short f_long)
    true (f_short > f_long)

let test_optimization_improves_fidelity () =
  (* a heavily redundant circuit: the peephole-optimized version suffers
     fewer error opportunities under the same noise *)
  let b = Circuit.Build.create ~num_qubits:3 () in
  for _ = 1 to 12 do
    for q = 0 to 2 do
      Circuit.Build.gate b Gate.H [ q ];
      Circuit.Build.gate b Gate.H [ q ];
      Circuit.Build.gate b (Gate.Rz 0.1) [ q ];
      Circuit.Build.gate b (Gate.Rz 0.2) [ q ]
    done;
    Circuit.Build.gate b Gate.Cx [ 0; 1 ];
    Circuit.Build.gate b Gate.Cx [ 0; 1 ]
  done;
  Circuit.Build.gate b Gate.Cx [ 1; 2 ];
  let c = Circuit.Build.finish b in
  let optimized, _ = Commute_opt.optimize_fixpoint c in
  check bool_t "optimizer shrank the circuit" true
    (Circuit.size optimized < Circuit.size c / 3);
  let params = { Noise.default with Noise.p1 = 0.01; p2 = 0.03 } in
  let f_raw = Noise.average_fidelity ~seed:7 ~params ~trials:40 c in
  let f_opt = Noise.average_fidelity ~seed:7 ~params ~trials:40 optimized in
  check bool_t
    (Printf.sprintf "optimized %.3f > raw %.3f" f_opt f_raw)
    true (f_opt > f_raw)

let test_readout_error () =
  (* |0> measured with readout error flips sometimes *)
  let flips = ref 0 in
  for seed = 1 to 400 do
    let t =
      Noise.create ~seed
        ~params:{ Noise.noiseless with Noise.p_readout = 0.25 }
        1
    in
    if Noise.measure t 0 then incr flips
  done;
  check bool_t "some flips" true (!flips > 50);
  check bool_t "not too many" true (!flips < 150)

let test_error_count_reported () =
  let c = Generate.random ~seed:2 ~gates:300 4 in
  let t, _ =
    Noise.run_circuit ~seed:5
      ~params:{ Noise.default with Noise.p1 = 0.05; p2 = 0.1 }
      c
  in
  check bool_t "errors were injected" true (Noise.error_count t > 0)

let suite =
  [
    Alcotest.test_case "noiseless = ideal" `Quick test_noiseless_is_ideal;
    Alcotest.test_case "noise reduces fidelity" `Quick
      test_noise_reduces_fidelity;
    Alcotest.test_case "fidelity decreases with gates" `Quick
      test_more_gates_lower_fidelity;
    Alcotest.test_case "optimization improves fidelity" `Quick
      test_optimization_improves_fidelity;
    Alcotest.test_case "readout error" `Quick test_readout_error;
    Alcotest.test_case "error counter" `Quick test_error_count_reported;
  ]
