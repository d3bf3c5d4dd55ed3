(* Tests for commutation-aware cancellation. *)

open Qcircuit

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let build f =
  let b = Circuit.Build.create () in
  f b;
  Circuit.Build.finish b

let test_x_through_cx_target () =
  let c =
    build (fun b ->
        Circuit.Build.gate b Gate.X [ 1 ];
        Circuit.Build.gate b Gate.Cx [ 0; 1 ];
        Circuit.Build.gate b Gate.X [ 1 ])
  in
  let c', stats = Commute_opt.optimize c in
  check int_t "one cancellation" 1 stats.Commute_opt.cancelled;
  check int_t "cx remains" 1 (Circuit.size c')

let test_rz_through_cx_control () =
  let c =
    build (fun b ->
        Circuit.Build.gate b (Gate.Rz 0.3) [ 0 ];
        Circuit.Build.gate b Gate.Cx [ 0; 1 ];
        Circuit.Build.gate b (Gate.Rz 0.4) [ 0 ])
  in
  let c', stats = Commute_opt.optimize c in
  check int_t "one merge" 1 stats.Commute_opt.merged;
  check int_t "two ops left" 2 (Circuit.size c');
  match List.map (fun (o : Circuit.op) -> o.Circuit.kind) c'.Circuit.ops with
  | [ Circuit.Gate (Gate.Cx, _); Circuit.Gate (Gate.Rz t, [ 0 ]) ] ->
    check (Alcotest.float 1e-12) "sum" 0.7 t
  | _ -> Alcotest.fail "unexpected result"

let test_z_not_through_cx_target () =
  (* Z on the target does NOT commute with CX: nothing may combine *)
  let c =
    build (fun b ->
        Circuit.Build.gate b Gate.Z [ 1 ];
        Circuit.Build.gate b Gate.Cx [ 0; 1 ];
        Circuit.Build.gate b Gate.Z [ 1 ])
  in
  let c', _ = Commute_opt.optimize c in
  check int_t "all kept" 3 (Circuit.size c')

let test_x_not_through_cx_control () =
  let c =
    build (fun b ->
        Circuit.Build.gate b Gate.X [ 0 ];
        Circuit.Build.gate b Gate.Cx [ 0; 1 ];
        Circuit.Build.gate b Gate.X [ 0 ])
  in
  let c', _ = Commute_opt.optimize c in
  check int_t "all kept" 3 (Circuit.size c')

let test_cx_pair_through_rz () =
  let c =
    build (fun b ->
        Circuit.Build.gate b Gate.Cx [ 0; 1 ];
        Circuit.Build.gate b (Gate.Rz 0.5) [ 0 ];
        Circuit.Build.gate b Gate.X [ 1 ];
        Circuit.Build.gate b Gate.Cx [ 0; 1 ])
  in
  let c', stats = Commute_opt.optimize c in
  check int_t "cx pair cancelled" 1 stats.Commute_opt.cancelled;
  check int_t "two 1q gates left" 2 (Circuit.size c')

let test_measure_blocks () =
  let c =
    build (fun b ->
        Circuit.Build.gate b Gate.X [ 0 ];
        Circuit.Build.measure b 0 0;
        Circuit.Build.gate b Gate.X [ 0 ])
  in
  let c', _ = Commute_opt.optimize c in
  check int_t "all kept" 3 (Circuit.size c')

let test_condition_blocks () =
  let c =
    build (fun b ->
        Circuit.Build.measure b 1 0;
        Circuit.Build.gate b (Gate.Rz 0.1) [ 0 ];
        Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0 ]; value = 1 }
          (Gate.Rz 0.2) [ 0 ];
        Circuit.Build.gate b (Gate.Rz 0.3) [ 0 ])
  in
  let c', stats = Commute_opt.optimize c in
  ignore c';
  check int_t "nothing merged across the condition" 0
    stats.Commute_opt.merged

(* Soundness: optimization preserves the state on random circuits. *)
let prop_preserves_state =
  QCheck2.Test.make ~count:80
    ~name:"commutation-aware optimization preserves the state"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, n) ->
      let c = Generate.random ~seed ~gates:50 n in
      let c', _ = Commute_opt.optimize_fixpoint c in
      let st, _ = Qsim.Statevector.run_circuit c in
      let st', _ = Qsim.Statevector.run_circuit c' in
      Float.abs (Qsim.Statevector.fidelity st st' -. 1.0) < 1e-9)

let props = List.map QCheck_alcotest.to_alcotest [ prop_preserves_state ]

let suite =
  [
    Alcotest.test_case "x through cx target" `Quick test_x_through_cx_target;
    Alcotest.test_case "rz through cx control" `Quick
      test_rz_through_cx_control;
    Alcotest.test_case "z blocked at cx target" `Quick
      test_z_not_through_cx_target;
    Alcotest.test_case "x blocked at cx control" `Quick
      test_x_not_through_cx_control;
    Alcotest.test_case "cx pair through middle" `Quick
      test_cx_pair_through_rz;
    Alcotest.test_case "measure blocks" `Quick test_measure_blocks;
    Alcotest.test_case "condition blocks" `Quick test_condition_blocks;
  ]
  @ props
