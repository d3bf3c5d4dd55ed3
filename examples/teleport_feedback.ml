(* Quantum teleportation with measurement feedback.

   Teleports the state Ry(theta)|0> from qubit 0 to qubit 2 using a Bell
   pair and classically-controlled corrections — the adaptive-profile
   regime (mid-circuit measurement, feedback). The program goes through
   the full QIR path: circuit -> adaptive QIR -> runtime execution; the
   teleported state is verified by measuring qubit 2 over many shots and
   comparing against the theoretical probability sin^2(theta/2).

   Run with: dune exec examples/teleport_feedback.exe *)

open Qcircuit

let teleport theta =
  let b = Circuit.Build.create ~num_qubits:3 ~num_clbits:3 () in
  (* the payload state on qubit 0 *)
  Circuit.Build.gate b (Gate.Ry theta) [ 0 ];
  (* Bell pair between qubits 1 and 2 *)
  Circuit.Build.gate b Gate.H [ 1 ];
  Circuit.Build.gate b Gate.Cx [ 1; 2 ];
  (* Bell measurement of qubits 0 and 1 *)
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.measure b 1 1;
  (* classically-controlled corrections on qubit 2 *)
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 1 ]; value = 1 } Gate.X [ 2 ];
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0 ]; value = 1 } Gate.Z [ 2 ];
  (* read out the teleported qubit *)
  Circuit.Build.measure b 2 2;
  Circuit.Build.finish b

let () =
  let theta = Float.pi /. 3.0 in
  let circuit = teleport theta in
  let m = Qir.Qir_builder.build circuit in

  Format.printf "Teleporting Ry(%.4f)|0> — profile: %a@\n" theta
    Qir.Profile.pp (Qir.Profile_check.classify m);

  let shots = 4000 in
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:7 ~shots m).histogram
  in
  (* clbit 2 (the third recorded bit) is the teleported qubit's readout;
     result ids are allocated per measurement in order 0,1,2 *)
  let ones =
    List.fold_left
      (fun acc (key, n) -> if key.[2] = '1' then acc + n else acc)
      0 hist
  in
  let measured = float_of_int ones /. float_of_int shots in
  let expected = sin (theta /. 2.0) ** 2.0 in
  Format.printf "P(1) on the teleported qubit: measured %.3f, theory %.3f@\n"
    measured expected;
  if Float.abs (measured -. expected) < 0.05 then
    print_endline "Teleportation verified."
  else begin
    print_endline "Teleportation FAILED.";
    exit 1
  end;

  (* the same program is infeasible if corrections wait on a slow host
     with a tight coherence budget (Sec. IV-B) *)
  let tight =
    { Qhybrid.Latency.default with Qhybrid.Latency.coherence_budget_ns = 5000.0 }
  in
  let on_controller =
    Qhybrid.Feasibility.check ~params:tight
      ~placement:Qhybrid.Latency.Controller circuit
  in
  let on_host =
    Qhybrid.Feasibility.check ~params:tight ~placement:Qhybrid.Latency.Host
      circuit
  in
  Format.printf "@\nFeasibility under a 5 us coherence budget:@\n";
  Format.printf "  corrections on the controller: %a@\n"
    Qhybrid.Feasibility.pp_verdict on_controller;
  Format.printf "  corrections via the host:      %a@\n"
    Qhybrid.Feasibility.pp_verdict on_host
