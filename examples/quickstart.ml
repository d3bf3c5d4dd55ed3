(* Quickstart: the paper's Fig. 1 end to end.

   Build the Bell circuit, print it as OpenQASM 2 (Fig. 1 top left) and
   as QIR in both addressing styles (Fig. 1 right / Ex. 6), check the
   profile, and execute the QIR program on the simulator-backed runtime.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let bell = Qcircuit.Generate.bell () in

  print_endline "=== Circuit IR ===";
  print_string (Qcircuit.Circuit.to_string bell);

  print_endline "\n=== OpenQASM 2 (Fig. 1, top left) ===";
  print_string (Qcircuit.Qasm.to_string ~version:`V2 bell);

  print_endline "\n=== QIR, dynamic qubit addressing (Fig. 1, right) ===";
  print_string (Qir.Qir_builder.to_string ~addressing:`Dynamic bell);

  print_endline "\n=== QIR, static qubit addressing (Ex. 6) ===";
  let m = Qir.Qir_builder.build ~addressing:`Static bell in
  print_string (Llvm_ir.Printer.module_to_string m);

  Format.printf "\n=== Profile ===@\nThe static module conforms to: %a@\n"
    Qir.Profile.pp (Qir.Profile_check.classify m);

  print_endline "\n=== Execution (1000 shots, statevector backend) ===";
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:2024 ~shots:1000 m).histogram
  in
  Format.printf "%a" Qruntime.Executor.pp_histogram hist;

  (* parse the QIR right back into a circuit (the paper's Ex. 3) *)
  let reparsed = Qir.Qir_parser.parse m in
  Format.printf "\nRound-trip through QIR preserved the circuit: %b@\n"
    (Qcircuit.Circuit.equal (Qir.Qir_gateset.legalize bell) reparsed)
