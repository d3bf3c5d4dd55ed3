(* Three-qubit repetition code with syndrome measurement and conditional
   correction — the error-correction regime the paper points to as the
   long-term driver of classical feedback (Sec. II-B, Sec. IV-B).

   The logical |1> is encoded across qubits 0..2; a deliberate X error
   is injected on a chosen qubit; two ancillas (3, 4) measure the ZZ
   syndromes; the decoder is expressed as classically-controlled X
   gates. The whole program is adaptive-profile QIR executed on the
   runtime. Finally the coherence feasibility of the decoder placement
   is evaluated (Sec. IV-B).

   Run with: dune exec examples/repetition_code.exe *)

open Qcircuit

(* Encodes |1>_L, injects an X on [error_on] (or none), extracts the two
   syndromes into clbits 0-1, applies the decoder, and measures the data
   qubits into clbits 2-4. *)
let repetition_round ~error_on =
  let b = Circuit.Build.create ~num_qubits:5 ~num_clbits:5 () in
  (* encode |1>_L = |111> *)
  Circuit.Build.gate b Gate.X [ 0 ];
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.gate b Gate.Cx [ 0; 2 ];
  (* error injection *)
  (match error_on with
  | Some q -> Circuit.Build.gate b Gate.X [ q ]
  | None -> ());
  (* syndrome 0: Z0 Z1 via ancilla 3; syndrome 1: Z1 Z2 via ancilla 4 *)
  Circuit.Build.gate b Gate.Cx [ 0; 3 ];
  Circuit.Build.gate b Gate.Cx [ 1; 3 ];
  Circuit.Build.gate b Gate.Cx [ 1; 4 ];
  Circuit.Build.gate b Gate.Cx [ 2; 4 ];
  Circuit.Build.measure b 3 0;
  Circuit.Build.measure b 4 1;
  (* decoder: s0 s1 = 10 -> X q0; 11 -> X q1; 01 -> X q2 *)
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0; 1 ]; value = 1 } Gate.X [ 0 ];
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0; 1 ]; value = 3 } Gate.X [ 1 ];
  Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 0; 1 ]; value = 2 } Gate.X [ 2 ];
  (* read out the data qubits *)
  Circuit.Build.measure b 0 2;
  Circuit.Build.measure b 1 3;
  Circuit.Build.measure b 2 4;
  Circuit.Build.finish b

let run_case name ~error_on =
  let circuit = repetition_round ~error_on in
  let m = Qir.Qir_builder.build circuit in
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:99 ~shots:50 m).histogram
  in
  (* data bits are positions 2..4 of the recorded output *)
  let recovered =
    List.for_all (fun (key, _) -> String.sub key 2 3 = "111") hist
  in
  Format.printf "%-22s -> logical state recovered: %b@\n" name recovered;
  if not recovered then begin
    Format.printf "  histogram:@\n%a" Qruntime.Executor.pp_histogram hist;
    exit 1
  end

let () =
  let m = Qir.Qir_builder.build (repetition_round ~error_on:(Some 1)) in
  Format.printf "Program profile: %a@\n@\n" Qir.Profile.pp
    (Qir.Profile_check.classify m);
  run_case "no error" ~error_on:None;
  run_case "X error on qubit 0" ~error_on:(Some 0);
  run_case "X error on qubit 1" ~error_on:(Some 1);
  run_case "X error on qubit 2" ~error_on:(Some 2);

  (* the Sec. IV-B point: with decoding on the host the syndrome-to-
     correction latency blows the coherence budget; on the controller it
     fits *)
  print_newline ();
  let circuit = repetition_round ~error_on:(Some 1) in
  List.iter
    (fun budget ->
      let params =
        { Qhybrid.Latency.default with
          Qhybrid.Latency.coherence_budget_ns = budget }
      in
      let ctl =
        Qhybrid.Feasibility.check ~params
          ~placement:Qhybrid.Latency.Controller circuit
      in
      let host =
        Qhybrid.Feasibility.check ~params ~placement:Qhybrid.Latency.Host
          circuit
      in
      Format.printf
        "coherence budget %8.0f ns: controller %-9s host %s@\n" budget
        (if ctl.Qhybrid.Feasibility.feasible then "feasible," else "REJECTED,")
        (if host.Qhybrid.Feasibility.feasible then "feasible" else "REJECTED"))
    [ 2_000.0; 20_000.0; 200_000.0 ]
