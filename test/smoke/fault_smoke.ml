(* Bounded fuzz/fault smoke: 200 randomized circuits run through the
   whole pipeline — circuit -> QIR text -> parse -> optimize ->
   execute — under a 1% injected fault rate with retries enabled.
   Transient faults must all be absorbed by the retry policy; any
   non-transient failure (or an exhausted retry budget) fails the run.

   Used by CI as a cheap end-to-end robustness gate:
     dune exec test/smoke/fault_smoke.exe *)

open Qcircuit

let circuits = 200
let shots = 3

(* Terminal measurements on every qubit so execution produces output. *)
let with_measurements (c : Circuit.t) =
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) -> Circuit.Build.gate b g qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Circuit.Build.finish b

let () =
  let spec =
    match Qsim.Faulty.spec_of_string "0.01" with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let policy =
    {
      Qruntime.Resilience.default with
      Qruntime.Resilience.max_retries = 20;
      sleep = false;
    }
  in
  let failures = ref 0 in
  let total_retries = ref 0 in
  for i = 0 to circuits - 1 do
    let seed = 1000 + i in
    let n = 2 + (i mod 5) in
    let gates = 10 + (i mod 4 * 10) in
    try
      let c =
        with_measurements
          (Generate.random ~seed ~parametric:(i mod 2 = 0) ~gates n)
      in
      (* full pipeline: build -> print -> parse -> optimize -> execute *)
      let text = Qir.Qir_builder.to_string c in
      let m = Llvm_ir.Parser.parse_module text in
      let m = Passes.Pipeline.optimize m in
      let r =
        Qruntime.Executor.run_shots_resilient ~policy ~seed
          ~backend:(`Faulty { spec with Qsim.Faulty.fault_seed = seed })
          ~max_tier:`Per_shot ~shots m
      in
      total_retries := !total_retries + r.Qruntime.Executor.retries;
      if r.Qruntime.Executor.degraded then begin
        incr failures;
        Printf.eprintf "circuit %d (seed %d): degraded result\n" i seed
      end
      else if r.Qruntime.Executor.completed <> shots then begin
        incr failures;
        Printf.eprintf "circuit %d (seed %d): %d/%d shots\n" i seed
          r.Qruntime.Executor.completed shots
      end
    with e ->
      incr failures;
      Printf.eprintf "circuit %d (seed %d): %s\n" i seed
        (Printexc.to_string e)
  done;
  Printf.printf
    "fault smoke: %d circuits x %d shots, 1%% fault rate, %d faults \
     injected, %d retries, %d failures\n"
    circuits shots
    (Qsim.Faulty.injected ())
    !total_retries !failures;
  if !failures > 0 then exit 1
