(* qir-lint — static analysis diagnostics for QIR programs.

   Runs the structural verifier plus the dataflow analyses (qubit
   lifetimes, dead quantum code, proved-static addresses) and the
   whole-module interprocedural checks (call-graph rules, cross-call
   lifetimes via function effect summaries), reporting rule-tagged
   findings:

     QV001 error    IR verifier violation
     QL001 error    use of a released qubit
     QL002 error    double release
     QL003 warning  qubit (array) never released
     QL004 error    result read before any measurement
     QD001 warning  gate affects no measured/recorded qubit
     QD002 warning  call affects no measured/recorded qubit
     QP001 error    recursion reachable from the entry point
     QC001 warning  defined function unreachable from the entry point
     QA001 note     dynamic-looking address proved static
     QR001 e/w      qubit bound exceeds backend cap (--resources)
     QR002 warning  unbounded-trip loop on the quantum path (--resources)
     QR003 warning  declared qubit count below proven peak (--resources)
     QR004 note     T-count exceeds stabilizer eligibility (--resources)
     QR005 e/w      depth bound exceeds deadline budget (--resources)

   --resources adds the static resource certification: interprocedural
   symbolic upper/lower bounds on qubits, gates, T-count, depth and
   shot-loop trips, printed as a certificate (text) or emitted as the
   schema_version-stamped JSON certificate with diagnostics inline
   (--format json), plus the QR-series rules against the backend cap
   and optional deadline budget.

   --call-graph dumps the module's call graph (text or, with --format
   json, the schema_version-stamped JSON shape) instead of linting.
   Exit code 0 when nothing rises to error severity, 3 (the verify exit
   code) otherwise; --Werror promotes warnings. *)

open Cmdliner

let run input format werror notes ipo call_graph resources qubit_cap deadline
    throughput t_cap =
  Cli_common.protect @@ fun () ->
  let m = Cli_common.parse_qir_file input in
  if call_graph then begin
    let cg = Qir_analysis.Call_graph.build m in
    match format with
    | `Text -> Format.printf "%a" Qir_analysis.Call_graph.render_text cg
    | `Json -> Format.printf "%a" Qir_analysis.Call_graph.render_json cg
  end
  else begin
    (* certification assumes verifier-clean input: a QV001 module gets
       its findings and no certificate *)
    let analyses = Qir_analysis.Analyses.of_module m in
    let cert =
      if resources && Qir_analysis.Lint.verifier_findings m = [] then
        Some (Qir_analysis.Resource.certify analyses)
      else None
    in
    (* the printed certificate's findings come last, as QR rules *)
    let ds =
      Qir_analysis.Lint.run ~notes ~ipo analyses
      @
      match cert with
      | Some cert ->
        Qir_analysis.Resource_lint.check
          ~opts:
            {
              Qir_analysis.Resource_lint.qubit_cap = Some qubit_cap;
              deadline_s = deadline;
              throughput;
              stabilizer_t_cap = t_cap;
            }
          cert
      | None -> []
    in
    (match cert, format with
    | Some cert, `Text ->
      Format.printf "%a" Qir_analysis.Diagnostic.render_text ds;
      Format.printf "%a" Qir_analysis.Resource.pp_text cert
    | Some cert, `Json ->
      Format.printf "%a"
        (Qir_analysis.Resource.render_json ~diagnostics:ds)
        cert
    | None, `Text -> Format.printf "%a" Qir_analysis.Diagnostic.render_text ds
    | None, `Json ->
      Format.printf "%a"
        (Qir_analysis.Diagnostic.render_json
           ~module_name:m.Llvm_ir.Ir_module.source_name)
        ds);
    let failing =
      Qir_analysis.Diagnostic.errors ds > 0
      || (werror && Qir_analysis.Diagnostic.warnings ds > 0)
    in
    if failing then exit Qruntime.Qir_error.exit_verify
  end

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT.ll"
         ~doc:"QIR input file ('-' for stdin).")

let format =
  let enum_conv = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(value & opt enum_conv `Text & info [ "format" ] ~docv:"FORMAT"
         ~doc:"Report format: text (default) or json.")

let werror =
  Arg.(value & flag & info [ "Werror" ]
         ~doc:"Treat warnings as errors (exit 3).")

let notes =
  Arg.(value & opt bool true & info [ "notes" ] ~docv:"BOOL"
         ~doc:"Include informational notes (QA001). Default true.")

let ipo =
  Arg.(value & opt bool true & info [ "ipo" ] ~docv:"BOOL"
         ~doc:"Interprocedural lint: check the whole module with call \
               graph and function effect summaries. Default true; \
               --ipo=false restores the entry-point-only check.")

let call_graph =
  Arg.(value & flag & info [ "call-graph" ]
         ~doc:"Print the module's call graph (honors --format) instead \
               of linting.")

let resources =
  Arg.(value & flag & info [ "resources" ]
         ~doc:"Certify static resource bounds (qubits, gates, T-count, \
               depth, shot-loop trips) and check the QR-series rules. \
               Text output appends the certificate; --format json emits \
               the versioned certificate with diagnostics inline.")

let qubit_cap =
  Arg.(value & opt int Qsim.Statevector.max_qubits
       & info [ "qubit-cap" ] ~docv:"N"
           ~doc:"Backend register cap checked by QR001 (default: the \
                 statevector simulator's maximum).")

let deadline =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC"
         ~doc:"Job deadline budget for QR002/QR005: flags unbounded \
               shot loops and depth bounds that cannot finish in SEC \
               seconds at the --throughput gate rate.")

let throughput =
  Arg.(value & opt (some float) None & info [ "throughput" ] ~docv:"GATES/S"
         ~doc:"Measured gate throughput used with --deadline to turn \
               the depth bound into seconds (QR005).")

let t_cap =
  Arg.(value & opt int 0 & info [ "t-cap" ] ~docv:"N"
         ~doc:"T/rotation-count ceiling for stabilizer-path eligibility \
               (QR004). Default 0: any proven non-Clifford gate \
               disqualifies the tableau backend.")

let cmd =
  let doc = "static analysis diagnostics for QIR programs" in
  Cmd.v
    (Cmd.info "qir-lint" ~doc)
    Term.(
      const run $ input $ format $ werror $ notes $ ipo $ call_graph
      $ resources $ qubit_cap $ deadline $ throughput $ t_cap)

let () = exit (Cmd.eval cmd)
