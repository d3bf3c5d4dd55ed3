(* qirc — transform, optimize and check QIR programs.

   Examples:
     qirc input.ll --lower                      # flatten towards base profile
     qirc input.ll --pass mem2reg --pass dce    # run individual passes
     qirc input.ll --check base                 # profile conformance report
     qirc input.ll --to-static                  # rewrite qubit addressing
     qirc input.ll --emit qasm2                 # transpile to OpenQASM 2 *)

open Cmdliner

let run input passes lower optimize opt_quantum check addressing emit verify
    lint resources werror output =
  Cli_common.protect @@ fun () ->
  let m = Cli_common.parse_qir_file input in
  (* 0. the passes assume a verified module *)
  Cli_common.verify_or_exit m;
  (* 1. individual passes, in order *)
  let m =
    List.fold_left
      (fun m name ->
        match Qir_analysis.Pass_table.find name with
        | Some p -> fst (p.Passes.Pass.mrun m)
        | None ->
          Cli_common.die ~code:Qruntime.Qir_error.exit_usage
            "unknown pass %s (available: %s)" name
            (String.concat ", " Qir_analysis.Pass_table.names))
      m passes
  in
  (* 2. preset pipelines *)
  let m = if optimize then Passes.Pipeline.optimize m else m in
  let m = if lower then Qir.Lowering.lower_module m else m in
  (* 2b. value-semantics quantum optimizer *)
  let m = if opt_quantum then fst (Qir_analysis.Qdf_opt.optimize m) else m in
  (* 3. addressing conversion *)
  let m =
    match addressing with
    | None -> m
    | Some `Static -> Qir.Addressing.to_static m
    | Some `Dynamic -> Qir.Addressing.to_dynamic m
  in
  (* 4. verification of the transformed module — violations are
     reported and exit through the unified error taxonomy (Verify kind,
     exit 3) *)
  if verify then Cli_common.verify_or_exit m;
  let analyses = Qir_analysis.Analyses.of_module m in
  (* 5. lint *)
  if lint then begin
    let ds = Qir_analysis.Lint.run analyses in
    Format.eprintf "%a" Qir_analysis.Diagnostic.render_text ds;
    let failing =
      List.exists
        (fun (d : Qir_analysis.Diagnostic.t) ->
          match d.Qir_analysis.Diagnostic.severity with
          | Qir_analysis.Diagnostic.Error -> true
          | Qir_analysis.Diagnostic.Warning -> werror
          | Qir_analysis.Diagnostic.Note -> false)
        ds
    in
    if failing then
      exit
        (Qruntime.Qir_error.exit_code
           (Qruntime.Qir_error.of_diagnostic (List.hd ds)))
  end;
  (* 5b. resource certification: the certificate and the QR-series
     findings against the simulator's register cap, on stderr so the
     emitted program on stdout stays clean. Errors (QR001 with a
     proven bound over the cap) fail like --lint. *)
  if resources then begin
    let cert = Qir_analysis.Resource.certify analyses in
    let opts =
      {
        Qir_analysis.Resource_lint.default_opts with
        Qir_analysis.Resource_lint.qubit_cap = Some Qsim.Statevector.max_qubits;
      }
    in
    let ds = Qir_analysis.Resource_lint.check ~opts cert in
    Format.eprintf "%a" Qir_analysis.Resource.pp_text cert;
    Format.eprintf "%a" Qir_analysis.Diagnostic.render_text ds;
    if
      Qir_analysis.Diagnostic.errors ds > 0
      || (werror && Qir_analysis.Diagnostic.warnings ds > 0)
    then exit Qruntime.Qir_error.exit_verify
  end;
  (* 6. profile check *)
  (match check with
  | None -> ()
  | Some profile -> (
    match Qir.Profile_check.check profile m with
    | [] ->
      Format.eprintf "conforms to %s@." (Qir.Profile.name profile)
    | vs ->
      List.iter
        (fun v -> Format.eprintf "%a@\n" Qir.Profile_check.pp_violation v)
        vs;
      exit Qruntime.Qir_error.exit_verify));
  (* 7. output *)
  let text =
    match emit with
    | `Qir -> Llvm_ir.Printer.module_to_string m
    | (`V2 | `V3) as version ->
      Qcircuit.Qasm.to_string ~version (Qir.Qir_parser.parse_recorded m)
    | `Circuit -> Qcircuit.Circuit.to_string (Qir.Qir_parser.parse_recorded m)
    | `Mlir -> Qir.Mlir_emit.emit_module m
    | `None -> ""
  in
  Cli_common.write_output output text

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT.ll"
         ~doc:"QIR input file ('-' for stdin).")

let passes =
  Arg.(value & opt_all string [] & info [ "pass"; "p" ] ~docv:"NAME"
         ~doc:"Run an individual pass (repeatable): mem2reg, const-fold, \
               sccp, dce, simplify-cfg, loop-unroll, inline.")

let lower =
  Arg.(value & flag & info [ "lower" ]
         ~doc:"Run the lowering pipeline (inline, mem2reg, constant \
               propagation, loop unrolling, cleanup).")

let optimize =
  Arg.(value & flag & info [ "O"; "optimize" ]
         ~doc:"Run the standard optimization pipeline.")

let opt_quantum =
  Arg.(value & flag & info [ "opt-quantum" ]
         ~doc:"Run the value-semantics quantum dataflow optimizer \
               (cancellation, rotation merging, early release).")

let profile_conv =
  Arg.enum
    [ ("base", Qir.Profile.Base); ("adaptive", Qir.Profile.Adaptive);
      ("full", Qir.Profile.Full) ]

let check =
  Arg.(value & opt (some profile_conv) None & info [ "check" ] ~docv:"PROFILE"
         ~doc:"Check conformance against a QIR profile (base, adaptive, full).")

let addressing =
  let enum_conv = Arg.enum [ ("static", `Static); ("dynamic", `Dynamic) ] in
  Arg.(value & opt (some enum_conv) None & info [ "addressing" ] ~docv:"STYLE"
         ~doc:"Convert qubit addressing (static or dynamic).")

let emit =
  let enum_conv =
    Arg.enum
      [ ("qir", `Qir); ("qasm2", `V2); ("qasm3", `V3);
        ("circuit", `Circuit); ("mlir", `Mlir); ("none", `None) ]
  in
  Arg.(value & opt enum_conv `Qir & info [ "emit" ] ~docv:"FORMAT"
         ~doc:"Output format: qir (default), qasm2, qasm3, circuit, mlir, none.")

let verify =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"Run the IR verifier again after the transformations and \
               fail on violations (the input is always verified).")

let lint =
  Arg.(value & flag & info [ "lint" ]
         ~doc:"Run the qir-lint analyses and fail on error-severity \
               findings.")

let resources =
  Arg.(value & flag & info [ "resources" ]
         ~doc:"Certify static resource bounds (qubits, gates, T-count, \
               depth, shot-loop trips) for the transformed program and \
               check the QR-series rules against the simulator's \
               register cap; the certificate and findings go to stderr.")

let werror =
  Arg.(value & flag & info [ "Werror" ]
         ~doc:"With --lint or --resources: treat warnings as errors.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write output to FILE instead of stdout.")

let cmd =
  let doc = "transform, optimize and check QIR programs" in
  Cmd.v
    (Cmd.info "qirc" ~doc)
    Term.(
      const run $ input $ passes $ lower $ optimize $ opt_quantum $ check
      $ addressing $ emit $ verify $ lint $ resources $ werror $ output)

let () = exit (Cmd.eval cmd)
