(* qir2qasm — transpile QIR to OpenQASM 2 or 3, lowering (inlining and
   unrolling classical control flow) first when necessary.

   Example: qir2qasm program.ll --qasm3 *)

open Cmdliner

let run input qasm3 lower output =
  Cli_common.protect @@ fun () ->
  let m = Cli_common.parse_qir_file input in
  let circuit =
    if lower then begin
      (* the lowering passes assume a verified module *)
      Cli_common.verify_or_exit m;
      match Qir.Lowering.lower_to_circuit m with
      | Ok c -> c
      | Error e ->
        Cli_common.die ~code:Qruntime.Qir_error.exit_exec "%s"
          (Format.asprintf "%a" Qir.Lowering.pp_error e)
    end
    else
      match Qir.Qir_parser.parse_with_output m with
      | Ok (c, recorded) -> Qir.Qir_parser.in_recorded_order c recorded
      | Error msg ->
        Cli_common.die ~code:Qruntime.Qir_error.exit_exec
          "%s (hint: try --lower)" msg
  in
  let version = if qasm3 then `V3 else `V2 in
  Cli_common.write_output output (Qcircuit.Qasm.to_string ~version circuit)

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT.ll"
         ~doc:"QIR input file ('-' for stdin).")

let qasm3 =
  Arg.(value & flag & info [ "qasm3"; "3" ]
         ~doc:"Emit OpenQASM 3 (default: OpenQASM 2).")

let lower =
  Arg.(value & flag & info [ "lower" ]
         ~doc:"Run the lowering pipeline before extracting the circuit \
               (needed for programs with loops or helper functions).")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write output to FILE instead of stdout.")

let cmd =
  let doc = "transpile QIR to OpenQASM 2/3" in
  Cmd.v
    (Cmd.info "qir2qasm" ~doc)
    Term.(const run $ input $ qasm3 $ lower $ output)

let () = exit (Cmd.eval cmd)
