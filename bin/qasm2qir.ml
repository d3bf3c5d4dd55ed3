(* qasm2qir — compile OpenQASM (2 or 3, as the header says) to QIR.

   Example: qasm2qir bell.qasm --addressing dynamic *)

open Cmdliner

let run input addressing record_output output =
  Cli_common.protect @@ fun () ->
  let src = Cli_common.read_file input in
  let circuit = Cli_common.or_die (Qcircuit.Qasm.parse_result src) in
  let m = Qir.Qir_builder.build ~addressing ~record_output circuit in
  Cli_common.write_output output (Llvm_ir.Printer.module_to_string m)

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT.qasm"
         ~doc:"OpenQASM 2.0 or 3 input file ('-' for stdin); its \
               OPENQASM header names the version.")

let addressing =
  let enum_conv = Arg.enum [ ("static", `Static); ("dynamic", `Dynamic) ] in
  Arg.(value & opt enum_conv `Static & info [ "addressing" ] ~docv:"STYLE"
         ~doc:"Qubit addressing style: static (Ex.6, default) or dynamic \
               (Fig.1).")

let record_output =
  Arg.(value & opt bool true & info [ "record-output" ] ~docv:"BOOL"
         ~doc:"Emit output-recording calls (default true).")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write output to FILE instead of stdout.")

let cmd =
  let doc = "compile OpenQASM 2/3 to QIR" in
  Cmd.v
    (Cmd.info "qasm2qir" ~doc)
    Term.(const run $ input $ addressing $ record_output $ output)

let () = exit (Cmd.eval cmd)
