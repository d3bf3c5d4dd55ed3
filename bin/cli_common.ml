(* Shared bits for the command-line tools: IO helpers plus the unified
   error boundary. Every tool wraps its main body in [protect], which
   maps taxonomy errors (Qruntime.Qir_error wrapping Ir_error,
   Runtime_error, Sim_error, ...) to a one-line stderr diagnostic and a
   stable exit code:

     parse = 2, verify = 3, exec = 4, timeout = 5, backend = 6,
     usage = 7, overload = 8 (admission control / quotas / breakers)

   User errors never print a raw OCaml backtrace. *)

let read_file path =
  if String.equal path "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

let write_output out text =
  match out with
  | None -> print_string text
  | Some path -> Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc text)

let prog = Filename.remove_extension (Filename.basename Sys.argv.(0))

let die ~code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" prog msg;
      exit code)
    fmt

let fail_error (e : Qruntime.Qir_error.t) =
  die ~code:(Qruntime.Qir_error.exit_code e) "%s"
    (Qruntime.Qir_error.to_string e)

(* The top-level error boundary: classify anything from the execution
   stack; let everything else (genuine bugs) escape with a backtrace. *)
let protect f =
  try f () with
  | Qruntime.Qir_error.Error e -> fail_error e
  | e -> (
    match Qruntime.Qir_error.of_exn e with
    | Some err -> fail_error err
    | None -> raise e)

let parse_qir_file path =
  let src = try read_file path with Sys_error msg ->
    die ~code:Qruntime.Qir_error.exit_usage "%s" msg
  in
  match Llvm_ir.Parser.parse_module_result ~source_name:path src with
  | Ok m -> m
  | Error msg -> die ~code:Qruntime.Qir_error.exit_parse "%s: %s" path msg

let or_die = function
  | Ok v -> v
  | Error msg -> die ~code:Qruntime.Qir_error.exit_parse "%s" msg

(* The IR verifier's findings, one taxonomy line each on stderr, then
   exit with the first one's code (verify, 3). Passes and the QIR
   parser assume a verified module, so tools run this after loading. *)
let verify_or_exit m =
  match Llvm_ir.Verifier.check_module m with
  | [] -> ()
  | vs ->
    let errs = List.map Qruntime.Qir_error.of_verifier_violation vs in
    List.iter (fun e -> Printf.eprintf "%s: %s\n" prog (Qruntime.Qir_error.to_string e)) errs;
    exit (Qruntime.Qir_error.exit_code (List.hd errs))
