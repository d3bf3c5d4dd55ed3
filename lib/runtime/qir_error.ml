(* The unified error taxonomy for the execution stack. Every layer keeps
   its own cheap exception (Ir_error.* in the IR, Sim_error.* in the
   simulators, Runtime_error in the runtime); this module classifies any
   of them into one structured value — kind x layer x severity x
   location x message — that the executor's resilience machinery and the
   CLIs consume. The kinds map 1:1 to stable CLI exit codes:

     parse = 2, verify = 3, exec = 4, timeout = 5, backend = 6, usage = 7,
     overload = 8

   [Overload] covers every admission-control and quota rejection in the
   service tier: statevector memory footprints over budget, queue-depth
   budgets, per-tenant quotas, open circuit breakers and load shedding.
   It is always [Permanent] from the retry policy's point of view — the
   *caller* may resubmit later, but retrying in place would only add
   load to an already saturated service.

   Severity drives retry decisions: only [Transient] errors (injected
   backend faults) may be retried; everything else is [Permanent]. *)

type layer =
  | L_parser
  | L_verifier
  | L_interp
  | L_runtime
  | L_backend
  | L_executor
  | L_cli
  | L_service

type severity = Transient | Permanent

type kind =
  | Parse
  | Verify
  | Exec
  | Timeout
  | Backend_failure
  | Usage
  | Overload

type t = {
  kind : kind;
  layer : layer;
  severity : severity;
  location : Llvm_ir.Ir_error.location option;
  message : string;
}

exception Error of t

let make ?(severity = Permanent) ?location ~kind ~layer message =
  { kind; layer; severity; location; message }

let raise_error ?severity ?location ~kind ~layer fmt =
  Format.kasprintf
    (fun message ->
      raise (Error (make ?severity ?location ~kind ~layer message)))
    fmt

let exit_ok = 0
let exit_parse = 2
let exit_verify = 3
let exit_exec = 4
let exit_timeout = 5
let exit_backend = 6
let exit_usage = 7
let exit_overload = 8

let exit_code e =
  match e.kind with
  | Parse -> exit_parse
  | Verify -> exit_verify
  | Exec -> exit_exec
  | Timeout -> exit_timeout
  | Backend_failure -> exit_backend
  | Usage -> exit_usage
  | Overload -> exit_overload

let kind_name = function
  | Parse -> "parse"
  | Verify -> "verify"
  | Exec -> "exec"
  | Timeout -> "timeout"
  | Backend_failure -> "backend"
  | Usage -> "usage"
  | Overload -> "overload"

let layer_name = function
  | L_parser -> "parser"
  | L_verifier -> "verifier"
  | L_interp -> "interpreter"
  | L_runtime -> "runtime"
  | L_backend -> "backend"
  | L_executor -> "executor"
  | L_cli -> "cli"
  | L_service -> "service"

let severity_name = function
  | Transient -> "transient"
  | Permanent -> "permanent"

(* Structured diagnostics from the verifier and the lint analyses map
   onto the Verify kind, so qirc --lint and qir-lint exit through the
   same taxonomy (exit 3) as a failed --verify. *)
let of_verifier_violation (v : Llvm_ir.Verifier.violation) =
  make ~kind:Verify ~layer:L_verifier
    (Format.asprintf "%a" Llvm_ir.Verifier.pp_violation v)

let of_diagnostic (d : Qir_analysis.Diagnostic.t) =
  make ~kind:Verify ~layer:L_verifier
    (Format.asprintf "%a" Qir_analysis.Diagnostic.pp d)

(* Classify any exception from the execution stack. [None] for
   exceptions outside the taxonomy (genuine bugs keep their backtrace). *)
let of_exn = function
  | Error e -> Some e
  | Llvm_ir.Ir_error.Parse_error (loc, msg) ->
    Some (make ~kind:Parse ~layer:L_parser ~location:loc msg)
  | Llvm_ir.Ir_error.Verify_error msg ->
    Some (make ~kind:Verify ~layer:L_verifier msg)
  | Qir.Qir_parser.Unsupported msg ->
    Some (make ~kind:Parse ~layer:L_parser msg)
  | Qcircuit.Qasm.Error (line, msg) ->
    Some (make ~kind:Parse ~layer:L_parser (Printf.sprintf "line %d: %s" line msg))
  | Qcircuit.Qasm.Unsupported msg | Qir.Qir_builder.Unsupported msg ->
    Some (make ~kind:Exec ~layer:L_cli msg)
  | Llvm_ir.Ir_error.Exec_error msg ->
    Some (make ~kind:Exec ~layer:L_interp msg)
  | Llvm_ir.Ir_error.Timeout_error msg ->
    Some (make ~kind:Timeout ~layer:L_interp msg)
  | Runtime.Runtime_error msg -> Some (make ~kind:Exec ~layer:L_runtime msg)
  | Qsim.Sim_error.Backend_fault { fault; op } ->
    let kind =
      match fault with Qsim.Sim_error.Stall -> Timeout | _ -> Backend_failure
    in
    Some
      (make ~kind ~layer:L_backend ~severity:Transient
         (Printf.sprintf "injected %s fault during %s"
            (Qsim.Sim_error.fault_kind_name fault)
            op))
  | Qsim.Sim_error.Error { op; msg } ->
    Some
      (make ~kind:Backend_failure ~layer:L_backend
         (Printf.sprintf "%s: %s" op msg))
  | Qsim.Stabilizer.Not_clifford g ->
    Some
      (make ~kind:Backend_failure ~layer:L_backend
         (Printf.sprintf "stabilizer backend cannot apply non-Clifford %s"
            (Qcircuit.Gate.name g)))
  | _ -> None

let classify exn =
  match of_exn exn with Some e -> e.severity | None -> Permanent

let is_transient exn = classify exn = Transient

(* Wrap an arbitrary stack exception; unknown exceptions become
   executor-layer Exec errors so callers always get a [t]. *)
let wrap_exn exn =
  match of_exn exn with
  | Some e -> e
  | None -> make ~kind:Exec ~layer:L_executor (Printexc.to_string exn)

let to_string e =
  let loc =
    match e.location with
    | Some l -> Format.asprintf " at %a" Llvm_ir.Ir_error.pp_location l
    | None -> ""
  in
  Printf.sprintf "%s error (%s, %s)%s: %s" (kind_name e.kind)
    (layer_name e.layer)
    (severity_name e.severity)
    loc e.message

let pp ppf e = Format.pp_print_string ppf (to_string e)

let () =
  Printexc.register_printer (function
    | Error e -> Some (to_string e)
    | _ -> None)
