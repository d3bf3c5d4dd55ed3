(* qir-run — execute a QIR program on the simulator-backed runtime (the
   lli-plus-quantum-runtime architecture of the paper's Sec. III-C).

   Examples:
     qir-run program.ll --shots 1000 --backend statevector
     qir-run program.ll --shots 1000 --backend faulty:gate=0.05 --retries 5
     qir-run program.ll --timeout 10 --shot-timeout 0.5

   Exit codes: 0 ok, 2 parse, 3 verify, 4 exec, 5 timeout/degraded,
   6 backend, 7 usage, 8 overload (--mem-budget admission rejection). *)

open Cmdliner

(* One "label: {...}" line of machine-readable output under --stats. *)
let print_json_line label fields =
  Printf.printf "%s: %s\n" label (Jsonx.to_string (Jsonx.Obj fields))

let run input shots seed backend no_batch stats timeout shot_timeout
    retries domains local_bits mem_budget opt_quantum =
  Cli_common.protect @@ fun () ->
  Option.iter
    (fun n ->
      if n < 1 then
        Cli_common.die ~code:Qruntime.Qir_error.exit_usage
          "--domains: need at least one domain";
      Qsim.Dpool.set_domains n)
    domains;
  Option.iter
    (fun b ->
      if b < 1 || b > Qsim.Statevector.max_qubits then
        Cli_common.die ~code:Qruntime.Qir_error.exit_usage
          "--local-bits: expected 1..%d" Qsim.Statevector.max_qubits;
      Qsim.Statevector.set_max_local_bits b)
    local_bits;
  let t0 = Unix.gettimeofday () in
  let m = Cli_common.parse_qir_file input in
  Llvm_ir.Verifier.verify_exn m;
  let parse_s = Unix.gettimeofday () -. t0 in
  (* Value-semantics quantum optimizer, before admission and execution;
     the opt: line under --stats reports what it proved and rewrote.
     Its wall clock is part of analysis_s in the timings line — every
     static pass lands in the same bucket. *)
  let m, opt_stats, opt_s =
    if opt_quantum then begin
      let ot0 = Unix.gettimeofday () in
      let m', st = Qir_analysis.Qdf_opt.optimize m in
      (m', Some st, Unix.gettimeofday () -. ot0)
    end
    else (m, None, 0.)
  in
  let print_opt_stats () =
    Option.iter
      (fun (st : Qir_analysis.Qdf_opt.stats) ->
        print_json_line "opt"
          [
            ("gates_before", Jsonx.int st.Qir_analysis.Qdf_opt.s_gates_before);
            ("gates_after", Jsonx.int st.Qir_analysis.Qdf_opt.s_gates_after);
            ("cancelled", Jsonx.int st.Qir_analysis.Qdf_opt.s_cancelled);
            ("merged", Jsonx.int st.Qir_analysis.Qdf_opt.s_merged);
            ("releases_hoisted", Jsonx.int st.Qir_analysis.Qdf_opt.s_hoisted);
          ])
      opt_stats
  in
  (* The service tier's admission check, exposed standalone: certify
     the module's static resource bounds and reject — before compiling
     anything — when the proven lower bound already breaches the
     budget, or when the charged footprint (proof over declaration)
     exceeds it. Exit 8 (overload), like qir-serve. *)
  let resource_s = ref 0. in
  let max_tier = if no_batch then `Per_shot else `Batched in
  let max_tier =
    match mem_budget with
    | None -> max_tier
    | Some budget -> (
      let session = Qruntime.Executor.Session.default in
      let cert, cert_s, _ = Qruntime.Executor.Session.cert_of session m in
      resource_s := cert_s;
      (* the session sizes the shot-branching footprint, when it may run *)
      let session = if no_batch then None else Some session in
      match
        Qservice.Admission.check ~cert ?session ~shots ~budget ~backend m
      with
      | Ok v ->
        List.iter
          (Printf.eprintf "qir-run: %s\n%!")
          (List.filter_map Fun.id
             [ v.Qservice.Admission.v_qr003; v.Qservice.Admission.v_capped ]);
        if v.Qservice.Admission.v_capped <> None then `Tape else max_tier
      | Error e -> Cli_common.fail_error e)
  in
  (* Wall-clock breakdown under --stats, as one stable-keyed JSON line:
     parse / analysis (every static pass: quantum optimizer plus
     gate-tape eligibility) / resource (certification for admission) /
     compile (bytecode) / execute. Values vary run to run; the keys
     are the contract. *)
  let print_timings ~compile_s ~analysis_s =
    let analysis_s = analysis_s +. opt_s in
    let total_s = Unix.gettimeofday () -. t0 in
    let execute_s =
      Float.max 0.
        (total_s -. parse_s -. analysis_s -. !resource_s -. compile_s)
    in
    print_json_line "timings"
      [
        ("parse_s", Jsonx.Num parse_s);
        ("analysis_s", Jsonx.Num analysis_s);
        ("resource_s", Jsonx.Num !resource_s);
        ("compile_s", Jsonx.Num compile_s);
        ("execute_s", Jsonx.Num execute_s);
        ("total_s", Jsonx.Num total_s);
      ]
  in
  let policy =
    {
      Qruntime.Resilience.default with
      Qruntime.Resilience.max_retries = retries;
      total_timeout = timeout;
      shot_timeout;
    }
  in
  if shots = 1 then begin
    match Qruntime.Executor.run_resilient ~policy ~seed ~backend m with
    | Error e -> Cli_common.fail_error e
    | Ok r ->
      if String.length r.Qruntime.Executor.output > 0 then
        Printf.printf "output: %s\n" r.Qruntime.Executor.output;
      List.iter
        (fun (addr, b) ->
          Printf.printf "result 0x%Lx = %s\n" addr (if b then "1" else "0"))
        r.Qruntime.Executor.results;
      if stats then begin
        let i = r.Qruntime.Executor.interp_stats in
        let q = r.Qruntime.Executor.runtime_stats in
        Printf.printf
          "instructions=%d external-calls=%d gates=%d measurements=%d \
           resets=%d\n"
          i.Llvm_ir.Interp.instructions i.Llvm_ir.Interp.external_calls
          q.Qruntime.Runtime.gate_calls q.Qruntime.Runtime.measurements
          q.Qruntime.Runtime.resets;
        print_opt_stats ();
        print_timings ~compile_s:r.Qruntime.Executor.compile_s ~analysis_s:0.
      end
  end
  else begin
    let r =
      Qruntime.Executor.run_shots_resilient ~policy ~seed ~backend
        ~max_tier ~shots m
    in
    Format.printf "%a@?" Qruntime.Executor.pp_histogram
      r.Qruntime.Executor.histogram;
    if stats then begin
      Printf.printf
        "completed=%d/%d retries=%d batched=%b batch-fallback=%b \
         pool-fallbacks=%d tape=%b branches=%d\n"
        r.Qruntime.Executor.completed r.Qruntime.Executor.requested
        r.Qruntime.Executor.retries r.Qruntime.Executor.batched
        r.Qruntime.Executor.batch_fallback r.Qruntime.Executor.pool_fallbacks
        r.Qruntime.Executor.tape r.Qruntime.Executor.branches;
      (* Machine-readable mirror of the line above, plus the session
         cache counters — stable keys, like the timings line. *)
      print_json_line "stats"
        (Qruntime.Executor.shots_result_fields r
        @ Qruntime.Executor.Session.cache_stats_fields
            (Qruntime.Executor.Session.cache_stats
               Qruntime.Executor.Session.default));
      print_opt_stats ();
      print_timings ~compile_s:r.Qruntime.Executor.compile_s
        ~analysis_s:r.Qruntime.Executor.analysis_s
    end;
    if r.Qruntime.Executor.degraded then begin
      Printf.eprintf
        "qir-run: deadline expired after %d/%d shots (degraded result)\n"
        r.Qruntime.Executor.completed r.Qruntime.Executor.requested;
      exit Qruntime.Qir_error.exit_timeout
    end
  end

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT.ll"
         ~doc:"QIR input file ('-' for stdin).")

let shots =
  Arg.(value & opt int 1 & info [ "shots"; "n" ] ~docv:"N"
         ~doc:"Number of shots (1 = single run with detailed results).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let backend_conv : Qruntime.Executor.backend_kind Arg.conv =
  let parse s =
    match s with
    | "statevector" -> Ok `Statevector
    | "stabilizer" -> Ok `Stabilizer
    | _ when s = "faulty" || String.starts_with ~prefix:"faulty:" s -> (
      let spec_text =
        if String.length s > 7 then String.sub s 7 (String.length s - 7)
        else ""
      in
      match Qsim.Faulty.spec_of_string spec_text with
      | Ok spec -> Ok (`Faulty spec)
      | Error msg -> Error (`Msg msg))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown backend %S (expected statevector, stabilizer or \
               faulty:<spec>)"
              s))
  in
  let print ppf (b : Qruntime.Executor.backend_kind) =
    match b with
    | `Statevector -> Format.pp_print_string ppf "statevector"
    | `Stabilizer -> Format.pp_print_string ppf "stabilizer"
    | `Faulty spec ->
      Format.fprintf ppf "faulty:%s" (Qsim.Faulty.spec_to_string spec)
  in
  Arg.conv (parse, print)

let backend =
  Arg.(value & opt backend_conv `Statevector & info [ "backend" ]
         ~docv:"BACKEND"
         ~doc:"Simulator backend: statevector (default), stabilizer \
               (Clifford-only, scales to many qubits), or \
               faulty:<spec> — a fault-injecting wrapper for resilience \
               testing, e.g. \
               faulty:gate=0.05,measure=0.01,crash=0.001,seed=7 (a bare \
               rate faulty:0.05 splits it across gate/measure/crash). \
               Faulty runs execute per shot so faults exercise the \
               retry machinery.")

let no_batch =
  Arg.(value & flag & info [ "no-batch" ]
         ~doc:"Cap execution at the per-shot tier: interpret the program \
               once per shot, with neither batched sampling nor gate-tape \
               replay. By default, programs the QIR-to-circuit parser \
               accepts run on the shot-branching tier: one simulation \
               per mid-circuit measurement branch, every shot of a \
               branch drawn from its final distribution.")

let stats =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print interpreter/runtime statistics (single shot) or \
               resilience statistics (multi-shot).")

let timeout =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
         ~doc:"Total wall-clock budget. On expiry, completed shots are \
               printed and the exit code is 5 (degraded result).")

let shot_timeout =
  Arg.(value & opt (some float) None & info [ "shot-timeout" ] ~docv:"SEC"
         ~doc:"Wall-clock budget per shot, enforced inside the \
               interpreter.")

let retries =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Retries per shot for transient backend faults (with \
               exponential backoff); 0 fails on the first fault.")

let domains =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Worker-domain count for the statevector kernels \
               (overrides QIR_SIM_DOMAINS; default: the runtime's \
               recommended domain count).")

let local_bits =
  Arg.(value & opt (some int) None & info [ "local-bits" ] ~docv:"BITS"
         ~doc:"Statevector shard granularity: each shard holds 2^BITS \
               amplitudes (overrides QIR_SIM_LOCAL_BITS; default 24). \
               Registers beyond BITS qubits are split across multiple \
               contiguous shards.")

(* Byte sizes with binary suffixes: "256MiB", "16GiB", "64K", "1048576". *)
let bytes_conv : int Arg.conv =
  let parse s =
    let num, unit_ =
      let i = ref 0 in
      while
        !i < String.length s
        && (match s.[!i] with '0' .. '9' -> true | _ -> false)
      do
        incr i
      done;
      (String.sub s 0 !i, String.sub s !i (String.length s - !i))
    in
    match
      ( int_of_string_opt num,
        match String.lowercase_ascii unit_ with
        | "" | "b" -> Some 1
        | "k" | "kib" -> Some 1024
        | "m" | "mib" -> Some (1024 * 1024)
        | "g" | "gib" -> Some (1024 * 1024 * 1024)
        | _ -> None )
    with
    | Some n, Some scale when n >= 0 -> Ok (n * scale)
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad size %S (expected e.g. 1048576, 64K, 256MiB, 16GiB)" s))
  in
  let print ppf bytes =
    Format.pp_print_string ppf (Qservice.Admission.bytes_to_string bytes)
  in
  Arg.conv (parse, print)

let mem_budget =
  Arg.(value & opt (some bytes_conv) None & info [ "mem-budget" ] ~docv:"SIZE"
         ~doc:"Reject the program (exit 8, overload) before execution if \
               its simulator memory footprint — sized from the static \
               resource certificate's proven qubit bounds, upgraded over \
               the entry point's required_num_qubits attribute, at 16 \
               bytes per statevector amplitude — exceeds SIZE (e.g. \
               256MiB, 16GiB). A proven lower bound over budget rejects \
               before anything is compiled. The same admission check \
               qir-serve applies per job.")

let opt_quantum =
  Arg.(value & flag & info [ "opt-quantum" ]
         ~doc:"Run the value-semantics quantum dataflow optimizer before \
               execution: proof-carrying gate cancellation, rotation \
               merging and early qubit release. \
               Histograms are bit-identical to the unoptimized program \
               at a fixed seed.")

let cmd =
  let doc = "execute QIR programs on a simulator-backed runtime" in
  Cmd.v
    (Cmd.info "qir-run" ~doc)
    Term.(
      const run $ input $ shots $ seed $ backend $ no_batch $ stats
      $ timeout $ shot_timeout $ retries $ domains $ local_bits $ mem_budget
      $ opt_quantum)

let () = exit (Cmd.eval cmd)
