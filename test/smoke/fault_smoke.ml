(* Bounded fuzz/fault smoke: 200 randomized circuits run through the
   whole pipeline — circuit -> QIR text -> parse -> optimize ->
   execute — under a 1% injected fault rate with retries enabled.
   Transient faults must all be absorbed by the retry policy; any
   non-transient failure (or an exhausted retry budget) fails the run.

   Then 2000 seeded text mutations of those programs' QIR — a flipped
   byte, a truncation, an inserted "-", "e", "0x" or 20-digit run, a
   duplicated line — go through [Parser.parse_module_result], which
   must answer [Ok] or [Error] for each. Every mutation that parses and
   verifies then goes through [Qir_parser.parse_with_output], which must
   likewise answer [Ok] or [Error], through the sccp pass, whose output
   must verify, through the whole-module lifetime check
   ([Lifetime.check_module], which builds every function's [Summary]
   on the same dataflow), and through the quantum optimizer
   ([Qdf_opt.optimize], whose output must verify, and [Qdf_opt.notes],
   both running the one commute-or-stop scan): any exception fails the
   run. Each verified mutation the gate tape accepts — of these texts
   and of 2000 mutations of the same circuits in dynamic addressing —
   must give the per-shot histogram at the tape tier ([tape_oracle]);
   one that differs fails the run. 2000 more mutations of a small
   classical corpus (loop, phi, select, GEP, switch, narrow integers)
   give sccp something to fold, under the same rule; each verified one
   whose entry runs within fuel is also run before and after sccp,
   const-fold and loop-unroll, and the histograms must agree
   ([classical_tv]).

   Last, 2000 seeded mutations of an OpenQASM 2 corpus (Bell, GHZ, a
   conditioned gate after a measurement), and 2000 of the same corpus
   printed as OpenQASM 3, go through [Qasm.parse] and
   [Qir_builder.build]: each must build or raise an exception the error
   taxonomy classifies ([Qir_error.of_exn]); any other exception fails
   the run. The OpenQASM 3 corpus has no loops: a mutated loop bound can
   ask for any number of gates.

   Then 2000 seeded mutations of NDJSON request lines (submit, stats,
   quit) go through [Protocol.parse_request], which must answer [Ok] or
   [Error] for each, as it must for a line of 10^6 nested "[".

   Used by CI as a cheap end-to-end robustness gate:
     dune exec test/smoke/fault_smoke.exe *)

open Qcircuit
open Smoke_corpus

let shots = 3

let sccp = Passes.Pass.of_func_pass Passes.Sccp.pass

(* The tape oracle: a verified mutation the gate tape accepts, replayed
   at the tape tier, must give the per-shot tier's histogram bit for bit
   (16 shots, fixed seed). Per-shot runs under a fuel bound (which keeps
   the tape out of its loop); a run past the fuel is not compared, and
   any other per-shot failure differs from the tape's answer. Tapes
   over [tape_qubits] qubits are not run: a mutated address or
   declaration can name a register no smoke test should simulate. *)
let tape_qubits = 12
let tape_checked = ref 0 and on_tape = ref 0
let too_wide = ref 0 and differ = ref 0

let out_of_fuel msg =
  let affix = "instruction budget exhausted" in
  let n = String.length affix in
  let rec at i =
    i + n <= String.length msg && (String.sub msg i n = affix || at (i + 1))
  in
  at 0

let tape_oracle m =
  incr tape_checked;
  match Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) with
  | None -> ()
  | Some tape when Qruntime.Gate_tape.qubits tape > tape_qubits -> incr too_wide
  | Some _ -> (
    incr on_tape;
    let run ?policy max_tier =
      Qruntime.Executor.run_shots_resilient ?policy ~seed:7 ~shots:16
        ~max_tier m
    in
    let fuel = { Qruntime.Resilience.default with fuel = Some 100_000 } in
    match run ~policy:fuel `Per_shot with
    | exception Qruntime.Qir_error.Error e
      when out_of_fuel e.Qruntime.Qir_error.message ->
      ()
    | exception Qruntime.Qir_error.Error _ -> incr differ
    | per_shot ->
      let tape = run `Tape in
      if
        (not tape.Qruntime.Executor.tape)
        || tape.Qruntime.Executor.histogram
           <> per_shot.Qruntime.Executor.histogram
      then incr differ)

(* Runs sccp on a verified module: whether it folded anything; raises
   [Failure] when its output does not verify. *)
let sccp_folds m =
  let m', changed = sccp.Passes.Pass.mrun m in
  if Llvm_ir.Verifier.check_module m' <> [] then
    failwith "sccp output does not verify";
  changed

(* Runs the lifetime check (and so every summary) on a verified module:
   whether it reported anything. *)
let lifetime_finds m = Qir_analysis.(Lifetime.check_module (Analyses.of_module m)) <> []

(* Runs the quantum optimizer and its lint notes on a verified module:
   whether it changed anything; raises [Failure] when its output does
   not verify. *)
let quantum_opt_changes m =
  let m', changed = Qir_analysis.Qdf_opt.pass.Passes.Pass.mrun m in
  if Llvm_ir.Verifier.check_module m' <> [] then
    failwith "quantum-opt output does not verify";
  ignore Qir_analysis.(Qdf_opt.notes (Analyses.of_module m));
  changed

(* Every mutation must parse or fail with a parse error, and every one
   that verifies must convert to a circuit or be refused, come out of
   sccp and the quantum optimizer verified and through the lifetime
   check; returns how many raised anything else. *)
let mutate_texts texts =
  let texts = Array.of_list texts in
  let rng = Rng.create static_seed in
  let ok = ref 0 and rejected = ref 0 and raised = ref 0 in
  let verified = ref 0 and circuits = ref 0 and refused = ref 0 in
  let folded = ref 0 and found = ref 0 and optimized = ref 0 in
  let report i e =
    incr raised;
    if !raised <= 5 then
      Printf.eprintf "mutation %d: %s\n" i (Printexc.to_string e)
  in
  for i = 0 to mutations - 1 do
    let text = mutate rng texts.(i mod Array.length texts) in
    match Llvm_ir.Parser.parse_module_result text with
    | Ok m -> (
      incr ok;
      if Llvm_ir.Verifier.check_module m = [] then begin
        incr verified;
        (match Qir.Qir_parser.parse_with_output m with
        | Ok _ -> incr circuits
        | Error _ -> incr refused
        | exception e -> report i e);
        (match sccp_folds m with
        | changed -> if changed then incr folded
        | exception e -> report i e);
        (match lifetime_finds m with
        | finds -> if finds then incr found
        | exception e -> report i e);
        (match quantum_opt_changes m with
        | changed -> if changed then incr optimized
        | exception e -> report i e);
        match tape_oracle m with () -> () | exception e -> report i e
      end)
    | Error _ -> incr rejected
    | exception e -> report i e
  done;
  Printf.printf "text fuzz: %d mutations, %d parsed, %d parse errors, %d raised\n"
    mutations !ok !rejected !raised;
  Printf.printf "qir parse: %d verified, %d circuits, %d refused\n" !verified
    !circuits !refused;
  Printf.printf "sccp: %d verified mutations, %d folded\n" !verified !folded;
  Printf.printf "lifetime: %d verified mutations, %d with findings\n" !verified
    !found;
  Printf.printf "quantum-opt: %d verified mutations, %d changed\n" !verified
    !optimized;
  !raised

(* The same circuits in dynamic addressing, mutated [mutations] times
   more, through the tape oracle alone: the tape runs those entries as
   written, replaying the runtime's allocator. Returns how many raised. *)
let mutate_dynamic texts =
  let texts = Array.of_list texts in
  let rng = Rng.create dynamic_seed in
  let raised = ref 0 in
  for i = 0 to mutations - 1 do
    match
      Llvm_ir.Parser.parse_module_result
        (mutate rng texts.(i mod Array.length texts))
    with
    | Ok m when Llvm_ir.Verifier.check_module m = [] -> tape_oracle m
    | Ok _ | Error _ -> ()
    | exception e ->
      incr raised;
      if !raised <= 5 then
        Printf.eprintf "dynamic mutation %d: %s\n" i (Printexc.to_string e)
  done;
  Printf.printf "tape: %d verified mutations, %d on the tape, %d differ\n"
    !tape_checked !on_tape !differ;
  if !too_wide > 0 then
    Printf.printf "tape: %d more over %d qubits, not run\n" !too_wide
      tape_qubits;
  !raised

(* Translation validation of the classical rewrites: a verified module
   whose entry runs per shot within [tv_fuel] instructions (16 shots,
   seed 99) must give the same histogram after each of sccp, const-fold
   and loop-unroll. A rewritten module that fails to run differs. *)
let tv_fuel = 200_000
let tv_executed = ref 0 and tv_differ = ref 0

let tv_rewrites =
  List.map Passes.Pass.of_func_pass
    Passes.[ Sccp.pass; Const_fold.pass; Unroll.pass ]

let tv_histogram m =
  let policy = { Qruntime.Resilience.default with fuel = Some tv_fuel } in
  (Qruntime.Executor.run_shots_resilient ~policy ~seed:99 ~shots:16
     ~max_tier:`Per_shot m)
    .Qruntime.Executor.histogram

let classical_tv m =
  if Llvm_ir.Ir_module.entry_point m <> None then
    match tv_histogram m with
    | exception Qruntime.Qir_error.Error _ -> ()
    | before ->
      incr tv_executed;
      List.iter
        (fun (p : Passes.Pass.module_pass) ->
          match tv_histogram (fst (p.Passes.Pass.mrun m)) with
          | after when after = before -> ()
          | _ | (exception Qruntime.Qir_error.Error _) -> incr tv_differ)
        tv_rewrites

(* Every mutation of the classical corpus must parse or fail with a
   parse error, and every one that verifies must come out of sccp
   verified, through the lifetime check and through [classical_tv];
   returns how many raised. *)
let mutate_classical () =
  let texts = Array.of_list classical_corpus in
  let rng = Rng.create classical_seed in
  let verified = ref 0 and folded = ref 0 and raised = ref 0 in
  let report i e =
    incr raised;
    if !raised <= 5 then
      Printf.eprintf "classical mutation %d: %s\n" i (Printexc.to_string e)
  in
  for i = 0 to mutations - 1 do
    let text = mutate rng texts.(i mod Array.length texts) in
    match Llvm_ir.Parser.parse_module_result text with
    | Ok m when Llvm_ir.Verifier.check_module m = [] -> (
      incr verified;
      (match sccp_folds m with
      | changed -> if changed then incr folded
      | exception e -> report i e);
      (match lifetime_finds m with
      | _ -> ()
      | exception e -> report i e);
      match classical_tv m with () -> () | exception e -> report i e)
    | Ok _ | Error _ -> ()
    | exception e -> report i e
  done;
  Printf.printf "sccp fuzz: %d mutations, %d verified, %d folded, %d raised\n"
    mutations !verified !folded !raised;
  Printf.printf "classical tv: %d executed, %d differ\n" !tv_executed
    !tv_differ;
  !raised

let qasm_corpus =
  [
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\n\
     cx q[0],q[1];\nmeasure q -> c;\n";
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\nh q[0];\n\
     cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nrz(pi/4) q[3];\n\
     measure q -> c;\n";
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg m[1];\n\
     creg c[2];\nh q[0];\nmeasure q[0] -> m[0];\nif(m==1) x q[1];\n\
     u3(0.1,0.2,0.3) q[1];\nmeasure q -> c;\n";
  ]

(* Every mutation of [corpus] (OpenQASM [version]) must build or raise
   a taxonomy-classified error; returns how many raised anything
   else. *)
let mutate_qasm version corpus =
  let texts = Array.of_list corpus in
  let rng = Rng.create 2025 in
  let built = ref 0 and classified = ref 0 and raised = ref 0 in
  for i = 0 to mutations - 1 do
    let text = mutate rng texts.(i mod Array.length texts) in
    match Qir.Qir_builder.build (Qasm.parse text) with
    | _ -> incr built
    | exception e -> (
      match Qruntime.Qir_error.of_exn e with
      | Some _ -> incr classified
      | None ->
        incr raised;
        if !raised <= 5 then
          Printf.eprintf "qasm%d mutation %d: %s\n%s\n" version i
            (Printexc.to_string e) text)
  done;
  Printf.printf "qasm%d fuzz: %d mutations, %d built, %d classified errors, %d raised\n"
    version mutations !built !classified !raised;
  !raised

let request_corpus =
  [
    {|{"op":"submit","tenant":"hot","program":"define void @main() {\nentry:\n  ret void\n}","shots":100,"seed":7,"id":"j1"}|};
    {|{"op":"submit","tenant":"cold","file":"examples/bell_static.ll","backend":"faulty:0.05","timeout":2.5}|};
    {|{"op":"submit","tenant":"t","program":"p","backend":"stabilizer","shots":1e3,"seed":-1}|};
    {|{"op":"stats"}|};
    {|{"op":"quit"}|};
  ]

(* Every request mutation, and a line of 10^6 nested "[", must answer
   [Ok] or [Error]; returns how many raised (or, for the nested line,
   answered [Ok]). *)
let mutate_requests () =
  let texts = Array.of_list request_corpus in
  let rng = Rng.create 2027 in
  let ok = ref 0 and errors = ref 0 and raised = ref 0 in
  let report what e =
    incr raised;
    if !raised <= 5 then Printf.eprintf "%s: %s\n" what (Printexc.to_string e)
  in
  for i = 0 to mutations - 1 do
    let line = mutate rng texts.(i mod Array.length texts) in
    match Qservice.Protocol.parse_request line with
    | Ok _ -> incr ok
    | Error _ -> incr errors
    | exception e -> report (Printf.sprintf "request mutation %d" i) e
  done;
  (match Qservice.Protocol.parse_request (String.make 1_000_000 '[') with
  | Error _ -> ()
  | Ok _ -> report "nested request" (Failure "answered Ok")
  | exception e -> report "nested request" e);
  Printf.printf "request fuzz: %d mutations, %d ok, %d errors, %d raised\n"
    mutations !ok !errors !raised;
  (* nesting mutations: a request field, and a bare line, [d] arrays deep,
     around the JSON parser's depth limit and far past it *)
  let lines = ref 0 and ok = ref 0 and errors = ref 0 in
  List.iter
    (fun d ->
      let v = String.make d '[' ^ "1" ^ String.make d ']' in
      List.iter
        (fun line ->
          incr lines;
          match Qservice.Protocol.parse_request line with
          | Ok _ -> incr ok
          | Error _ -> incr errors
          | exception e -> report (Printf.sprintf "request nested %d deep" d) e)
        [ {|{"op":"stats","x":|} ^ v ^ "}"; v ])
    [ 1; Jsonx.max_depth - 1; Jsonx.max_depth; Jsonx.max_depth + 1; 100_000 ];
  Printf.printf "request nesting: %d lines, %d ok, %d errors, %d raised\n"
    !lines !ok !errors !raised;
  !raised

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
  let texts = ref [] and dynamic_texts = ref [] in
  for i = 0 to circuits - 1 do
    let seed = fault_seed i in
    try
      let c = fault_circuit i in
      (* full pipeline: build -> print -> parse -> optimize -> execute *)
      let text = Qir.Qir_builder.to_string c in
      texts := text :: !texts;
      dynamic_texts :=
        Qir.Qir_builder.to_string ~addressing:`Dynamic c :: !dynamic_texts;
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
  let raised = mutate_texts (List.rev !texts) in
  let tape_raised = mutate_dynamic (List.rev !dynamic_texts) in
  let sccp_raised = mutate_classical () in
  let qasm2_raised = mutate_qasm 2 qasm_corpus in
  let qasm3_raised =
    mutate_qasm 3
      (List.map
         (fun t -> Qasm.to_string ~version:`V3 (Qasm.parse t))
         qasm_corpus)
  in
  let request_raised = mutate_requests () in
  if
    !failures > 0 || raised > 0 || tape_raised > 0 || !differ > 0
    || sccp_raised > 0 || !tv_differ > 0 || qasm2_raised > 0 || qasm3_raised > 0
    || request_raised > 0
  then exit 1
