(* Quantum-optimizer smoke: 120 generated modules (30 seeds x 2
   addressing styles x {raw, redundancy-injected}) run through the
   value-semantics optimizer (quantum-opt). Gates:

   1. soundness — every optimized module must reproduce the exact
      per-shot histogram of its source at a fixed seed (bit-identical,
      not statistically close);
   2. monotonicity — the optimizer never adds gates, and never makes a
      gate-tape-eligible module ineligible;
   3. progress — across the corpus the total gate count must strictly
      drop, and every module, static or dynamic, must be gate-tape
      eligible as written and stay so after optimization;
   4. robustness — any exception anywhere in the pipeline is a failure;
      there is no error taxonomy for an optimizer crash;
   5. agreement — the gate list quantum-opt leaves equals the one the
      circuit optimizer ([Commute_opt.optimize_fixpoint]) leaves on the
      source's parsed circuit: both run the one commute-or-stop scan.

   Used by CI:  dune exec test/smoke/opt_smoke.exe *)

open Qcircuit

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FAIL: %s\n" msg)
    fmt

(* Random circuit with measurements on every qubit; with [redundant] a
   seeded third of the gates are immediately followed by their inverse,
   so cancellation/merging has guaranteed fuel. *)
let circuit ~redundant ~seed n =
  let c = Generate.random ~seed ~parametric:(seed mod 2 = 0) ~gates:12 n in
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  let st = Random.State.make [| seed; 91 |] in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) ->
        Circuit.Build.gate b g qs;
        if redundant && Random.State.int st 3 = 0 then
          Circuit.Build.gate b (Gate.inverse g) qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Circuit.Build.finish b

let gates (c : Circuit.t) =
  List.filter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with Circuit.Gate _ -> true | _ -> false)
    c.Circuit.ops

let eligible m = Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) <> None

(* Solve counts: Qdf_opt.optimize, all rounds, solves each function's
   Value_track and Sccp once and no lifetime at all. *)
let solve_counts () =
  ( Atomic.get Qir_analysis.Value_track.solves,
    Atomic.get Passes.Sccp.solves,
    Atomic.get Qir_analysis.Summary.solves )

let solve_totals = ref (0, 0, 0)

let optimize tag m =
  let v0, s0, l0 = solve_counts () in
  let result = Qir_analysis.Qdf_opt.optimize m in
  let v1, s1, l1 = solve_counts () in
  let vt, sccp, life = (v1 - v0, s1 - s0, l1 - l0) in
  let tv, ts, tl = !solve_totals in
  solve_totals := (tv + vt, ts + sccp, tl + life);
  let funcs = List.length (Llvm_ir.Ir_module.defined_funcs m) in
  if vt > funcs || sccp > funcs || life > 0 then
    fail "%s: solves value_track %d sccp %d lifetime %d for %d function(s)"
      tag vt sccp life funcs;
  result

let run_histogram ~seed m =
  (Qruntime.Executor.run_shots_resilient ~seed ~max_tier:`Per_shot ~shots:48 m)
    .histogram

let () =
  let total = ref 0 in
  let gates_before = ref 0 in
  let gates_after = ref 0 in
  let eligible_before = ref 0 in
  let eligible_after = ref 0 in
  let agree = ref 0 in
  for i = 0 to 29 do
    let seed = 7000 + i in
    let n = 2 + (i mod 4) in
    List.iter
      (fun addressing ->
        List.iter
          (fun redundant ->
            incr total;
            let tag =
              Printf.sprintf "seed %d n %d %s%s" seed n
                (match addressing with
                | `Static -> "static"
                | `Dynamic -> "dynamic")
                (if redundant then " redundant" else "")
            in
            try
              let m =
                Qir.Qir_builder.build ~addressing (circuit ~redundant ~seed n)
              in
              let m', st = optimize tag m in
              let open Qir_analysis.Qdf_opt in
              gates_before := !gates_before + st.s_gates_before;
              gates_after := !gates_after + st.s_gates_after;
              if st.s_gates_after > st.s_gates_before then
                fail "%s: optimizer added gates (%d -> %d)" tag
                  st.s_gates_before st.s_gates_after;
              let e0 = eligible m and e1 = eligible m' in
              if e0 then incr eligible_before;
              if e1 then incr eligible_after;
              if e0 && not e1 then
                fail "%s: optimizer lost gate-tape eligibility" tag;
              if run_histogram ~seed m <> run_histogram ~seed m' then
                fail "%s: histogram not bit-identical" tag;
              let c, _ = Commute_opt.optimize_fixpoint (Qir.Qir_parser.parse m) in
              if gates (Qir.Qir_parser.parse m') = gates c then incr agree
              else fail "%s: quantum-opt and the circuit optimizer disagree" tag
            with e -> fail "%s: exception %s" tag (Printexc.to_string e))
          [ false; true ])
      [ `Static; `Dynamic ]
  done;
  Printf.printf "opt smoke: %d modules, gates %d -> %d, tape-eligible %d -> %d\n"
    !total !gates_before !gates_after !eligible_before !eligible_after;
  Printf.printf "opt smoke: quantum-opt and the circuit optimizer agree on %d/%d\n"
    !agree !total;
  (let vt, sccp, life = !solve_totals in
   Printf.printf "opt smoke: solves value_track %d, sccp %d, lifetime %d\n" vt
     sccp life);
  if !gates_after >= !gates_before then
    fail "corpus: no gate-count reduction (%d -> %d)" !gates_before !gates_after;
  if !eligible_before < !total || !eligible_after < !total then
    fail "corpus: not every module is tape-eligible (%d -> %d of %d)"
      !eligible_before !eligible_after !total;
  if !failures > 0 then begin
    Printf.eprintf "opt smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "opt smoke: ok"
