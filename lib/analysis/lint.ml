(* The qir-lint driver: runs the structural verifier and the dataflow
   analyses over a module and returns one ordered diagnostic list.

   Rules:
     QV001 error    IR verifier violation (structural)
     QL001 error    use of a released qubit
     QL002 error    double release
     QL003 warning  qubit (array) never released
     QL004 error    result read before any measurement
     QD001 warning  gate affects no measured/recorded qubit
     QD002 warning  call affects no measured/recorded qubit
     QP001 error    recursion reachable from the entry point
     QC001 warning  defined function unreachable from the entry point
     QA001 note     dynamic-looking address proved static
     QO001 note     cancellable self-inverse gate pair (quantum-opt)
     QO002 note     mergeable rotations (quantum-opt)
     QO003 note     qubit releasable earlier (quantum-opt)
     QR001 e/w      qubit bound exceeds backend cap (--resources)
     QR002 warning  unbounded-trip loop on the quantum path (--resources)
     QR003 warning  declared qubit count below proven peak (--resources)
     QR004 note     T-count exceeds stabilizer eligibility (--resources)
     QR005 e/w      depth bound exceeds deadline budget (--resources)

   The QR rules are {!Resource_lint.check} on a {!Resource.certify}
   certificate; [qir-lint --resources] appends them to [run]'s findings.

   By default the lint is interprocedural: the whole module is checked,
   dataflow rules see callee effect summaries, and the call-graph rules
   (QP001/QC001) fire. [~ipo:false] restores the intraprocedural
   entry-point-only check (useful for comparing lint cost, see bench
   E12). A structurally broken module (any QV001) skips the dataflow
   passes: their CFG substrate assumes verifier-clean input, and piling
   derived findings on top of broken structure helps nobody. *)

open Llvm_ir

let verifier_findings (m : Ir_module.t) : Diagnostic.t list =
  List.map
    (fun (v : Verifier.violation) ->
      Diagnostic.make ~rule:"QV001" ~severity:Diagnostic.Error
        ~where:v.Verifier.where "%s" v.Verifier.what)
    (Verifier.check_module m)

let run ?(notes = true) ?(ipo = true) (a : Analyses.t) : Diagnostic.t list =
  let m = Analyses.ir a in
  let notes_of () =
    if notes then Const_addr.notes (Analyses.const_facts a) m @ Qdf_opt.notes a
    else []
  in
  match verifier_findings m with
  | _ :: _ as structural -> structural
  | [] ->
    if ipo then
      Call_graph.findings (Analyses.call_graph a)
      @ Lifetime.check_module a
      @ Quantum_dce.findings a ~ipo:true
      @ notes_of ()
    else
      (* entry point only, every call opaque: the pre-interprocedural
         behavior *)
      Lifetime.check_entry a
      @ Quantum_dce.findings a ~ipo:false
      @ notes_of ()
