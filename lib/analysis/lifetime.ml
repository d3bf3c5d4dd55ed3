(* Qubit/result lifetime checking (QL001-QL004). The rules run as
   reports of {!Summary}'s qubit-lifetime dataflow, made in the same
   replay that summarizes each function ({!Summary.solve_func}), so
   checking solves nothing here: it reads the module's {!Analyses}.

   Caller-owned parameters start out live. Calls to defined functions
   apply the callee's summary — a helper that releases its argument
   makes the caller's later use a QL001, a callee-measured result
   satisfies the caller's reads, and a call returning a fresh qubit
   becomes an allocation site the caller must release (QL003). Opaque
   callees untrack whatever flows into them and satisfy all reads, so
   reports stay *definite* and well-formed programs produce no findings.
   Every defined function is checked; rules that need whole-program
   knowledge (QL003 for returned qubits, QL004 for static results a
   caller may have measured) are scoped accordingly. *)

open Llvm_ir

type finding = Diagnostic.t

(* [f] as an entry point checked against no summaries: every call to a
   defined function is inert. *)
let check_func vt (f : Func.t) : finding list =
  snd (Summary.solve_func (Hashtbl.create 0) vt ~recursive:false ~is_entry:true f)

(* Whole-module check: every defined function, each against the others'
   summaries. Only the entry point owns the static-result namespace. *)
let check_module (a : Analyses.t) : finding list =
  List.concat_map
    (fun (f : Func.t) -> (Analyses.lifetime a f.Func.name).Analyses.findings)
    (Ir_module.defined_funcs (Analyses.ir a))

(* The entry point alone, against no summaries. An entry that calls no
   defined function — all the gate tape accepts —
   gets the module check's own answer, solving only itself. *)
let check_entry (a : Analyses.t) : finding list =
  match Ir_module.entry_point (Analyses.ir a) with
  | Some f when not (Func.is_declaration f) ->
    if Call_graph.callees (Analyses.call_graph a) f.Func.name = [] then
      (Analyses.lifetime a f.Func.name).Analyses.findings
    else check_func (Analyses.value_track a f) f
  | _ -> []
