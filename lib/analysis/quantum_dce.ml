(* Dead-quantum-code analysis: a backward liveness problem over qubits
   on the {!Llvm_ir.Dataflow} engine. A qubit is live at a point if its
   state can still influence a later measurement; a pure gate (or reset)
   all of whose qubits are dead can be removed without changing the
   distribution of any recorded output.

   Transfer, right to left:
   - measurements (mz, m) make their qubit live;
   - a gate touching a live qubit is live and makes *all* its qubits
     live (entanglement flows through multi-qubit gates);
   - reset kills backward liveness of its qubit (its prior state is
     discarded) and is itself live only if the qubit is;
   - calls to defined functions are interpreted through their
     {!Summary}: a measuring callee makes its touched qubits live, a
     pure-unitary callee whose touched qubits are all dead is removable
     (rule QD002), and a quantum-free side-effect-free callee whose
     result is unused is plain dead code (QD002 as well);
   - unknown calls, or arguments that do not resolve, force the
     conservative top ("every qubit live").

   Soundness of instruction removal needs the function to be the whole
   remaining program downstream, so the per-instruction analysis
   restricts itself to the entry point. The quantum-dce pass is a
   *module* pass: besides dead entry instructions it drops defined
   functions the call graph proves unreachable from the entry point. *)

open Llvm_ir
module SSet = Set.Make (String)

module QSet = Set.Make (struct
  type t = Value_track.qref

  let compare = compare
end)

module Fact = struct
  type t = All | Qs of QSet.t

  let bottom = Qs QSet.empty

  let equal a b =
    match a, b with
    | All, All -> true
    | Qs a, Qs b -> QSet.equal a b
    | (All | Qs _), _ -> false

  let join a b =
    match a, b with
    | All, _ | _, All -> All
    | Qs a, Qs b -> Qs (QSet.union a b)
end

module Engine = Dataflow.Backward (Fact)

let add_all qs fact =
  match fact with
  | Fact.All -> Fact.All
  | Fact.Qs s -> Fact.Qs (List.fold_left (fun s q -> QSet.add q s) s qs)

let any_live qs (fact : Fact.t) =
  match fact with
  | Fact.All -> true
  | Fact.Qs s -> List.exists (fun q -> QSet.mem q s) qs

(* A summarized callee that only applies unitaries to qubits we can
   attribute — removable when all of them are dead at the call. *)
let removable_unitary (s : Summary.t) =
  (not s.Summary.opaque) && s.Summary.gates && (not s.Summary.measures)
  && (not s.Summary.measures_unknown)
  && (not s.Summary.allocates)
  && (not s.Summary.touches_local)
  && (not s.Summary.touches_unknown)
  && (not s.Summary.releases_unknown)
  && s.Summary.side_effect_free
  && Array.for_all
       (fun fx ->
         not
           (fx.Summary.fx_released || fx.Summary.fx_may_release
          || fx.Summary.fx_measures))
       s.Summary.arg_fx

(* The qubits a summarized call touches, from the caller's viewpoint. *)
let touched_qubits vt (sg : Summary.t) (args : Operand.typed list) =
  let arg_refs =
    List.filteri
      (fun j _ ->
        j < Array.length sg.Summary.arg_fx
        && sg.Summary.arg_fx.(j).Summary.fx_used)
      args
    |> List.map (fun (a : Operand.typed) -> Value_track.qubit_of vt a.Operand.v)
  in
  arg_refs
  @ List.map (fun n -> Value_track.Static n) sg.Summary.touched_statics

(* Classify one instruction; shared by the transfer function and the
   dead-code harvest. [`Dead] means removable when no qubit is live.
   [used] is the set of SSA ids consumed anywhere in the function: a
   call whose result feeds later code is never removable. *)
let step ~summaries ~used vt (i : Instr.t) (fact : Fact.t) :
    [ `Keep | `Dead ] * Fact.t =
  let result_used =
    match i.Instr.id with Some id -> SSet.mem id used | None -> false
  in
  match i.Instr.op with
  | Instr.Call (_, callee, args) when Names.is_quantum callee -> (
    let qubit_args = Summary.qubit_args_of vt callee args in
    let unresolved = List.mem Value_track.QUnknown qubit_args in
    match Names.decode callee with
    | Names.Mz | Names.M ->
      (`Keep, if unresolved then Fact.All else add_all qubit_args fact)
    | Names.Reset -> (
      match qubit_args with
      | [ q ] when q <> Value_track.QUnknown ->
        if any_live [ q ] fact then
          ( `Keep,
            match fact with
            | Fact.All -> Fact.All
            | Fact.Qs s -> Fact.Qs (QSet.remove q s) )
        else (`Dead, fact)
      | _ -> (`Keep, Fact.All))
    | Names.Gate _ ->
      if unresolved || qubit_args = [] then (`Keep, Fact.All)
      else if any_live qubit_args fact then (`Keep, add_all qubit_args fact)
      else (`Dead, fact)
    | Names.Unknown -> (`Keep, Fact.All) (* unknown quantum function *)
    | _ -> (`Keep, fact) (* bookkeeping: neither touches nor observes qubits *))
  | Instr.Call (_, callee, args) -> (
    match Summary.find summaries callee with
    | None ->
      (* external classical code could do anything with pointers *)
      (`Keep, Fact.All)
    | Some sg ->
      if sg.Summary.opaque || sg.Summary.touches_unknown then (`Keep, Fact.All)
      else begin
        let touched = touched_qubits vt sg args in
        if List.mem Value_track.QUnknown touched then (`Keep, Fact.All)
        else if sg.Summary.measures || sg.Summary.measures_unknown then
          (`Keep, add_all touched fact)
        else if Summary.quantum_free sg then
          if sg.Summary.side_effect_free && not result_used then (`Dead, fact)
          else (`Keep, fact)
        else if removable_unitary sg then
          if any_live touched fact then (`Keep, add_all touched fact)
          else if result_used then (`Keep, fact)
          else (`Dead, fact)
        else if
          (* allocates, releases, or touches its own qubits: keep, and
             propagate entanglement through the qubits it shares with us *)
          any_live touched fact
        then (`Keep, add_all touched fact)
        else (`Keep, fact)
      end)
  | _ -> (`Keep, fact)

type result = {
  dead : (string * Instr.t) list;  (* (block label, instruction) *)
}

(* [vt] must see the fresh-qubit callees [summaries] knows of. *)
let analyze_func (summaries : Summary.table) vt (f : Func.t) : result =
  if Func.is_declaration f then { dead = [] }
  else begin
    let used = ref SSet.empty in
    Func.iter_uses f (fun id -> used := SSet.add id !used);
    let used = !used in
    let cfg = Cfg.of_func f in
    let tf =
      {
        Engine.instr =
          (fun _label i fact -> snd (step ~summaries ~used vt i fact));
        Engine.term = (fun _ _ fact -> fact);
      }
    in
    let res = Engine.solve cfg tf in
    let dead = ref [] in
    List.iter
      (fun label ->
        let b = Cfg.block cfg label in
        ignore
          (List.fold_left
             (fun fact (i : Instr.t) ->
               let verdict, fact' = step ~summaries ~used vt i fact in
               if verdict = `Dead then dead := (label, i) :: !dead;
               fact')
             (Engine.block_out res label)
             (List.rev b.Block.instrs)))
      cfg.Cfg.rpo;
    { dead = !dead }
  end

(* The entry point's dead instructions; [~ipo:false] sees every call to
   a defined function as external code. *)
let analyze (a : Analyses.t) ~ipo : result =
  match Ir_module.entry_point (Analyses.ir a) with
  | Some f when not (Func.is_declaration f) ->
    if ipo then
      analyze_func (Analyses.summaries a)
        (Analyses.lifetime a f.Func.name).Analyses.vt f
    else analyze_func (Hashtbl.create 0) (Analyses.value_track a f) f
  | _ -> { dead = [] }

let findings (a : Analyses.t) ~ipo : Diagnostic.t list =
  let entry_name =
    match Ir_module.entry_point (Analyses.ir a) with
    | Some f -> f.Func.name
    | None -> "main"
  in
  List.map
    (fun (label, (i : Instr.t)) ->
      let where = Printf.sprintf "@%s %%%s" entry_name label in
      match i.Instr.op with
      | Instr.Call (_, callee, _) when not (Names.is_quantum callee) ->
        Diagnostic.make ~rule:"QD002" ~severity:Diagnostic.Warning ~where
          "call to @%s has no effect on any measured or recorded qubit"
          callee
      | _ ->
        Diagnostic.make ~rule:"QD001" ~severity:Diagnostic.Warning ~where
          "'%s' affects no measured or recorded qubit"
          (Printer.instr_to_string i))
    (analyze a ~ipo).dead

(* ------------------------------------------------------------------ *)
(* The quantum-dce pass: dead entry instructions plus defined functions
   the call graph proves unreachable from the entry point.              *)

let remove_dead_instrs (f : Func.t) (dead : (string * Instr.t) list) : Func.t =
  let blocks =
    List.map
      (fun (b : Block.t) ->
        let instrs =
          List.filter
            (fun (i : Instr.t) ->
              not
                (List.exists
                   (fun (l, d) -> String.equal l b.Block.label && d == i)
                   dead))
            b.Block.instrs
        in
        { b with Block.instrs })
      f.Func.blocks
  in
  Func.replace_blocks f blocks

let mrun (m : Ir_module.t) : Ir_module.t * bool =
  let a = Analyses.of_module m in
  let cg = Analyses.call_graph a in
  let m, changed_funcs =
    match Ir_module.entry_point m with
    | Some f when not (Func.is_declaration f) -> (
      match (analyze a ~ipo:true).dead with
      | [] -> (m, false)
      | dead -> (Ir_module.replace_func m (remove_dead_instrs f dead), true))
    | _ -> (m, false)
  in
  match Call_graph.unreachable_defined cg with
  | [] -> (m, changed_funcs)
  | unreachable ->
    let funcs =
      List.filter
        (fun (f : Func.t) ->
          Func.is_declaration f || not (List.mem f.Func.name unreachable))
        m.Ir_module.funcs
    in
    ({ m with Ir_module.funcs }, true)

let pass = { Passes.Pass.mname = "quantum-dce"; mrun }
