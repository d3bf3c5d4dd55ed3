(* The [quantum-opt] pass: rewrites on the value-semantics view of
   {!Qdf}. Three proof-carrying transformations, each firing only where
   the analysis proves the qubit flow:

   - adjacent self-inverse gate cancellation, scanning across classical
     instructions and provably-commuting gates;
   - rotation merging (Rz(a);Rz(b) -> Rz(a+b)) with constant-folded
     angles, identities dropped outright;
   - early qubit release: hoisting release calls (runtime no-ops) to
     just after the last instruction that may touch the released qubit.

   Addressing conversion is not a dataflow rewrite and is not done here:
   [qirc --addressing static] ({!Qir.Addressing.to_static}) is the one
   static-QIR converter, and the gate tape runs dynamic entries as
   written.

   Soundness around the runtime's allocator: a gate on a *static* wire
   grows the register (ensure), so removing one before a dynamic
   allocation (or before a call with unknown effect) would shift the
   indices that allocation hands out — not a bitwise-neutral change.
   Gate-removing rewrites therefore fire only in the entry function and
   only at positions strictly after the last allocation/barrier event
   of a straight-line chain (or anywhere, when the function has none).
   Release hoisting is exempt: releases are exact runtime no-ops, so
   moving one is execution-identical; the hoist still refuses to cross
   any event that may touch the released wire, preserving the lint
   discipline. *)

open Llvm_ir
module Gate = Qcircuit.Gate
module Commute_opt = Qcircuit.Commute_opt

type counters = {
  mutable cancelled : int;  (* inverse pairs removed *)
  mutable merged : int;  (* rotation/phase merges *)
  mutable hoisted : int;  (* releases moved earlier *)
}

type stats = {
  s_cancelled : int;
  s_merged : int;
  s_hoisted : int;
  s_gates_before : int;
  s_gates_after : int;
}

(* ------------------------------------------------------------------ *)
(* Gate counting (the benchmark metric)                                 *)

let is_gate_call callee =
  match Names.decode callee with Names.Gate _ -> true | _ -> false

let gate_count (m : Ir_module.t) =
  List.fold_left
    (fun acc (f : Func.t) ->
      if Func.is_declaration f then acc
      else
        Func.fold_instrs f acc (fun acc (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Call (_, callee, _) when is_gate_call callee -> acc + 1
            | _ -> acc))
    0 m.Ir_module.funcs

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)

let dangerous (k : Qdf.ekind) =
  match k with
  | Qdf.EAlloc | Qdf.EBarrier -> true
  | _ -> false

(* Where may gate-removing rewrites fire in [f]? [None] = nowhere; a
   function gives, by block position, the minimum eligible instruction
   index (max_int = the whole block is off-limits). *)
let rewrite_thresholds (qdf : Qdf.t) ~is_entry (f : Func.t) :
    (int -> int) option =
  if not is_entry then None
  else
    let last_danger evs =
      Array.fold_left
        (fun acc (e : Qdf.event) ->
          if dangerous e.Qdf.kind then Some e.Qdf.pos else acc)
        None evs
    in
    let cfg = Cfg.of_func f in
    match Cfg.straight_chain cfg with
    | Some chain -> (
      (* the chain's blocks (indices 0, 1, ...), by their position in
         the function *)
      let position = Array.make (Cfg.count cfg) 0 in
      List.iteri
        (fun p (_, i) -> Option.iter (fun i -> position.(i) <- p) i)
        (Cfg.numbered cfg f.Func.blocks);
      let chain = List.mapi (fun i _ -> position.(i)) chain in
      let last =
        List.fold_left
          (fun acc i ->
            match last_danger qdf.Qdf.events.(i) with
            | Some pos -> Some (i, pos)
            | None -> acc)
          None chain
      in
      match last with
      | None -> Some (fun _ -> 0)
      | Some (danger, pos) ->
        let thr = Array.make (Array.length qdf.Qdf.events) max_int in
        let seen = ref false in
        List.iter
          (fun i ->
            if i = danger then begin
              seen := true;
              thr.(i) <- pos + 1
            end
            else if !seen then thr.(i) <- 0)
          chain;
        Some (Array.get thr))
    | None ->
      (* a branching entry is still rewritable when nothing in it can
         allocate or escape the analysis: loops may revisit any event *)
      let any_danger =
        Array.exists
          (Array.exists (fun (e : Qdf.event) -> dangerous e.Qdf.kind))
          qdf.Qdf.events
      in
      if any_danger || qdf.Qdf.qubit_alloc_sites > 0 then None
      else Some (fun _ -> 0)

(* Rebuild a gate call for the merged gate, reusing the old qubit
   operands; [None] when the merge result has no QIR spelling. *)
let rebuild_gate_call (mg : Gate.t) (old : Instr.t) :
    (string * Instr.t) option =
  match old.Instr.op with
  | Instr.Call (rty, _, args) -> (
    match Names.qis_of_gate mg with
    | Some (callee, doubles) ->
      let qargs =
        List.filter (fun (a : Operand.typed) -> a.Operand.ty = Ty.Ptr) args
      in
      let dargs = List.map Operand.double doubles in
      Some (callee, Instr.mk (Instr.Call (rty, callee, dargs @ qargs)))
    | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Cancellation and merging within a block                              *)

let scan_block (events : Qdf.event array) ~fname ~min_pos ~emit counters
    (b : Block.t) : Block.t option =
  let ix = Qdf.index events in
  let instr = Array.map (fun (e : Qdf.event) -> e.Qdf.instr) events in
  let alive = Array.make (Array.length events) true in
  let where = Printf.sprintf "@%s %%%s" fname b.Block.label in
  let note i g g2 c =
    let g = Gate.to_string g and g2 = Gate.to_string g2 in
    let on = Qdf.wire_to_string ix.Qdf.wires.(List.hd ix.Qdf.own.(i)) in
    let make rule = Diagnostic.make ~rule ~severity:Diagnostic.Note ~where in
    emit
      (match c with
      | Commute_opt.Cancel ->
        make "QO001" "cancellable pair: %s then %s on %s cancel" g g2 on
      | Commute_opt.Identity ->
        make "QO002" "mergeable rotations: %s then %s on %s combine to identity"
          g g2 on
      | Commute_opt.Merged mg ->
        make "QO002" "mergeable rotations: %s then %s on %s -> %s" g g2 on
          (Gate.to_string mg))
  in
  let start i =
    match ix.Qdf.kinds.(i) with
    | Qdf.EGate { exact; _ } when i >= min_pos -> exact
    | _ -> None
  in
  (* a merged gate needs a QIR spelling *)
  let write j mg =
    match rebuild_gate_call mg instr.(j), ix.Qdf.kinds.(j) with
    | Some (callee, instr'), Qdf.EGate { wires; _ } ->
      instr.(j) <- instr';
      ix.Qdf.kinds.(j) <-
        Qdf.EGate { callee; shape = mg; exact = Some mg; wires };
      true
    | _ -> false
  in
  let s =
    Commute_opt.scan ~note ~wires:(Array.length ix.Qdf.wires)
      ~own:ix.Qdf.own ~start ~commutes:(Qdf.commutes ix) ~write alive
      ix.Qdf.on
  in
  counters.cancelled <- counters.cancelled + s.Commute_opt.cancelled;
  counters.merged <- counters.merged + s.Commute_opt.merged;
  if Array.for_all Fun.id alive then None
  else
    Some
      (Block.mk b.Block.label
         (List.filteri (fun k _ -> alive.(k)) (Array.to_list instr))
         b.Block.term)

(* ------------------------------------------------------------------ *)
(* Early release hoisting                                               *)

let use_counts (f : Func.t) =
  let h = Hashtbl.create 64 in
  Func.iter_uses f (fun id ->
      Hashtbl.replace h id (1 + Option.value ~default:0 (Hashtbl.find_opt h id)));
  h

let hoist_block (events : Qdf.event array) ~fname ~uses ~emit counters
    (b : Block.t) : Block.t option =
  let is_release (e : Qdf.event) =
    match e.Qdf.kind with
    | Qdf.ERelease _ | Qdf.ERelease_array _ -> true
    | _ -> false
  in
  if not (Array.exists is_release events) then None
  else begin
    let n = Array.length events in
    let instr = Array.map (fun (e : Qdf.event) -> e.Qdf.instr) events in
    let ix = Qdf.index events in
    let kind = ix.Qdf.kinds in
    let def_index = Hashtbl.create 16 in
    Array.iteri
      (fun idx (i : Instr.t) ->
        match i.Instr.id with
        | Some id -> Hashtbl.replace def_index id idx
        | None -> ())
      instr;
    let where = Printf.sprintf "@%s %%%s" fname b.Block.label in
    let result = ref None in
    let j = ref 0 in
    while !result = None && !j < n do
      (match kind.(!j) with
      | (Qdf.ERelease _ | Qdf.ERelease_array _) as rk ->
        let jj = !j in
        (* absorb the release's single-use pure operand chain so it can
           move as one unit (the builder's load-then-release epilogue) *)
        let group = ref [ jj ] in
        let rec absorb idx =
          List.iter
            (fun (o : Operand.typed) ->
              match o.Operand.v with
              | Operand.Local id -> (
                match Hashtbl.find_opt def_index id with
                | Some d
                  when (not (List.mem d !group))
                       && d < jj
                       && (not (Instr.has_side_effect instr.(d).Instr.op))
                       && Hashtbl.find_opt uses id = Some 1 ->
                  group := d :: !group;
                  absorb d
                | _ -> ())
              | Operand.Const _ -> ())
            (Instr.operands instr.(idx).Instr.op)
        in
        absorb jj;
        let group = List.sort compare !group in
        let gmin = List.hd group in
        let group_has_load =
          List.exists
            (fun idx ->
              match instr.(idx).Instr.op with
              | Instr.Load _ -> true
              | _ -> false)
            group
        in
        let group_uses id =
          List.exists
            (fun idx ->
              List.exists
                (fun (o : Operand.typed) -> o.Operand.v = Operand.Local id)
                (Instr.operands instr.(idx).Instr.op))
            group
        in
        let quantum_crossed = ref 0 in
        let ins = ref gmin in
        (try
           for k = gmin - 1 downto 0 do
             let stop =
               dangerous kind.(k)
               || Qdf.may_interfere ix jj k
               || (group_has_load
                  &&
                  match instr.(k).Instr.op with
                  | Instr.Store _ -> true
                  | _ -> false)
               ||
               match instr.(k).Instr.id with
               | Some id -> group_uses id
               | None -> false
             in
             if stop then begin
               ins := k + 1;
               raise Exit
             end
             else begin
               (match kind.(k) with
               | Qdf.EGate _ | Qdf.EMeasure _ | Qdf.EReset _ ->
                 incr quantum_crossed
               | _ -> ());
               ins := k
             end
           done
         with Exit -> ());
        if !quantum_crossed > 0 then begin
          let ins = !ins in
          let buf = ref [] in
          Array.iteri
            (fun idx i ->
              if idx = ins then
                List.iter (fun gi -> buf := instr.(gi) :: !buf) group;
              if not (List.mem idx group) then buf := i :: !buf)
            instr;
          counters.hoisted <- counters.hoisted + 1;
          emit
            (Diagnostic.make ~rule:"QO003" ~severity:Diagnostic.Note ~where
               "releasable early: %s retires %d quantum operation(s) before \
                its last use requires"
               (match rk with
               | Qdf.ERelease w -> Qdf.wire_to_string w
               | _ -> "qubit array")
               !quantum_crossed);
          result := Some (Block.mk b.Block.label (List.rev !buf) b.Block.term)
        end
      | _ -> ());
      incr j
    done;
    !result
  end

(* ------------------------------------------------------------------ *)
(* Per-function driver                                                  *)

(* Rounds delete, merge and move void calls only, so every round keeps
   [f]'s solves: only the events are classified again. *)
let optimize_func (a : Analyses.t) ~emit ~is_entry counters (f : Func.t) :
    Func.t =
  let rec rounds vt facts n f =
    if n = 0 then f
    else begin
      let changed = ref false in
      let qdf = Qdf.of_func vt facts f in
      let f =
        match rewrite_thresholds qdf ~is_entry f with
        | None -> f
        | Some thr ->
          let blocks =
            List.mapi
              (fun i (b : Block.t) ->
                let mp = thr i in
                if mp = max_int then b
                else
                  match
                    scan_block qdf.Qdf.events.(i) ~fname:f.Func.name
                      ~min_pos:mp ~emit counters b
                  with
                  | Some b' ->
                    changed := true;
                    b'
                  | None -> b)
              f.Func.blocks
          in
          Func.replace_blocks f blocks
      in
      let qdf = Qdf.of_func vt facts f in
      let uses = use_counts f in
      let blocks =
        List.mapi
          (fun i (b : Block.t) ->
            match
              hoist_block qdf.Qdf.events.(i) ~fname:f.Func.name ~uses ~emit
                counters b
            with
            | Some b' ->
              changed := true;
              b'
            | None -> b)
          f.Func.blocks
      in
      let f = Func.replace_blocks f blocks in
      if !changed then rounds vt facts (n - 1) f else f
    end
  in
  if Func.is_declaration f then f
  else rounds (Analyses.value_track a f) (Analyses.sccp a f) 8 f

(* ------------------------------------------------------------------ *)
(* Module pass                                                          *)

(* Every function's rounds over [a]'s module, and what they did. *)
let run (a : Analyses.t) ~emit =
  let counters = { cancelled = 0; merged = 0; hoisted = 0 } in
  let entry_name =
    Option.map (fun (f : Func.t) -> f.Func.name)
      (Ir_module.entry_point (Analyses.ir a))
  in
  let m =
    Ir_module.map_funcs (Analyses.ir a) (fun f ->
        optimize_func a ~emit ~is_entry:(entry_name = Some f.Func.name)
          counters f)
  in
  (m, counters)

let optimize (m : Ir_module.t) : Ir_module.t * stats =
  let a = Analyses.of_module m in
  let m, counters = run a ~emit:(fun _ -> ()) in
  let m = Signatures.add_missing_declarations m in
  ( m,
    {
      s_cancelled = counters.cancelled;
      s_merged = counters.merged;
      s_hoisted = counters.hoisted;
      s_gates_before = gate_count (Analyses.ir a);
      s_gates_after = gate_count m;
    } )

(* Lint integration: the same machinery in dry-run, emitting QO notes. *)
let notes (a : Analyses.t) : Diagnostic.t list =
  let acc = ref [] in
  ignore (run a ~emit:(fun d -> acc := d :: !acc));
  List.rev !acc

let mrun (m : Ir_module.t) =
  let m', st = optimize m in
  (m', st.s_cancelled > 0 || st.s_merged > 0 || st.s_hoisted > 0)

let pass = { Passes.Pass.mname = "quantum-opt"; mrun }
